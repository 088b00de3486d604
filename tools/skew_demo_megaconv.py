"""Mega-conversation reconcile proof (VERDICT r4 item 7).

One conversation with >1M spans — the 10^12-turn corpus's worst skew
shape: a single conv_id that is orders of magnitude larger than the
median — pushed through ``reconcile_sorted`` on both of its branches:
the driver-local offsets (limit raised above the row count), where the
mega conversation is one offset per turn, and the distributed range sort
plus carry-scan (limit forced to 0), where it spans many sorted blocks.

Asserts, per branch, that span_seq equals a pandas
``groupby("conv_id").cumcount()`` truth row-for-row and that the mega
conversation's ordinals are dense 0..n-1 under stable
(turn_idx, span_idx) order, and records the wall time.

Usage: python tools/skew_demo_megaconv.py [mega_spans] [n_normal_convs] [num_cpus]
Prints one JSON line; run from the repo root.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np


def dense_spans(conv_ids, turns_per_conv, spans_per_turn):
    """(conv_id, turn_idx, span_idx) rows: turn_idx 0..t-1 per
    conversation, span_idx 0..k-1 per turn, as extraction emits them."""
    import pandas as pd

    conv = np.repeat(conv_ids, turns_per_conv)
    turn = np.arange(len(conv)) - np.repeat(
        np.cumsum(turns_per_conv) - turns_per_conv, turns_per_conv)
    first = np.cumsum(spans_per_turn) - spans_per_turn
    return pd.DataFrame({
        "conv_id": np.repeat(conv, spans_per_turn),
        "turn_idx": np.repeat(turn, spans_per_turn).astype(np.int32),
        "span_idx": (np.arange(spans_per_turn.sum())
                     - np.repeat(first, spans_per_turn)).astype(np.int32),
    })


def main() -> None:
    mega_spans = int(sys.argv[1]) if len(sys.argv) > 1 else 1_200_000
    n_normal = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000
    num_cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 4

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_ray.pipelines.extract import reconcile_sorted
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    # --- synthesize span rows: one mega conv + many normal convs -------
    rng = np.random.default_rng(23)
    mega_turns = mega_spans // 6
    turns = np.concatenate([[mega_turns], rng.integers(1, 40, n_normal)])
    per_turn = np.concatenate([np.full(mega_turns, 6),
                               rng.integers(1, 6, turns[1:].sum())])
    names = np.array(["megaconv"] + [f"conv{i:06d}" for i in range(n_normal)])
    all_rows = dense_spans(names, turns, per_turn)
    all_rows = all_rows.sample(frac=1.0, random_state=7).reset_index(drop=True)
    all_rows["text"] = "x"  # payload passenger column
    n_rows = len(all_rows)

    spans = rd.from_arrow(
        pa.Table.from_pandas(all_rows, preserve_index=False)
    ).repartition(64).materialize()

    key = ["conv_id", "turn_idx", "span_idx"]
    truth = all_rows.sort_values(key).reset_index(drop=True)
    truth["span_seq"] = truth.groupby("conv_id").cumcount()

    out = {"n_rows": int(n_rows), "n_normal_convs": n_normal}
    saved = LOCAL_ROW_LIMITS["reconcile"]
    try:
        for branch, limit in (("local", n_rows + 1), ("distributed", 0)):
            LOCAL_ROW_LIMITS["reconcile"] = limit
            t0 = time.time()
            got = reconcile_sorted(spans).materialize()
            out[f"{branch}_sec"] = round(time.time() - t0, 3)
            b = got.to_pandas().sort_values(key).reset_index(drop=True)
            assert len(b) == n_rows, (branch, len(b), n_rows)
            assert (truth["span_seq"].to_numpy() == b["span_seq"].to_numpy()).all(), \
                f"{branch}: span_seq mismatch against the groupby cumcount truth"
            m = b[b["conv_id"] == "megaconv"]
            assert (m["span_seq"].to_numpy() == np.arange(len(m))).all(), \
                f"{branch}: mega conv span_seq not dense under stable order"
            out["mega_spans"] = int(len(m))
    finally:
        LOCAL_ROW_LIMITS["reconcile"] = saved

    out.update(mega_share=round(out["mega_spans"] / n_rows, 3),
               span_seq_identical=True, mega_dense_0_to_n=True)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
