"""Mega-conversation reconcile proof (VERDICT r4 item 7).

One conversation with >1M spans — the 10^12-turn corpus's worst skew
shape: a single conv_id that is orders of magnitude larger than the
median and MUST span many sorted blocks — pushed through
``reconcile_sorted``: ONE range sort + the shared carry-scan's O(blocks)
driver boundary walk (the mega conv straddles blocks; its running count
carries across however many blocks it spans).

Asserts span_seq equals a pandas ``groupby("conv_id").cumcount()`` truth
row-for-row, that the mega conversation's ordinals are dense 0..n-1
under stable (turn_idx, span_idx) order, and records the wall time plus
the sorted-block occupancy (how many blocks the mega conv actually
straddles — the thing a naive per-group path would collapse into one
task).

Usage: python tools/skew_demo_megaconv.py [mega_spans] [n_normal_convs]
Prints one JSON line; run from the repo root.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np


def main() -> None:
    mega_spans = int(sys.argv[1]) if len(sys.argv) > 1 else 1_200_000
    n_normal = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_ray.pipelines.extract import reconcile_sorted

    # --- synthesize span rows: one mega conv + many normal convs -------
    rng = np.random.default_rng(23)
    spans_per_turn = 6
    mega_turns = mega_spans // spans_per_turn
    mega = pd.DataFrame(
        {
            "conv_id": "megaconv",
            "turn_idx": np.repeat(
                np.arange(mega_turns, dtype=np.int32), spans_per_turn
            ),
            "span_idx": np.tile(
                np.arange(spans_per_turn, dtype=np.int64), mega_turns
            ),
        }
    )
    per_conv = rng.integers(20, 80, n_normal)
    normal = pd.DataFrame(
        {
            "conv_id": np.repeat(
                np.array([f"conv{i:06d}" for i in range(n_normal)]),
                per_conv,
            ),
            "turn_idx": np.concatenate(
                [rng.integers(0, 40, c).astype(np.int32) for c in per_conv]
            ),
            "span_idx": np.concatenate(
                [np.arange(c, dtype=np.int64) for c in per_conv]
            ),
        }
    )
    # span_idx must be unique per (conv, turn): make it so for normals
    normal = normal.drop_duplicates(["conv_id", "turn_idx", "span_idx"])
    all_rows = pd.concat([mega, normal], ignore_index=True)
    all_rows = all_rows.sample(frac=1.0, random_state=7).reset_index(drop=True)
    all_rows["text"] = "x"  # payload passenger column
    n_rows = len(all_rows)

    spans = rd.from_arrow(
        pa.Table.from_pandas(all_rows, preserve_index=False)
    ).repartition(64).materialize()

    # --- reconcile ------------------------------------------------------
    t0 = time.time()
    via_sorted = reconcile_sorted(spans, nblocks=32)
    mat_sorted = via_sorted.materialize()
    t_sorted = time.time() - t0

    # --- sorted-block occupancy of the mega conversation --------------
    # (from the reconcile_sorted output's own blocks: how many distinct
    # blocks hold megaconv rows — the skew the boundary walk absorbs)
    def block_probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_mega = int(
            pc.sum(
                pc.cast(pc.equal(t["conv_id"], "megaconv"), pa.int64())
            ).as_py()
            or 0
        )
        return pa.table(
            {"rows": pa.array([t.num_rows], pa.int64()),
             "mega_rows": pa.array([n_mega], pa.int64())}
        )

    blocks = mat_sorted.map_batches(
        block_probe, batch_size=None, batch_format="pyarrow"
    ).to_pandas()
    mega_blocks = int((blocks["mega_rows"] > 0).sum())

    # --- parity with a pandas cumcount truth, row-for-row --------------
    key = ["conv_id", "turn_idx", "span_idx"]
    a = all_rows.sort_values(key).reset_index(drop=True)
    a["span_seq"] = a.groupby("conv_id").cumcount()
    b = mat_sorted.to_pandas().sort_values(key).reset_index(drop=True)
    assert len(b) == n_rows, (len(b), n_rows)
    assert (a["span_seq"].to_numpy() == b["span_seq"].to_numpy()).all(), \
        "span_seq mismatch against the groupby cumcount truth"

    # mega conv ordinals dense 0..n-1 under stable (turn_idx, span_idx)
    m = b[b["conv_id"] == "megaconv"].sort_values(
        ["turn_idx", "span_idx"], kind="mergesort"
    )
    assert (m["span_seq"].to_numpy() == np.arange(len(m))).all(), \
        "mega conv span_seq not dense under stable order"

    print(json.dumps({
        "n_rows": int(n_rows),
        "mega_spans": int(len(m)),
        "mega_share": round(len(m) / n_rows, 3),
        "n_normal_convs": n_normal,
        "range_sort_sec": round(t_sorted, 3),
        "sorted_blocks_total": int(len(blocks)),
        "blocks_straddled_by_mega": mega_blocks,
        "max_block_rows": int(blocks["rows"].max()),
        "span_seq_identical": True,
        "mega_dense_0_to_n": True,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
