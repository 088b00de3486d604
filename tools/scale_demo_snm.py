"""Scale demonstration for sorted-neighborhood dedup
(``functions.dedup.snm_pairs``) — the distributed path (sort + seam
walk + cogroup verify), forced through its ``LOCAL_ROW_LIMITS`` entry.

Synthesizes N docs of ~30 DISTINCT tokens drawn from a 50k-word vocab,
and plants a near-dup variant for every 20th doc: identical prefix
(same 16-char blocking key, so the pair is sort-adjacent) with the last
token replaced (token-set Jaccard 29/31 ~ 0.935 >= 9/10 — a guaranteed
hit). Checks:

  - the distributed plan's output is IDENTICAL to the driver-local
    shared-kernel path (different execution: range sort + block seam
    walk + partitioned verify joins vs one in-process sort);
  - planted recall == 1.0 on the variant pairs;
  - throughput: docs/sec end-to-end through the distributed plan.

Usage: python tools/scale_demo_snm.py [n_docs] [ncpu]
Prints one JSON line; run from the repo root.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd
import pyarrow as pa


def build(n_docs: int):
    rng = np.random.RandomState(29)
    vocab = np.array([f"w{i:05d}" for i in range(50_000)], dtype=object)
    # vectorized draw; rare intra-row repeats (~1% of rows) only shrink
    # a doc's DISTINCT set by one, keeping the planted-pair jaccard
    # >= 27/29 > 9/10 — the hit guarantee is unaffected
    mat = rng.randint(0, 50_000, size=(n_docs, 30))
    base_texts = [" ".join(row) for row in vocab[mat]]
    texts: list[str] = []
    ids: list[int] = []
    expect: list[tuple[int, int]] = []
    did = 0
    for i, txt in enumerate(base_texts):
        texts.append(txt)
        ids.append(did)
        base_id = did
        did += 1
        if i % 20 == 0:
            # replace last token -> same 16-char prefix, jaccard ~29/31
            texts.append(txt[: txt.rfind(" ") + 1] + f"v{i:07d}")
            ids.append(did)
            expect.append((base_id, did))
            did += 1
    return pa.table({
        "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    }), expect


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else int(
        os.environ.get("RAY_GRAFT_CPUS", "32"))

    t0 = time.perf_counter()
    tbl, expect = build(n_docs)
    gen_sec = time.perf_counter() - t0

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ocr_ray.functions.dedup import snm_pairs
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    ds = rd.from_arrow(tbl).repartition(ncpu * 2).materialize()

    LOCAL_ROW_LIMITS["snm"] = 0  # the distributed plan at any size
    t0 = time.perf_counter()
    dist = snm_pairs(ds)
    dist_sec = time.perf_counter() - t0

    LOCAL_ROW_LIMITS["snm"] = len(tbl) + 1  # driver-local shared-kernel replay
    t0 = time.perf_counter()
    loc = snm_pairs(ds)
    loc_sec = time.perf_counter() - t0

    match = dist.reset_index(drop=True).equals(loc.reset_index(drop=True))
    got = set(zip(dist["doc_a"].tolist(), dist["doc_b"].tolist()))
    planted_found = sum(1 for p in expect if p in got)

    rec = {
        "demo": "snm_planted_variants",
        "n_docs": int(len(tbl)),
        "n_planted": len(expect),
        "num_cpus": ncpu,
        "gen_sec": round(gen_sec, 2),
        "distributed_sec": round(dist_sec, 2),
        "local_replay_sec": round(loc_sec, 2),
        "docs_per_sec": round(len(tbl) / dist_sec, 1),
        "pairs_out": int(len(dist)),
        "planted_recall": round(planted_found / len(expect), 6),
        "match": bool(match and planted_found == len(expect)),
    }
    print(json.dumps(rec))
    ray.shutdown()


if __name__ == "__main__":
    main()
