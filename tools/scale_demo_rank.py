"""Scale/skew demonstration for the dense per-group rank + NTILE kernel
(``textstats.ppl_buckets`` distributed path).

Synthesizes N short docs over 3 languages with one HOT language holding
80% of the corpus — the skew case the kernel's docstring claims to
handle (a hot group just spans more sorted blocks; no task ever holds a
whole language's rows, because ranks come from the block-boundary
prefix walk, not a per-group materialization). Runs the full
distributed plan (LM scoring joins + range sort + seam walk + NTILE
assign), forced through the ``nll`` and ``ppl`` ``LOCAL_ROW_LIMITS``
entries, and checks the output is IDENTICAL to the driver-local
shared-kernel replay, plus the NTILE balance invariant per language.

Usage: python tools/scale_demo_rank.py [n_docs] [ncpu]
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
    rng = np.random.RandomState(83)
    vocab = np.array([f"w{i:04d}" for i in range(2000)], dtype=object)
    mat = rng.randint(0, 2000, size=(n_docs, 14))
    texts = [" ".join(row) for row in vocab[mat]]
    # hot language: 80% of docs; two cold tails
    r = rng.rand(n_docs)
    langs = np.where(r < 0.8, "hot", np.where(r < 0.9, "de", "fr"))
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    }), pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "lang": pa.array(langs.tolist(), pa.string()),
    })


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 250_000
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else int(
        os.environ.get("RAY_GRAFT_CPUS", "32"))

    t0 = time.perf_counter()
    dtbl, ltbl = build(n_docs)
    gen_sec = time.perf_counter() - t0

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ocr_ray.functions.textstats as TS
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    docs = rd.from_arrow(dtbl).repartition(ncpu * 2).materialize()
    langs = rd.from_arrow(ltbl).repartition(ncpu * 2).materialize()

    LOCAL_ROW_LIMITS.update(nll=0, ppl=0)  # the distributed plan
    t0 = time.perf_counter()
    dist = TS.ppl_buckets(docs, langs)
    dist_sec = time.perf_counter() - t0

    # driver-local shared-kernel replay
    LOCAL_ROW_LIMITS.update(nll=len(dtbl) + 1, ppl=len(dtbl) + 1)
    t0 = time.perf_counter()
    loc = TS.ppl_buckets(docs, langs)
    loc_sec = time.perf_counter() - t0

    match = dist.reset_index(drop=True).equals(loc.reset_index(drop=True))
    sizes = dist.groupby(["lang", "ppl_bucket"]).size().groupby("lang")
    balanced = bool((sizes.max() - sizes.min() <= 1).all())
    hot_share = float((dist["lang"] == "hot").mean())

    rec = {
        "demo": "rank_ntile_hot_group",
        "n_docs": int(len(dtbl)),
        "num_cpus": ncpu,
        "hot_lang_share": round(hot_share, 4),
        "gen_sec": round(gen_sec, 2),
        "distributed_sec": round(dist_sec, 2),
        "local_replay_sec": round(loc_sec, 2),
        "docs_per_sec": round(len(dtbl) / dist_sec, 1),
        "ntile_balanced": balanced,
        "match": bool(match and balanced),
    }
    print(json.dumps(rec))
    ray.shutdown()


if __name__ == "__main__":
    main()
