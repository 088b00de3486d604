"""Scale demonstration for BFS frontier expansion
(``graph.bfs_hops`` distributed path, forced through its
``LOCAL_ROW_LIMITS`` entry) past the semi-join broadcast gate.

Random graph: 600k nodes, ~6M undirected edges (mean degree ~20), BFS
from node 0 to k=4 — on this density hop 3's frontier is ~10^4
(broadcast semi joins) and hop 4's visited set crosses the 100k-key
broadcast limit, so the anti join runs the MARKER COGROUP path — the
wide leg a 100 TB frontier would use. Checks the distributed output is
identical to a driver-side numpy BFS replay.

Usage: python tools/scale_demo_bfs.py [n_nodes] [mean_deg] [ncpu]
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


def build(n_nodes: int, mean_deg: int):
    rng = np.random.RandomState(101)
    m = n_nodes * mean_deg // 2
    lo = rng.randint(0, n_nodes, size=m).astype(np.int64)
    hi = rng.randint(0, n_nodes, size=m).astype(np.int64)
    keep = lo != hi
    a = np.minimum(lo[keep], hi[keep])
    b = np.maximum(lo[keep], hi[keep])
    pk = np.unique(a * (np.int64(1) << np.int64(32)) + b)
    return pa.table({
        "lo": pa.array(pk >> np.int64(32), pa.int64()),
        "hi": pa.array(pk & ((np.int64(1) << np.int64(32)) - 1), pa.int64()),
    })


def bfs_numpy(lo: np.ndarray, hi: np.ndarray, seed: int, k: int):
    dist = {seed: 0}
    frontier = np.array([seed], dtype=np.int64)
    visited = frontier
    for h in range(1, k + 1):
        nbrs = np.unique(np.concatenate([
            hi[np.isin(lo, frontier)], lo[np.isin(hi, frontier)]
        ]))
        nbrs = nbrs[~np.isin(nbrs, visited)]
        if nbrs.size == 0:
            break
        for v in nbrs:
            dist[int(v)] = h
        visited = np.union1d(visited, nbrs)
        frontier = nbrs
    return pd.DataFrame(sorted(dist.items()), columns=["node", "dist"]
                        ).astype("int64")


def main() -> None:
    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 600_000
    mean_deg = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    ncpu = int(sys.argv[3]) if len(sys.argv) > 3 else int(
        os.environ.get("RAY_GRAFT_CPUS", "32"))

    t0 = time.perf_counter()
    tbl = build(n_nodes, mean_deg)
    gen_sec = time.perf_counter() - t0

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ocr_ray.pipelines.graph import bfs_hops
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    ds = rd.from_arrow(tbl).repartition(ncpu * 2).materialize()

    LOCAL_ROW_LIMITS["bfs"] = 0  # the distributed plan at any size
    t0 = time.perf_counter()
    dist = bfs_hops(ds, seed=0, k=4)
    dist_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    exp = bfs_numpy(tbl.column("lo").to_numpy(zero_copy_only=False),
                    tbl.column("hi").to_numpy(zero_copy_only=False), 0, 4)
    replay_sec = time.perf_counter() - t0

    match = dist.reset_index(drop=True).equals(exp)
    level_sizes = dist.groupby("dist").size().to_dict()

    rec = {
        "demo": "bfs_frontier_expansion",
        "n_nodes": n_nodes,
        "n_edges": int(len(tbl)),
        "num_cpus": ncpu,
        "gen_sec": round(gen_sec, 2),
        "distributed_sec": round(dist_sec, 2),
        "numpy_replay_sec": round(replay_sec, 2),
        "level_sizes": {str(kk): int(v) for kk, v in level_sizes.items()},
        "reached": int(len(dist)),
        "match": bool(match),
    }
    print(json.dumps(rec))
    ray.shutdown()


if __name__ == "__main__":
    main()
