"""Graph analytics (pipelines/graph.py) vs brute-force pandas/numpy on
sf0.001: exact integer-fixed-point PageRank on the trade graph and the
oriented-wedge triangle count on the co-part graph."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

SF = "/root/testdata/sf0.001"


def _tbl(name: str) -> pd.DataFrame:
    return pq.read_table(os.path.join(SF, f"{name}.parquet")).to_pandas()


def _trade_edges_pd() -> pd.DataFrame:
    o = _tbl("orders")[["o_orderkey", "o_custkey"]]
    li = _tbl("lineitem")[["l_orderkey", "l_suppkey"]]
    pairs = (
        o.merge(li, left_on="o_orderkey", right_on="l_orderkey")[
            ["o_custkey", "l_suppkey"]
        ]
        .drop_duplicates()
        .astype("int64")
    )
    cust = pairs["o_custkey"].to_numpy()
    supp = -(pairs["l_suppkey"].to_numpy() + 1)
    return pd.DataFrame(
        {"src": np.concatenate([cust, supp]),
         "dst": np.concatenate([supp, cust])}
    )


def test_pagerank_trade_exact(ray_session):
    from ocr_ray.pipelines.graph import PR_ITERS, PR_SCALE, pagerank_trade

    got = pagerank_trade(SF)
    edges = _trade_edges_pd()
    deg = edges.groupby("src").size()
    n = len(deg)
    r0 = PR_SCALE // n
    base = 15 * r0 // 100
    pr = pd.Series(r0, index=deg.index, dtype="int64")
    for _ in range(PR_ITERS):
        contrib = (pr // deg).reindex(edges["src"]).to_numpy()
        s = pd.Series(contrib, index=edges["dst"]).groupby(level=0).sum()
        pr = (base + 85 * s // 100).astype("int64")
    exp = (
        pr.rename_axis("node")
        .rename("pr")
        .reset_index()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)
    # ranks are probabilities scaled by PR_SCALE: the total mass stays
    # within integer-floor slack of PR_SCALE (each floor loses < 1 unit)
    assert 0 < got["pr"].sum() <= PR_SCALE
    # symmetric graph: every node must appear (all have inbound edges)
    assert len(got) == n


def test_triangle_count_copart(ray_session):
    from ocr_ray.pipelines.graph import copart_edges, triangle_count_copart

    got = triangle_count_copart(SF)
    e = copart_edges(SF).to_pandas().astype("int64")
    # brute force: adjacency set, count wedges (a<b<c) closed by (b,c)
    eset = set(zip(e["lo"], e["hi"]))
    by_lo = {}
    for lo, hi in eset:
        by_lo.setdefault(lo, []).append(hi)
    n_tri = 0
    for a, nbrs in by_lo.items():
        nbrs.sort()
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if (nbrs[i], nbrs[j]) in eset:
                    n_tri += 1
    assert got.shape == (1, 1)
    assert got["n_triangles"].dtype == np.int64
    assert int(got["n_triangles"].iloc[0]) == n_tri
    # every stored edge is strictly oriented lo < hi
    assert (e["lo"] < e["hi"]).all()


def test_triangle_count_edges_direct(ray_session, monkeypatch):
    """The wedge kernel on raw edge lists: empty graph (exercises the
    empty-degree-map broadcast path) and a seeded random graph with mixed
    out-degree segment lengths, vs brute-force set intersection."""
    import pyarrow as pa

    import ray.data as rd
    from ocr_ray.pipelines.graph import triangle_count_edges

    empty = rd.from_arrow(
        pa.table({"lo": pa.array([], pa.int64()),
                  "hi": pa.array([], pa.int64())})
    ).materialize()
    assert int(triangle_count_edges(empty)["n_triangles"].iloc[0]) == 0
    # a 0 limit forces the distributed plan on the empty list, which
    # still exercises the empty-degree-map broadcast path in orient
    with monkeypatch.context() as m:
        m.setitem(LOCAL_ROW_LIMITS, "triangles", 0)
        assert int(triangle_count_edges(empty)["n_triangles"].iloc[0]) == 0

    rng = np.random.RandomState(7)
    u = rng.randint(0, 40, size=300).astype(np.int64)
    v = rng.randint(0, 40, size=300).astype(np.int64)
    m = u != v
    lo, hi = np.minimum(u[m], v[m]), np.maximum(u[m], v[m])
    pairs = np.unique(lo * np.int64(1 << 32) + hi)
    lo = (pairs >> np.int64(32)).astype(np.int64)
    hi = (pairs & np.int64((1 << 32) - 1)).astype(np.int64)
    eset = set(zip(lo.tolist(), hi.tolist()))
    n_tri = sum(
        (a, c) in eset and (b, c) in eset
        for a, b in eset for c in range(41) if b < c
    )
    edges = rd.from_arrow(
        pa.table({"lo": pa.array(lo), "hi": pa.array(hi)})
    ).repartition(4).materialize()
    # driver fast path (default limit) AND the distributed wedge plan
    # (forced with a 0 limit) must both match brute force
    assert int(triangle_count_edges(edges)["n_triangles"].iloc[0]) == n_tri
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "triangles", 0)
    assert int(triangle_count_edges(edges)["n_triangles"].iloc[0]) == n_tri


# --- BFS -------------------------------------------------------------------


def _bfs_brute(edges, seed, k):
    import collections

    adj = collections.defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {seed: 0}
    frontier = {seed}
    for h in range(1, k + 1):
        nxt = set()
        for u in frontier:
            nxt |= adj[u]
        nxt -= set(dist)
        for v in nxt:
            dist[v] = h
        frontier = nxt
    return sorted(dist.items())


def test_bfs_hops_matches_brute_and_distributed(ray_session, monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.graph import bfs_hops

    rng = np.random.RandomState(71)
    m = 300
    lo = rng.randint(0, 60, size=m).astype(np.int64)
    hi = rng.randint(0, 60, size=m).astype(np.int64)
    keep = lo != hi
    lo2 = np.minimum(lo[keep], hi[keep])
    hi2 = np.maximum(lo[keep], hi[keep])
    pk = np.unique(lo2 * (1 << 32) + hi2)
    tbl = pa.table({"lo": pa.array(pk >> 32, pa.int64()),
                    "hi": pa.array(pk & ((1 << 32) - 1), pa.int64())})
    ds = rd.from_arrow(tbl).repartition(4)

    exp = pd.DataFrame(
        _bfs_brute(list(zip(tbl["lo"].to_pylist(), tbl["hi"].to_pylist())),
                   0, 3),
        columns=["node", "dist"],
    ).astype("int64")
    loc = bfs_hops(ds, seed=0, k=3)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "bfs", 0)
    dist = bfs_hops(ds, seed=0, k=3)
    pd.testing.assert_frame_equal(loc, exp)
    pd.testing.assert_frame_equal(dist.reset_index(drop=True), exp)


def test_bfs_isolated_seed(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.graph import bfs_hops

    tbl = pa.table({"lo": pa.array([5], pa.int64()),
                    "hi": pa.array([6], pa.int64())})
    out = bfs_hops(rd.from_arrow(tbl), seed=0, k=3)
    assert out.to_dict("records") == [{"node": 0, "dist": 0}]


# --- label propagation -----------------------------------------------------


def _lp_brute(edges, rounds):
    import collections

    adj = collections.defaultdict(list)
    nodes = set()
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        nodes.add(a)
        nodes.add(b)
    lab = {n: n for n in nodes}
    for _ in range(rounds):
        new = {}
        for n in nodes:
            c = collections.Counter(lab[v] for v in adj[n])
            # most frequent, ties to smallest label
            best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            new[n] = best
        lab = new
    return sorted(lab.items())


def test_label_propagation_matches_brute_and_distributed(ray_session,
                                                         monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.graph import label_propagation

    rng = np.random.RandomState(79)
    # two planted cliques + random bridges: communities must emerge
    edges = set()
    for base in (0, 40):
        members = list(range(base, base + 12))
        for i in members:
            for j in members:
                if i < j and rng.rand() < 0.6:
                    edges.add((i, j))
    for _ in range(15):
        a, b = int(rng.randint(0, 52)), int(rng.randint(0, 52))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    tbl = pa.table({"lo": pa.array([a for a, _ in edges], pa.int64()),
                    "hi": pa.array([b for _, b in edges], pa.int64())})
    ds = rd.from_arrow(tbl).repartition(4)

    exp = pd.DataFrame(_lp_brute(edges, 3), columns=["node", "community"]
                       ).astype("int64")
    loc = label_propagation(ds, rounds=3)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "label_propagation", 0)
    dist = label_propagation(ds, rounds=3)
    pd.testing.assert_frame_equal(loc, exp)
    pd.testing.assert_frame_equal(dist.reset_index(drop=True), exp)
    # the two cliques must collapse to few labels
    assert loc[loc.node < 12]["community"].nunique() <= 3


def test_label_propagation_large_node_ids(ray_session):
    """Node ids near 2**61: the packed (node, label) key must not
    overflow int64, so communities match the same graph at small ids."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.graph import label_propagation

    # path 0-1-2-3 plus triangle 4-5-6
    lo = np.array([0, 1, 2, 4, 4, 5], np.int64)
    hi = np.array([1, 2, 3, 5, 6, 6], np.int64)
    shift = np.int64(2**61)

    def run(offset):
        ds = rd.from_arrow(pa.table({"lo": lo + offset, "hi": hi + offset}))
        return label_propagation(ds, rounds=3)

    base = run(np.int64(0))
    assert base["community"].tolist() == [1, 0, 1, 0, 4, 4, 4]
    big = run(shift)
    assert big["node"].tolist() == (base["node"] + shift).tolist()
    assert big["community"].tolist() == (base["community"] + shift).tolist()
