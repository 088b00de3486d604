"""Distributed graph analytics over DERIVED graphs — the iterative-
algorithm operator family (PageRank) plus a multi-way self-join kernel
(triangle counting).

Two deterministic graphs are derived from the corpus so every query keeps
an exact value-level DuckDB oracle:

- the TRADE graph: an undirected customer<->supplier graph with an edge
  wherever a customer's order contains a lineitem from that supplier
  (orders |><| lineitem on orderkey, distinct pairs, both directions;
  supplier nodes mapped into the NEGATIVE id namespace, node = -(key+1),
  collision-free with customer keys at any scale);
- the CO-PART graph: supplier—supplier edges wherever two suppliers
  supply the same part, over the derived partsupp relation
  (tpch_ext.py: 4 suppliers per part at modular offsets).

PageRank runs in EXACT integer fixed-point (rank scaled by ``PR_SCALE``,
floor division everywhere) so the unrolled-CTE SQL twin replays it
bit-for-bit — no float summation-order hazard. Per iteration:

    r_{k+1}(v) = BASE + (85 * sum_{(u,v) in E} (r_k(u) // deg(u))) // 100
    BASE       = (15 * (PR_SCALE // N)) // 100,  r_0 = PR_SCALE // N

Scale shape: the graph never leaves the cluster. Each iteration is
exactly one partitioned bucket_hash_join (degree-annotated edges |><|
rank state on src — edges is the fact side) and one grouped sum: a
PER-BLOCK partial combine of contributions by (dst, dd) shrinks a
celebrity node's incoming rows to at most one per block BEFORE the
shuffle (the grouped sum partitions by hash(dst), which would otherwise
land every one of a hot node's in-edges in a single bucket), then the
hash-bucketed grouped sum finishes the recurrence — the destination
degree rides the edge table, so no per-iteration node join re-attaches
it. The state materialized between iterations is ONE ROW PER NODE. A hot
node's outgoing fan-out is data parallelism, not a hot key (its
rank/degree ships per edge partition). Triangle counting orients every
edge by the total order (degree, id) — see
:func:`orient_edges_by_degree` — so each triangle is generated exactly
once from its minimum-RANK vertex and a hub's wedge fan-out is bounded
by its lower-degree neighbors, then closes wedges with the engine's
adaptive semi join (hub demo: tools/skew_demo_triangles.py).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..pqread import read_parquet as _read_parquet
from ..stages.carry_scan import runs
from ..stages.partial_agg import (
    bucket_pass,
    grouped_agg,
    local_table,
    pin_schema,
    to_pandas_typed,
)

# the undirected (lo, hi) edge list the gated graph operators pull
# driver-local below their LOCAL_ROW_LIMITS entry
_EDGES = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

__all__ = [
    "trade_edges",
    "pagerank_trade",
    "pagerank_edges",
    "copart_edges",
    "orient_edges_by_degree",
    "triangle_count_copart",
    "triangle_count_edges",
    "bfs_hops",
    "label_propagation",
    "SUPP_NODE_NEG_BASE",
    "PR_SCALE",
    "PR_ITERS",
]

# supplier node ids live in the negative namespace: node = -(s_suppkey+1)
# (suppkey 0 -> -1). Customer keys are non-negative, so the two key
# spaces can NEVER collide, at any corpus scale — a fixed positive offset
# would silently merge customer and supplier nodes once custkeys outgrow
# it (at TPC-H scaling, custkey 1e9 is reached near SF 6,667)
SUPP_NODE_NEG_BASE = -1
PR_SCALE = 10**12
PR_ITERS = 3
_DAMP_NUM, _DAMP_DEN = 85, 100  # 0.85 damping as an exact rational


def _trade_pairs(sf_dir: str) -> rd.Dataset:
    """Distinct (cust, supp) trade pairs: orders |><| lineitem on
    orderkey (partitioned bucket join — both sides fact-scaled), then a
    hash-bucketed distinct."""
    from .joins import bucket_hash_join

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(
        lambda t: t.rename_columns(["k", "cust"]), batch_format="pyarrow"
    )
    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey"],
    ).map_batches(
        lambda t: t.rename_columns(["k", "supp"]), batch_format="pyarrow"
    )
    j = bucket_hash_join(orders, li, on="k")
    pairs = j.map_batches(
        lambda df: df[["cust", "supp"]], batch_format="pandas"
    )
    return grouped_agg(pairs, ["cust", "supp"], count_alias=None)


def trade_edges(sf_dir: str) -> rd.Dataset:
    """The undirected trade graph as a DIRECTED edge list with both
    orientations (src, dst) — the layout every per-node aggregate
    (degree, incoming contribution) shuffles on."""

    def both(t: pa.Table) -> pa.Table:
        cust = t.column("cust").to_numpy(zero_copy_only=False)
        supp = -(t.column("supp").to_numpy(zero_copy_only=False) + 1)
        return pa.table(
            {"src": pa.array(np.concatenate([cust, supp]), pa.int64()),
             "dst": pa.array(np.concatenate([supp, cust]), pa.int64())}
        )

    return _trade_pairs(sf_dir).map_batches(both, batch_format="pyarrow")


def pagerank_trade(sf_dir: str, iters: int = PR_ITERS) -> pd.DataFrame:
    """Exact integer-fixed-point PageRank on the trade graph (see
    :func:`pagerank_edges` for the engine; this binds it to the derived
    corpus graph)."""
    return pagerank_edges(trade_edges(sf_dir), iters=iters)


def pagerank_edges(edge_ds: rd.Dataset, iters: int = PR_ITERS) -> pd.DataFrame:
    """Exact integer-fixed-point PageRank over an arbitrary directed
    (src, dst) edge Dataset after ``iters`` synchronous power iterations
    (see module docstring for the recurrence). Every node must have BOTH
    out- and in-edges (symmetric graphs qualify), so the per-iteration
    grouped sum covers the full node set and no outer join is needed.
    Returns (node, pr) — pr in PR_SCALE units.

    The destination degree rides the EDGE table (``dd``, attached by one
    setup join): grouping contributions by (dst, dd) makes each iteration
    exactly one partitioned join + one grouped sum — no per-iteration
    node join to re-attach degrees, and no LAZY dataset ever feeds a join
    (a lazy side's schema() probe re-executes its whole upstream shuffle;
    measured 8 s extra per iteration at sf0.1 before this layout).
    +8 bytes/edge is the documented cost."""
    from .joins import bucket_hash_join

    edges = edge_ds.materialize()
    deg = grouped_agg(edges.select_columns(["src"]), ["src"],
                      count_alias="d").materialize()
    n_nodes = deg.count()
    r0 = PR_SCALE // n_nodes
    base = (_DAMP_DEN - _DAMP_NUM) * r0 // _DAMP_DEN

    deg_dst = deg.map_batches(
        lambda t: t.rename_columns(["dst", "dd"]), batch_format="pyarrow"
    )
    # edges2: (src, dst, dd) — dd = degree of dst, constant per dst
    # hinted: deg_dst is a lazy rename, which a schema probe would run
    edges2 = bucket_hash_join(
        edges, deg_dst, on="dst",
        right_dtypes={"dst": np.int64, "dd": np.int64},
    ).materialize()

    def init(t: pa.Table) -> pa.Table:
        return t.append_column(
            "pr", pa.array(np.full(t.num_rows, r0, dtype=np.int64), pa.int64())
        )

    # state: one row per node — (src, d, pr)
    state = deg.map_batches(init, batch_format="pyarrow").materialize()

    def contrib_of(t: pa.Table) -> pa.Table:
        # dd is functionally dependent on dst, so keying the grouped sum
        # on (dst, dd) carries the destination degree through the shuffle
        # for free; its per-block partial caps a celebrity node's
        # shuffled contribution rows at one per block (int64 sums — exact)
        return pa.table({"dst": t["dst"], "dd": t["dd"],
                         "c": t["pr"].to_numpy() // t["d"].to_numpy()})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["dst"], "d": t["dd"],
                         "pr": base + _DAMP_NUM * t["c"].to_numpy() // _DAMP_DEN})

    for _ in range(iters):
        contrib = bucket_hash_join(edges2, state, on="src").map_batches(
            contrib_of, batch_format="pyarrow"
        )
        state = (
            grouped_agg(contrib, ["dst", "dd"], ["c"], count_alias=None)
            .map_batches(finish, batch_format="pyarrow")
            .materialize()
        )

    out = state.select_columns(["src", "pr"]).to_pandas()
    out = out.rename(columns={"src": "node"}).astype(
        {"node": "int64", "pr": "int64"}
    )
    return out.sort_values("node").reset_index(drop=True)


def copart_edges(sf_dir: str) -> rd.Dataset:
    """Distinct supplier—supplier edges (lo < hi) of the co-part graph:
    the derived partsupp's 4 suppliers per part yield 6 pairs per part,
    generated INLINE from p_partkey (no partsupp materialization — the
    same O(1) modular-offset plan as tpch_ext), then one hash-bucketed
    distinct. Each block pre-dedups its pairs on the packed int64 key
    before the shuffle: the modular-offset construction collapses to few
    distinct edges per residue class, so the per-block np.unique shrinks
    the exchange by ~the pairs-per-part factor (6x) or more for free."""
    n_supp = pq.ParquetFile(
        os.path.join(sf_dir, "supplier.parquet")
    ).metadata.num_rows
    step = n_supp // 4 + 1

    def pairs(t: pa.Table) -> pa.Table:
        p = t.column("p_partkey").to_numpy(zero_copy_only=False)
        sup = [(p + i * step) % n_supp for i in range(4)]
        pks = []
        for i in range(4):
            for j in range(i + 1, 4):
                lo = np.minimum(sup[i], sup[j])
                hi = np.maximum(sup[i], sup[j])
                m = lo != hi  # (j-i)*step can wrap to 0 mod n_supp
                pks.append(lo[m] * _PAIR_BASE + hi[m])
        pk = np.unique(np.concatenate(pks))
        return pa.table(
            {"lo": pa.array(pk >> np.int64(32), pa.int64()),
             "hi": pa.array(pk & _PAIR_MASK, pa.int64())}
        )

    part = _read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
    )
    return grouped_agg(
        part.map_batches(pairs, batch_format="pyarrow"), ["lo", "hi"],
        count_alias=None,
    )


# pair-encoding base for the wedge-closing semi join: suppkeys are dense
# and far below 2^31, so lo * 2^32 + hi is collision-free int64
_PAIR_BASE = np.int64(1) << np.int64(32)
_PAIR_MASK = _PAIR_BASE - np.int64(1)

def _wedge_packed(
    src: np.ndarray, dst: np.ndarray, ddeg: np.ndarray
) -> np.ndarray:
    """Packed (b, c) wedge keys of a degree-oriented edge list: segments
    sorted by (src, ddeg, dst) so positional pairs i < j within a src
    segment are exactly the rank-oriented wedges rank(b) < rank(c); all
    same-length segments stack into one matrix and pair via a single
    cached triu_indices — no per-src Python loop over rows. Shared by
    the distributed per-bucket kernel and the driver fast path."""
    order = np.lexsort((dst, ddeg, src))
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    counts = np.diff(np.r_[starts, len(src)])
    pks = []
    for d in np.unique(counts):
        if d < 2:
            continue
        segs = starts[counts == d]
        nb = dst[segs[:, None] + np.arange(d)[None, :]]  # (k, d)
        iu, ju = np.triu_indices(d, k=1)
        pks.append((nb[:, iu] * _PAIR_BASE + nb[:, ju]).ravel())
    return np.concatenate(pks) if pks else np.empty(0, dtype=np.int64)


def _count_triangles_numpy(lo: np.ndarray, hi: np.ndarray) -> int:
    """Driver-local twin of the distributed plan: same (degree, id)
    orientation, same wedge kernel, closing membership via one sorted
    np.isin. Exact — orientation choice never changes the count."""
    if len(lo) == 0:
        return 0
    _, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    deg = np.bincount(inv).astype(np.int64)
    m = len(lo)
    dl, dh = deg[inv[:m]], deg[inv[m:]]
    swap = dh < dl  # ties never swap: lo < hi by construction
    src = np.where(swap, hi, lo).astype(np.int64)
    dst = np.where(swap, lo, hi).astype(np.int64)
    ddeg = np.where(swap, dl, dh).astype(np.int64)
    wedges = _wedge_packed(src, dst, ddeg)
    ekeys = src * _PAIR_BASE + dst
    return int(np.isin(wedges, ekeys).sum())


def orient_edges_by_degree(edges: rd.Dataset) -> rd.Dataset:
    """Degree-orient an undirected (lo < hi) distinct edge list: each
    edge {u, v} is stored once as src -> dst where rank(src) < rank(dst)
    under the total order rank(v) = (degree(v), v).

    Degrees come from one grouped count over the exploded endpoints.
    Below the broadcast key gate the whole (vertex, degree) map ships
    once via ray.put and BOTH lookups plus the orientation fuse into a
    single map_batches pass (two searchsorted probes — no join, no extra
    materialize). Above the gate the vertex table outgrows a broadcast
    and the hop degrades to two ``attach_key_map`` partitioned bucket
    joins. Output columns: src, dst, sdeg, ddeg (both endpoint degrees
    ride along so wedge generation can rank out-neighbors without
    another join). ``edges`` must be materialized (it is consumed
    twice).

    CONTRACT: the returned Dataset is cheap to re-consume — below the
    gate it is one lazy vectorized map over the caller's materialized
    ``edges``; above it the join output is materialized HERE so callers
    with multiple consumers never re-execute the attach shuffle."""
    import ray

    from ..stages.partial_agg import compact_nonempty
    from .joins import _BROADCAST_KEY_LIMIT, attach_key_map

    def explode(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(np.concatenate([lo, hi]), pa.int64())})

    # materialized ONCE: both rename branches feed attach_key_map, which
    # materializes its dim side — a lazy `deg` would re-execute the
    # endpoint-explode grouped count for deg_lo AND deg_hi (Ray does not
    # cache shared lazy lineage); compact_nonempty also drops the
    # exchange's schema-less filler blocks
    deg = compact_nonempty(
        grouped_agg(
            edges.map_batches(explode, batch_format="pyarrow"), ["v"])
    )
    n_vertices = deg.count()
    if n_vertices <= _BROADCAST_KEY_LIMIT:
        if n_vertices == 0:
            # Ray 2.49 returns a COLUMN-LESS frame for an empty dataset;
            # an empty edge list has no wedges either way
            empty = np.empty(0, dtype=np.int64)
            ref = ray.put((empty, empty))
        else:
            dp = deg.to_pandas().sort_values("v")
            ref = ray.put(
                (dp["v"].to_numpy(np.int64), dp["n"].to_numpy(np.int64))
            )

        def orient_bcast(t: pa.Table) -> pa.Table:
            ks, dv = ray.get(ref)
            lo = t.column("lo").to_numpy(zero_copy_only=False)
            hi = t.column("hi").to_numpy(zero_copy_only=False)
            # every endpoint is present in the degree map by construction
            # (degrees were counted from these same edges)
            dl = dv[np.searchsorted(ks, lo)]
            dh = dv[np.searchsorted(ks, hi)]
            swap = dh < dl  # ties never swap: lo < hi by construction
            return pa.table(
                {
                    "src": pa.array(np.where(swap, hi, lo), pa.int64()),
                    "dst": pa.array(np.where(swap, lo, hi), pa.int64()),
                    "sdeg": pa.array(np.where(swap, dh, dl), pa.int64()),
                    "ddeg": pa.array(np.where(swap, dl, dh), pa.int64()),
                }
            )

        return edges.map_batches(orient_bcast, batch_format="pyarrow")

    deg_lo = deg.map_batches(
        lambda t: t.rename_columns(["lo", "deg_lo"]), batch_format="pyarrow"
    )
    deg_hi = deg.map_batches(
        lambda t: t.rename_columns(["hi", "deg_hi"]), batch_format="pyarrow"
    )
    # facts_dtypes on the second attach: above the broadcast gate its
    # bucket join would otherwise schema-probe the FIRST attach's lazy
    # output, re-executing that whole join (bucket_hash_join CALLER NOTE)
    with_deg = attach_key_map(
        attach_key_map(edges, deg_lo, "lo", "deg_lo"),
        deg_hi, "hi", "deg_hi",
        facts_dtypes={"lo": "int64", "hi": "int64", "deg_lo": "int64"},
    )

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(np.int64)
        hi = df["hi"].to_numpy(np.int64)
        dl = df["deg_lo"].to_numpy(np.int64)
        dh = df["deg_hi"].to_numpy(np.int64)
        # swap when hi is the lower-ranked endpoint; ties on degree break
        # on id, and lo < hi by construction, so ties never swap
        swap = dh < dl
        return pd.DataFrame(
            {
                "src": np.where(swap, hi, lo),
                "dst": np.where(swap, lo, hi),
                "sdeg": np.where(swap, dh, dl),
                "ddeg": np.where(swap, dl, dh),
            }
        )

    return compact_nonempty(
        with_deg.map_batches(orient, batch_format="pandas").map_batches(
            pin_schema(
                {"src": "int64", "dst": "int64", "sdeg": "int64",
                 "ddeg": "int64"}
            ),
            batch_format="pandas",
        )
    )


def triangle_count_copart(sf_dir: str) -> pd.DataFrame:
    """Triangle count of the co-part graph (see
    :func:`triangle_count_edges` for the degree-oriented wedge plan)."""
    from ..stages.partial_agg import compact_nonempty

    return triangle_count_edges(compact_nonempty(copart_edges(sf_dir)))


def triangle_count_edges(undirected: rd.Dataset) -> pd.DataFrame:
    """Triangle count of a distinct (lo < hi) edge list via the
    DEGREE-ORIENTED wedge plan (VERDICT r4 item 3): edges are oriented
    src -> dst by the total order (degree, id), wedges come from ONE
    self-join of the oriented list on src (out-neighbors b, c with
    rank(b) < rank(c)), and a wedge closes iff the rank-oriented edge
    (b, c) exists — the adaptive semi join on the collision-free packed
    pair key.

    Every triangle is generated exactly once from its minimum-RANK vertex,
    so the count is identical to any other consistent orientation (the
    SQL twin's min-id plan included). The win is skew: a hub vertex of
    degree d only fans out wedges from edges where it is the LOWER-degree
    endpoint, bounding per-src wedge fan-out by O(sqrt(2m)) regardless of
    hub degree — the id-oriented plan r4 shipped could put O(d^2) wedges
    on one low-id hub (tools/skew_demo_triangles.py records the hub
    demo). Because the wedge join is a SELF-join, the oriented edge list
    is hash-bucket shuffled ONCE on src (not two tagged copies through
    bucket_hash_join — measured ~2x on the shuffle volume) and each
    bucket emits its rank-ordered out-neighbor pairs directly: segments
    sorted by (src, ddeg, dst), then all same-length segments stacked
    into one matrix and paired with a single cached triu_indices — no
    per-src Python loop over rows. ``undirected`` must be materialized
    (consumed by the degree count, the orient attach, and the closing
    semi join).

    ADAPTIVE: below its ``LOCAL_ROW_LIMITS`` entry of distinct edges
    (counted O(1) from the materialized input's metadata) the whole
    count collapses to ONE driver-local numpy pass
    (:func:`_count_triangles_numpy` — the identical orientation + wedge
    kernel; degree orientation caps wedges at O(m^1.5), ~2.8M packed
    int64 wedges or ~23 MB at 20k edges) instead of paying 3 distributed
    exchanges for a few thousand rows. Above the gate the distributed
    plan below runs unchanged (tools/skew_demo_triangles.py's 2M-edge
    hub demo exercises it)."""
    from ..stages.partial_agg import (
        add_hash_bucket,
        compact_nonempty,
        from_pandas,
    )
    from .joins import _BROADCAST_KEY_LIMIT, semi_anti_join

    full = local_table(undirected, "triangles", _EDGES)
    if full is not None:
        n = _count_triangles_numpy(
            full.column("lo").to_numpy(), full.column("hi").to_numpy()
        )
        return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})

    # kept LAZY on purpose: orient_edges_by_degree's contract is that its
    # output is cheap to re-consume (a vectorized searchsorted map over
    # the MATERIALIZED undirected edges below the vertex gate, internally
    # materialized above it), so its two consumers here (wedge bucketing,
    # closing-edge keys) re-run a cheap map, never a shuffle.
    edges = orient_edges_by_degree(undirected)

    def bucket_src(t: pa.Table) -> pa.Table:
        return add_hash_bucket(t.select(["src", "dst", "ddeg"]), ["src"], 64)

    def wedge_pairs(df: pd.DataFrame) -> pa.Table:
        # rank order within each src segment = (degree, id) ascending, so
        # positional pairs (i < j) are exactly the rank-oriented wedges
        # (b, c) with rank(b) < rank(c) — the closing edge, if present,
        # is oriented the same way
        out = _wedge_packed(
            df["src"].to_numpy(np.int64),
            df["dst"].to_numpy(np.int64),
            df["ddeg"].to_numpy(np.int64),
        )
        return from_pandas(pd.DataFrame({"pk": pd.Series(out, dtype="int64")}))

    wedges = (
        edges.map_batches(bucket_src, batch_format="pyarrow")
        .repartition(64)
        .groupby("bucket")
        .map_groups(wedge_pairs, batch_format="pandas")
    )
    # Above the key gate the semi join takes the cogroup path, which
    # probes wedges.schema() — that would re-execute the wedge groupby,
    # so materialize first (one int64 per wedge). Below it the broadcast
    # path streams the probe side exactly once: keep wedges lazy and skip
    # a whole materialize barrier. The gate condition is the closing key
    # count == the oriented edge count, known cheaply here.
    if undirected.count() > _BROADCAST_KEY_LIMIT:
        wedges = compact_nonempty(wedges)
    ekeys = edges.map_batches(
        lambda t: pa.table(
            {"pk": pa.array(
                t.column("src").to_numpy(zero_copy_only=False) * _PAIR_BASE
                + t.column("dst").to_numpy(zero_copy_only=False),
                pa.int64(),
            )}
        ),
        batch_format="pyarrow",
    )
    n = semi_anti_join(wedges, ekeys, on="pk", assume_distinct=True).count()
    return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})


# --- BFS hop distance ------------------------------------------------------

BFS_SEED = 0
BFS_MAX_HOPS = 3


def bfs_hops(
    edges: rd.Dataset, seed: int = BFS_SEED, k: int = BFS_MAX_HOPS
) -> pd.DataFrame:
    """Hop distance of every node within ``k`` hops of ``seed`` over an
    undirected (lo, hi) edge list — the frontier-expansion member of
    the graph family (pagerank = full propagation, components = label
    consensus, triangles = wedge closing, BFS = level sets). Emits
    (node, dist), dist 0..k, sorted by node.

    Scale shape (the iterative-join plan): per hop, neighbors of the
    frontier come from ONE adaptive semi join of the symmetric edge
    table against the frontier (broadcast below the key gate, marker
    cogroup join above — `semi_anti_join`), folded to distinct by one
    bucketed grouped count, then an anti join against the visited set
    drops known nodes. Frontier and visited STAY Datasets; the driver
    sees only the per-hop row counts and the final (node, dist) result
    (which IS the query output). k is a constant, so the plan is k
    sequential rounds — the same unrolled shape the SQL twin states.
    Below its ``LOCAL_ROW_LIMITS`` entry of edges the same frontier
    expansion runs driver-local on the pulled (lo, hi) arrays (the sf0.1
    co-part graph is ~3k edges, where three distributed semi/anti rounds
    are pure fixed overhead)."""
    from .joins import semi_anti_join

    edges = edges.materialize()

    full = local_table(edges, "bfs", _EDGES)
    if full is not None:
        lo = full.column("lo").to_numpy()
        hi = full.column("hi").to_numpy()
        rows_n = [np.array([seed], dtype=np.int64)]
        rows_d = [np.array([0], dtype=np.int64)]
        visited = np.array([seed], dtype=np.int64)
        frontier = visited
        for h in range(1, k + 1):
            nbrs = np.unique(np.concatenate([
                hi[np.isin(lo, frontier)], lo[np.isin(hi, frontier)]
            ])) if frontier.size else np.empty(0, dtype=np.int64)
            nbrs = nbrs[~np.isin(nbrs, visited)]
            if nbrs.size == 0:
                break
            rows_n.append(nbrs)
            rows_d.append(np.full(nbrs.size, h, dtype=np.int64))
            visited = np.union1d(visited, nbrs)
            frontier = nbrs
        out = pd.DataFrame({
            "node": np.concatenate(rows_n).astype(np.int64),
            "dist": np.concatenate(rows_d).astype(np.int64),
        })
        return out.sort_values("node").reset_index(drop=True)

    def sym(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        return pa.table(
            {"src": pa.array(np.concatenate([lo, hi]), pa.int64()),
             "dst": pa.array(np.concatenate([hi, lo]), pa.int64())}
        )

    edges_sym = edges.map_batches(sym, batch_format="pyarrow").materialize()

    seed_tbl = pa.table({"node": pa.array([seed], pa.int64())})
    frontier_ds = rd.from_arrow(seed_tbl).materialize()
    visited_ds = rd.from_arrow(seed_tbl).materialize()
    levels = [pd.DataFrame({"node": pd.Series([seed], dtype="int64"),
                            "dist": pd.Series([0], dtype="int64")})]
    for h in range(1, k + 1):
        nb = semi_anti_join(
            edges_sym, frontier_ds, on="src", assume_distinct=True
        )
        nxt = grouped_agg(
            nb.select_columns(["dst"]), ["dst"], count_alias=None
        ).map_batches(
            lambda t: t.rename_columns(["node"]), batch_format="pyarrow"
        )
        nxt = semi_anti_join(
            nxt, visited_ds, on="node", anti=True, assume_distinct=True
        ).materialize()
        if nxt.count() == 0:
            break
        lv = nxt.to_pandas()  # the result adapter: output-sized per hop
        lv["dist"] = np.int64(h)
        levels.append(lv.astype({"node": "int64", "dist": "int64"}))
        frontier_ds = nxt
        visited_ds = visited_ds.union(nxt).materialize()
    out = pd.concat(levels, ignore_index=True)
    return out.sort_values("node").reset_index(drop=True)


# --- label propagation (communities) ---------------------------------------

LP_ROUNDS = 3


def _lp_round_local(lo: np.ndarray, hi: np.ndarray,
                    nodes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One synchronous LPA round on packed arrays: every node takes the
    most frequent label among its neighbors' PREVIOUS labels, ties to
    the smallest label — the shared kernel of the local path and the
    distributed per-bucket argmax (same (count desc, label asc) rule)."""
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    # nodes is sorted (np.unique) — positional lookup via searchsorted
    lab = labels[np.searchsorted(nodes, src)]
    d = np.searchsorted(nodes, dst).astype(np.int64)
    # (dst, lab) counts via packed unique over POSITIONS: labels are node
    # ids, so packing their index into the sorted nodes keeps the key
    # below len(nodes)**2 whatever the id range, and index order is label
    # order (the smallest-label tie-break holds)
    li = np.searchsorted(nodes, lab).astype(np.int64)
    base = np.int64(len(nodes))
    u, c = np.unique(d * base + li, return_counts=True)
    du, lu = u // base, u % base
    # argmax per dst with (count desc, label asc): lexsort then first
    order = np.lexsort((lu, -c, du))
    first = np.diff(du[order], prepend=-1) != 0  # du >= 0: row 0 is first
    out = labels.copy()
    out[du[order][first]] = nodes[lu[order][first]]
    return out


def label_propagation(
    edges: rd.Dataset, rounds: int = LP_ROUNDS
) -> pd.DataFrame:
    """Synchronous label-propagation communities (Raghavan et al. 2007,
    deterministic variant) over an undirected (lo, hi) edge list:
    labels init to node ids; each round every node adopts the most
    frequent label among its neighbors' previous labels, ties broken by
    the smallest label. Emits (node, community) after ``rounds``
    rounds, nodes = every edge endpoint. The fifth graph-family shape:
    iterative MODE consensus (vs components' min consensus).

    Scale shape: per round, labels ride back onto the symmetric edge
    table via ONE partitioned bucket hash join (labels are 1 row/node —
    the pagerank state layout), each joined block shrinks to partial
    (dst, label) counts, and ONE dst-bucket pass sums them and picks
    each node's (count desc, label asc) argmax (``user_mode_type``'s
    shape). Constant rounds, so the plan is ``rounds`` sequential
    join + bucket exchanges; no task ever holds a node's full
    neighborhood beyond its grouped (dst, label) count rows."""
    from .joins import bucket_hash_join

    edges = edges.materialize()

    full = local_table(edges, "label_propagation", _EDGES)
    if full is not None:
        lo = full.column("lo").to_numpy()
        hi = full.column("hi").to_numpy()
        nodes = np.unique(np.concatenate([lo, hi]))
        labels = nodes.copy()
        for _ in range(rounds):
            labels = _lp_round_local(lo, hi, nodes, labels)
        return pd.DataFrame({"node": nodes.astype(np.int64),
                             "community": labels.astype(np.int64)})

    def sym(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        return pa.table(
            {"src": pa.array(np.concatenate([lo, hi]), pa.int64()),
             "dst": pa.array(np.concatenate([hi, lo]), pa.int64())}
        )

    edges_sym = edges.map_batches(sym, batch_format="pyarrow").materialize()
    labels = grouped_agg(
        edges_sym.select_columns(["src"]), ["src"], count_alias=None
    ).map_batches(
        lambda t: pa.table({"src": t.column("src"),
                            "lab": t.column("src")}),
        batch_format="pyarrow",
    ).materialize()  # (src=node, lab), 1 row/node

    def neighbor_counts(t: pa.Table) -> pa.Table:
        # a block's partial (dst, lab) counts: the exchange carries count
        # rows, not neighbor rows
        g = t.group_by(["dst", "lab"]).aggregate([([], "count_all")])
        return pa.table({"dst": g["dst"], "lab": g["lab"],
                         "n": g["count_all"]})

    def pick(t: pa.Table) -> dict:
        # sum the partials over each (dst, lab) run, then take each
        # node's (n desc, lab asc) first in one stable lexsort
        dst = t["dst"].to_numpy()
        dl, _ = runs(dst, t["lab"].to_numpy())
        n = np.add.reduceat(t["n"].to_numpy(), dl)
        starts, lens = runs(dst[dl])
        best = np.lexsort((-n, np.repeat(np.arange(len(starts)), lens)))
        best = dl[best[starts]]
        return {"src": dst[best], "lab": t["lab"].take(best)}

    for _ in range(rounds):
        nbl = bucket_hash_join(edges_sym, labels, on="src").map_batches(
            neighbor_counts, batch_format="pyarrow")
        labels = bucket_pass(
            nbl, ["dst"], [("dst", "ascending"), ("lab", "ascending")],
            pick, pa.schema([("src", pa.int64()), ("lab", pa.int64())]),
        ).materialize()

    out = to_pandas_typed(labels, {"src": "int64", "lab": "int64"}).rename(
        columns={"src": "node", "lab": "community"})
    return (out.astype({"node": "int64", "community": "int64"})
            .sort_values("node").reset_index(drop=True))
