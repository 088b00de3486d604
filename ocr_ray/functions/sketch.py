"""Mergeable sketches (SURVEY.md §2.5 notes the reference has none; these
are the engine's approximate-aggregate extensions, built the mergeable
way: one sketch per block inside map_batches, tiny merge at the end).

HyperLogLog (Flajolet et al. 2007) with the standard bias corrections;
register width p=12 -> 4096 registers, ~1.6% standard error.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..stages.partial_agg import from_pandas as _from_pandas
from ..stages.partial_agg import to_pandas_typed as _to_pandas_typed

__all__ = [
    "HyperLogLog",
    "hll_distinct_by_key",
    "exact_distinct_by_key",
    "misra_gries_block",
    "heavy_hitters",
    "kmv_overlap",
]


def _mix64(v: np.ndarray) -> np.ndarray:
    v = v + np.uint64(0x9E3779B97F4A7C15)
    v ^= v >> np.uint64(30)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> np.uint64(31)
    return v


class HyperLogLog:
    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add(self, values: np.ndarray) -> None:
        h = _mix64(pd.util.hash_array(np.asarray(values), categorize=False))
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        # rank = (leading zeros of the remaining 64-p bits) + 1; the or-ed
        # low bits guarantee a 1 appears within the window
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        rank = np.ones(len(h), dtype=np.uint8)
        undecided = np.ones(len(h), dtype=bool)
        msb = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        for _ in range(64 - self.p):
            top = (cur & msb) != 0
            rank = np.where(undecided & ~top, rank + 1, rank)
            undecided &= ~top
            if not undecided.any():
                break
            cur = cur << np.uint64(1)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.registers.astype(np.float64))
        if est <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                est = m * np.log(m / zeros)  # linear counting
        return float(est)


def hll_distinct_by_key(
    ds: rd.Dataset, key: str, value: str, p: int = 12
) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT value) GROUP BY key: one HLL per key per
    block (map_batches), registers merged driver-side (sketches are tiny:
    4 KiB each). Returns (key, approx_distinct)."""

    def sketch_block(t: pa.Table) -> pa.Table:
        df = t.select([key, value]).to_pandas()
        rows_k, rows_r = [], []
        for k, g in df.groupby(key, sort=False):
            h = HyperLogLog(p)
            h.add(g[value].to_numpy())
            rows_k.append(k)
            rows_r.append(h.registers.tobytes())
        return pa.Table.from_pydict({key: rows_k, "registers": rows_r})

    parts = _to_pandas_typed(
        ds.map_batches(sketch_block, batch_format="pyarrow"),
        {key: "object", "registers": "object"},
    )
    out_k, out_n = [], []
    for k, g in parts.groupby(key, sort=False):
        h = HyperLogLog(p)
        for blob in g["registers"]:
            h = h.merge(HyperLogLog(p, np.frombuffer(blob, dtype=np.uint8).copy()))
        out_k.append(k)
        out_n.append(int(round(h.estimate())))
    return (
        pd.DataFrame({key: out_k, "approx_distinct": out_n})
        .sort_values(key)
        .reset_index(drop=True)
    )


def exact_distinct_by_key(ds: rd.Dataset, key: str, value: str) -> pd.DataFrame:
    """Exact COUNT(DISTINCT value) GROUP BY key: per-block pair dedup ->
    global pair groupby -> count rows per key. The shuffle carries deduped
    (key, value) pairs, not raw rows."""
    from ray.data.aggregate import Count

    def dedup_block(t: pa.Table) -> pa.Table:
        df = t.select([key, value]).to_pandas().drop_duplicates()
        return _from_pandas(df)

    pairs = (
        ds.map_batches(dedup_block, batch_format="pyarrow")
        .groupby([key, value])
        .count()
    )

    def count_partial(t: pa.Table) -> pa.Table:
        df = t.select([key]).to_pandas()
        g = df.groupby(key, as_index=False).size()
        return pa.Table.from_pydict(
            {key: g[key].tolist(), "n": g["size"].astype("int64").tolist()}
        )

    from ray.data.aggregate import Sum

    out = (
        pairs.map_batches(count_partial, batch_format="pyarrow")
        .groupby(key)
        .aggregate(Sum("n", alias_name="n_distinct"))
    )
    out = _to_pandas_typed(out, {key: "object", "n_distinct": "int64"})
    return out.sort_values(key).reset_index(drop=True)


def misra_gries_block(terms: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """ONE vectorized Misra-Gries prune of an exact block count: keep the
    items whose count strictly exceeds the (k+1)-th largest count — the
    batch form of decrement-all-by-one, so at most k items survive.

    Guarantee: the subtracted threshold is <= n_block/(k+1) (if k+1 items
    all exceeded n_block/(k+1) they would sum past the block total), so
    every item with block frequency > n_block/(k+1) survives."""
    if len(terms) <= k:
        return terms
    thr = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    return terms[counts > thr]


_HH_SENTINEL = "\x00total"  # cannot collide with whitespace-split tokens


def heavy_hitters(ds: rd.Dataset, k: int, items_of) -> pd.DataFrame:
    """EXACT phi-heavy-hitters (phi = 1/k): every item whose corpus
    frequency strictly exceeds total/k, with its exact count — found in
    two streaming passes, never shuffling the raw item stream.

    Pass 1 runs the Misra-Gries prune per block; by the pigeonhole
    argument an item with global frequency > total/(k+1) must be
    block-heavy (> n_b/(k+1)) in at least one block, so the UNION of the
    per-block candidate sets contains every global heavy hitter — the
    approximation error lives only in the candidate set, never in the
    output. Pass 2 re-counts ONLY the candidates (plus a sentinel row
    carrying each block's item total) through a hash-bucketed grouped
    sum, and the final strict filter n*k > total makes the result exact
    and deterministic regardless of partitioning.

    Driver state: the candidate set, O(blocks * k) worst case but
    collapsed by the union (Zipfian streams repeat the same heads);
    independent of corpus size per block. ``items_of(batch)`` returns the
    block's item ndarray (e.g. word bigrams of a text column)."""
    import ray

    from ..stages.partial_agg import grouped_agg

    def cand_block(t: pa.Table) -> pa.Table:
        items = items_of(t)
        if len(items) == 0:
            return pa.Table.from_pydict({"term": pa.array([], pa.string())})
        terms, counts = np.unique(items, return_counts=True)
        keep = misra_gries_block(terms, counts, k)
        return pa.Table.from_pydict({"term": pa.array(keep, pa.string())})

    cands = (
        ds.map_batches(cand_block, batch_format="pyarrow")
        .groupby("term")
        .count()
        .select_columns(["term"])
    )
    cand_set = frozenset(cands.to_pandas()["term"])
    ref = ray.put(cand_set)

    def recount_block(t: pa.Table) -> pa.Table:
        items = items_of(t)
        cs = ray.get(ref)
        if len(items) == 0:
            terms = np.array([], dtype=object)
            counts = np.array([], dtype=np.int64)
        else:
            terms, counts = np.unique(items, return_counts=True)
        mask = np.fromiter((x in cs for x in terms), dtype=bool, count=len(terms))
        out_t = list(terms[mask]) + [_HH_SENTINEL]
        out_n = [int(c) for c in counts[mask]] + [int(len(items))]
        return pa.Table.from_pydict(
            {"term": pa.array(out_t, pa.string()),
             "n": pa.array(out_n, pa.int64())}
        )

    agg = grouped_agg(
        ds.map_batches(recount_block, batch_format="pyarrow"),
        ["term"], ["n"], count_alias="n_partials",
    ).to_pandas()  # bounded: candidates + 1 row
    total = int(agg.loc[agg["term"] == _HH_SENTINEL, "n"].iloc[0])
    out = agg[(agg["term"] != _HH_SENTINEL) & (agg["n"] * k > total)].copy()
    out["n"] = out["n"].astype(np.int64)
    if out.empty:
        return pd.DataFrame({"term": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    return out[["term", "n"]].sort_values("term").reset_index(drop=True)


# ---- HDR-histogram quantile sketch ---------------------------------------
# Integer log2 buckets with SUB_BITS linear sub-buckets per octave (the
# HdrHistogram layout): bucket assignment is PURE int64 arithmetic, so
# unlike DDSketch (float log) the SQL twin replays it exactly, while the
# sketch stays mergeable (per-block bucket counts sum) with a guaranteed
# relative error <= 2^-(SUB_BITS+1) ~= 3.1% per quantile.

HDR_SUB_BITS = 4


def hdr_bucket(v_c: np.ndarray) -> np.ndarray:
    """Bucket id for positive int64 cents (clamped to >= 1): values below
    2^SUB_BITS are their own singleton bucket; above, id = octave book
    ((e - SUB_BITS + 1) << SUB_BITS) + linear sub-bucket. Monotone in v."""
    v = np.maximum(v_c, 1)
    e = (np.frexp(v.astype(np.float64))[1] - 1).astype(np.int64)  # exact < 2^53
    sub = (v >> np.maximum(e - HDR_SUB_BITS, 0)) - (1 << HDR_SUB_BITS)
    ids = ((e - HDR_SUB_BITS + 1) << HDR_SUB_BITS) + sub
    return np.where(e < HDR_SUB_BITS, v, ids)


def hdr_rep_c(ids: np.ndarray) -> np.ndarray:
    """Representative value (cents, double) of a bucket id: the midpoint
    (2*lb + width - 1) / 2 of the bucket's integer range — singleton
    buckets decode to their exact value."""
    ids = np.asarray(ids, dtype=np.int64)
    small = ids < (1 << HDR_SUB_BITS)
    octv = np.maximum((ids >> HDR_SUB_BITS) - 1, 0)
    sub = ids & ((1 << HDR_SUB_BITS) - 1)
    width = np.where(small, 1, np.int64(1) << octv)
    lb = np.where(small, ids, (np.int64(1 << HDR_SUB_BITS) + sub) << octv)
    return (2 * lb + width - 1) / 2.0


def hdr_quantiles_by_key(
    ds: rd.Dataset, key: str, value_c_of, qs: list[tuple[int, int]]
) -> pd.DataFrame:
    """Approximate quantiles per key from the mergeable HDR sketch.

    ``value_c_of(table) -> int64 cents array``; ``qs`` are exact rational
    quantiles (num, den) — the rank is ceil(q*n) computed in INTEGER
    arithmetic ((num*n + den - 1) // den), never float, so the twin
    can't drift on decimal-vs-binary rounding.

    Scale shape: per-block (key, bucket) count partials (bucket space is
    value-range-bounded: ~16 per octave), one grouped sum, then the
    cumulative pick runs driver-side on O(keys * buckets) rows."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v_c = value_c_of(t)
        g = (
            pd.DataFrame(
                {key: t.column(key).to_pandas(), "bucket": hdr_bucket(v_c)}
            )
            .groupby([key, "bucket"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        return _from_pandas(g)

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key, "bucket"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    counts = (
        _to_pandas_typed(counts, {key: "object", "bucket": "int64", "cnt": "int64"})
        .sort_values([key, "bucket"], kind="mergesort")
    )

    rows = []
    for k, g in counts.groupby(key, sort=True):
        cnt = g["cnt"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        labels = [f"p{num * 100 // den}" for num, den in qs]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"hdr_quantiles_by_key: quantile labels collide ({labels}) "
                "— e.g. (99,100) and (999,1000) both format as p99; pass "
                "ratios with distinct integer-percent labels"
            )
        picks = {}
        for (num, den), label in zip(qs, labels):
            r = (num * n + den - 1) // den  # ceil(num*n/den), exact
            idx = int(np.searchsorted(cum, r, side="left"))
            picks[label] = float(
                hdr_rep_c(g["bucket"].to_numpy(np.int64)[idx : idx + 1])[0]
            ) / 100.0
        rows.append({key: k, "n": n, **picks})
    return pd.DataFrame(rows).reset_index(drop=True)


# ---- KMV (k-minimum-values) distinct sketch ------------------------------
# Bottom-k sketch (Bar-Yossef et al. 2002): keep the k smallest distinct
# 64-bit hashes; estimate = (k-1) * 2^64 / kth_smallest. Mergeable by
# union+cut, ~1/sqrt(k-2) relative error, and — unlike HLL's register
# floats — the whole chain (hash, k-th order statistic, one double
# division) replays EXACTLY in SQL.

KMV_K = 256


def kmv_distinct_by_key(
    ds: rd.Dataset, key: str, value: str, k: int = KMV_K
) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT value) GROUP BY key via bottom-k hashes.

    Scale shape: each block ships at most k uint64 hashes per key
    (sorted-unique cut inside map_batches); the driver merge touches
    O(keys * blocks * k) values. If the merged union holds < k hashes the
    sketch IS the exact distinct set (every block kept everything), so
    small groups come back exact — the SQL twin replays both branches."""
    mins_col = "mins"

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value]).to_pandas()
        rows_k, rows_b = [], []
        for kk, g in df.groupby(key, sort=False):
            h = _mix64(pd.util.hash_array(g[value].to_numpy(), categorize=False))
            rows_k.append(kk)
            rows_b.append(np.unique(h)[:k].tobytes())
        return pa.Table.from_pydict({key: rows_k, mins_col: rows_b})

    parts = _to_pandas_typed(
        ds.map_batches(partial, batch_format="pyarrow"),
        {key: "object", mins_col: "object"},
    )
    out_k, out_n = [], []
    for kk, g in parts.groupby(key, sort=True):
        h = np.unique(
            np.concatenate(
                [np.frombuffer(b, dtype=np.uint64) for b in g[mins_col]]
            )
        )
        if len(h) < k:
            est = float(len(h))  # union kept every hash: exact
        else:
            est = (k - 1) * 2.0**64 / float(h[k - 1])
        out_k.append(kk)
        out_n.append(int(np.floor(est + 0.5)))  # half-away (est > 0)
    return pd.DataFrame({key: out_k, "approx_distinct": pd.array(out_n, dtype="int64")})


# ---- Count-Min sketch (Cormode & Muthukrishnan 2005) ----------------------
# d independent hash rows x w counters; point estimate = min over rows of
# the counter at (j, h_j(x)). Counters only ever ADD, so the sketch is
# mergeable by elementwise sum — per-block partials ride the shuffle as at
# most d*w (j, col, n) rows regardless of block size. Always OVERestimates
# (error <= 2*total/w with probability 1 - 2^-d). Every hash is integer
# splitmix64 arithmetic, so the SQL twin replays the sketch bit-for-bit.

CMS_D = 4
CMS_W = 256  # small enough that collisions actually fire at test SF


def _cms_cols(values: np.ndarray, d: int = CMS_D, w: int = CMS_W) -> np.ndarray:
    """(d, n) int64 column indices: row j hashes with
    _mix64(_mix64(hash64(x)) + j) % w — the per-row seed is the +j before
    the second finalizer, replayed verbatim by the SQL twin."""
    base = _mix64(pd.util.hash_array(np.asarray(values), categorize=False))
    cols = np.empty((d, len(base)), dtype=np.int64)
    for j in range(d):
        cols[j] = (_mix64(base + np.uint64(j)) % np.uint64(w)).astype(np.int64)
    return cols


def cms_sketch(
    ds: rd.Dataset, value: str, d: int = CMS_D, w: int = CMS_W
) -> np.ndarray:
    """Build the (d, w) int64 Count-Min matrix of a column's occurrence
    counts. Per block: vectorized hash + ONE groupby into at most d*w
    partial rows; the merge is a coarse hash-bucketed grouped sum over
    the (j, col) key space (<= d*w rows total ride the final exchange)."""
    from ..stages.partial_agg import grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(value).to_numpy(zero_copy_only=False)
        cols = _cms_cols(v, d, w)
        df = pd.DataFrame(
            {"j": np.repeat(np.arange(d, dtype=np.int64), len(v)),
             "col": cols.ravel()}
        )
        g = df.groupby(["j", "col"], as_index=False).size()
        g["n"] = g.pop("size").astype(np.int64)
        return _from_pandas(g)

    rows = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["j", "col"], ["n"], count_alias=None,
    )
    m = np.zeros((d, w), dtype=np.int64)
    got = _to_pandas_typed(  # <= d*w rows by construction
        rows, {"j": "int64", "col": "int64", "n": "int64"}
    )
    m[got["j"].to_numpy(np.int64), got["col"].to_numpy(np.int64)] = (
        got["n"].to_numpy(np.int64)
    )
    return m


def cms_point_counts(
    ds: rd.Dataset, value: str, d: int = CMS_D, w: int = CMS_W
) -> pd.DataFrame:
    """(value, approx_n) for every DISTINCT value of the column, estimated
    from the Count-Min sketch: approx_n = min_j M[j, h_j(value)] — always
    >= the exact count, equal when the value collides with nothing in at
    least one row.

    Scale shape: the sketch matrix broadcasts once via ray.put (d*w int64
    — 8 KiB at the defaults); the distinct-value table comes from ONE
    hash-bucketed grouped count and the estimate map touches only those
    rows. Driver state is the sketch, never the stream."""
    import ray

    from ..stages.partial_agg import grouped_agg

    m_ref = ray.put(cms_sketch(ds, value, d, w))

    keys = grouped_agg(ds.select_columns([value]), [value])

    def est(t: pa.Table) -> pa.Table:
        v = t.column(value).to_numpy(zero_copy_only=False)
        cols = _cms_cols(v, d, w)
        mat = ray.get(m_ref)
        ests = mat[0, cols[0]]
        for j in range(1, d):
            ests = np.minimum(ests, mat[j, cols[j]])
        return pa.table(
            {value: pa.array(v.astype(np.int64), pa.int64()),
             "approx_n": pa.array(ests.astype(np.int64), pa.int64())}
        )

    out = _to_pandas_typed(
        keys.map_batches(est, batch_format="pyarrow"),
        {value: "int64", "approx_n": "int64"},
    )
    return out.sort_values(value).reset_index(drop=True)


# ---- KMV set-operation sketch (theta-sketch style) -------------------------
# Two bottom-k (KMV) sketches over the same hash space support set algebra
# (Dasgupta et al., "Theta-Sketch Framework"): union them, re-cut to the k
# smallest, and the k-th smallest hash tau is a sampling threshold shared
# by BOTH sides (tau <= each side's own threshold, since the union is a
# superset) — so counting union samples below tau that appear in both side
# sketches estimates the intersection without bias. Everything below is
# deterministic integer/double arithmetic on the shared splitmix chain, so
# the SQL twin replays estimates (including the exact small-set branch)
# bit-for-bit.

KMV_OVERLAP_K = 64  # small enough that the estimator path fires at test SF


def kmv_overlap(
    ds: rd.Dataset,
    key: str,
    value: str,
    type_a: str,
    type_b: str,
    k: int = KMV_OVERLAP_K,
) -> pd.DataFrame:
    """Approximate |A|, |B|, |A ∪ B| and |A ∩ B| of two value-sets keyed
    by ``key`` (e.g. users who purchase vs users who error), one row out.

    Scale shape: each block ships at most k uint64 hashes per side (the
    per-block bottom-k cut inside map_batches); the driver merge touches
    O(2 * blocks * k) values and the estimate is O(k) — no driver-side
    value set, no shuffle. If the merged union holds < k hashes both
    sides were complete and every figure comes back exact; the SQL twin
    replays both branches."""

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value]).to_pandas()
        df = df[df[key].isin([type_a, type_b])]
        rows_k, rows_b = [], []
        for kk, g in df.groupby(key, sort=False):
            h = _mix64(pd.util.hash_array(g[value].to_numpy(), categorize=False))
            rows_k.append(kk)
            rows_b.append(np.unique(h)[:k].tobytes())
        return pa.Table.from_pydict(
            {key: pa.array(rows_k, pa.string()), "mins": pa.array(rows_b, pa.binary())}
        )

    parts = _to_pandas_typed(
        ds.map_batches(partial, batch_format="pyarrow"),
        {key: "object", "mins": "object"},
    )
    sk: dict[str, np.ndarray] = {}
    for kk, g in parts.groupby(key, sort=True):
        h = np.unique(
            np.concatenate([np.frombuffer(b, dtype=np.uint64) for b in g["mins"]])
        )
        sk[kk] = h[:k]  # the side sketch IS the k smallest distinct hashes
    empty = np.array([], dtype=np.uint64)
    sa, sb = sk.get(type_a, empty), sk.get(type_b, empty)

    def est_side(h: np.ndarray) -> float:
        if len(h) < k:
            return float(len(h))  # sketch kept everything: exact
        return (k - 1) * 2.0**64 / float(h[k - 1])

    u = np.unique(np.concatenate([sa, sb]))
    if len(u) < k:
        # both sides complete -> union and intersection are exact
        n_union = float(len(u))
        n_inter = float(len(np.intersect1d(sa, sb)))
    else:
        tau = u[k - 1]
        samp = u[: k - 1]  # exactly the union samples strictly below tau
        c = int((np.isin(samp, sa) & np.isin(samp, sb)).sum())
        n_union = (k - 1) * 2.0**64 / float(tau)
        n_inter = float(c) * 2.0**64 / float(tau)

    def r(est: float) -> int:
        return int(np.floor(est + 0.5))  # half-away (est >= 0)

    return pd.DataFrame(
        {
            "approx_a": pd.array([r(est_side(sa))], dtype="int64"),
            "approx_b": pd.array([r(est_side(sb))], dtype="int64"),
            "approx_union": pd.array([r(n_union)], dtype="int64"),
            "approx_inter": pd.array([r(n_inter)], dtype="int64"),
        }
    )
