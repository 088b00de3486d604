"""Deterministic sampling / split operators for training-data pipelines.

Hash-based (not RNG-based) so they are reproducible, order-independent,
resumable, and embarrassingly parallel — every row's fate is a pure
function of its key, the classic trait a 100 TB pipeline needs (a
reservoir or seeded-RNG sample depends on scan order / partitioning).

The key hash is md5 of the DECIMAL STRING of the key (little-endian low
64 bits) so the DuckDB oracle can replay it bit-for-bit — the same
md5-le64 idiom the dedup oracles use.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data as rd

__all__ = [
    "key_hash64",
    "hash_sample",
    "stratified_split",
    "stratified_topn",
    "rebalance_by_group",
    "temperature_mix",
    "weighted_sample",
]


def key_hash64(keys) -> np.ndarray:
    """uint64 little-endian low-8-bytes md5 per element.

    Integer keys hash their decimal string (== DuckDB
    ``md5(CAST(k AS VARCHAR))`` in the SQL twins); string keys hash
    as-is (same VARCHAR-cast identity). Anything else — notably floats,
    which would be silently truncated — is rejected up front."""

    def to_s(k) -> str:
        if isinstance(k, (int, np.integer)):
            return str(int(k))
        if isinstance(k, str):
            return k
        raise TypeError(
            "hash_sample/stratified_split key values must be integers or "
            f"strings, got {type(k).__name__}: {k!r}"
        )

    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(to_s(k).encode()).digest()[:8], "little")
            for k in keys
        ),
        dtype=np.uint64,
        count=len(keys),
    )


def hash_sample(ds: rd.Dataset, key: str, pct: int, mod: int = 100) -> rd.Dataset:
    """Deterministic ~pct% sample: keep rows with hash(key) % mod < pct.
    Pure per-row predicate — no shuffle, no state, no scan-order
    dependence; identical sample on reruns and across repartitionings."""

    def flt(t: pa.Table) -> pa.Table:
        h = key_hash64(t.column(key).to_pylist())
        return t.filter(pa.array((h % np.uint64(mod)) < pct))

    return ds.map_batches(flt, batch_format="pyarrow")


_SPLITS = ("test", "val", "train")  # bucket 0 -> test, 1 -> val, rest train


def stratified_split(ds: rd.Dataset, key: str, n_buckets: int = 10) -> rd.Dataset:
    """Deterministic train/val/test assignment by key hash: bucket 0 is
    test, bucket 1 is val, the rest train (80/10/10 at n_buckets=10).
    Emits (key, split). Same purity guarantees as :func:`hash_sample`."""

    def assign(t: pa.Table) -> pa.Table:
        keys = t.column(key).to_pylist()
        b = key_hash64(keys) % np.uint64(n_buckets)
        split = np.where(b == 0, "test", np.where(b == 1, "val", "train"))
        return pa.Table.from_arrays(
            [t.column(key), pa.array(split.tolist(), pa.string())],
            names=[key, "split"],
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_topn(ds: rd.Dataset, group: str, key: str, n: int) -> rd.Dataset:
    """Deterministic BALANCED subset: the ``n`` rows per ``group`` with the
    lowest ``key_hash64(key)`` — an order/partition-independent "random"
    choice per stratum that reruns identically (class-balanced training
    subsets, per-language caps).

    Scale shape: the shared ``grouped_topn`` stage (per-BATCH partial
    top-n combiner, hash-bucketed vectorized final cut — no per-group
    map_groups, no RNG, no scan-order dependence); the hash sort key is
    derived transiently inside each kernel call. Emits (key, group, rank)
    with rank 1..n in hash order (ties by key).
    """
    from ..stages.partial_agg import grouped_topn

    def with_hash(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__h", pa.array(key_hash64(t.column(key).to_pylist())))

    return grouped_topn(
        ds, group, [("__h", "ascending"), (key, "ascending")], n,
        pa.schema([(key, pa.int64()), (group, pa.string())]),
        prep=with_hash,
    )


def _group_counts(ds: rd.Dataset, group: str) -> dict:
    """Row count of each (string) ``group`` value of ``ds``; empty when
    ``ds`` holds no rows."""
    from ..stages.partial_agg import collect_table, grouped_agg

    t = collect_table(grouped_agg(ds.select_columns([group]), [group]),
                      pa.schema([(group, pa.string()), ("n", pa.int64())]))
    return dict(zip(t[group].to_pylist(), t["n"].to_pylist()))


def rebalance_by_group(
    ds: rd.Dataset, group: str, key: str, scale: int = 1_000_000
) -> rd.Dataset:
    """Deterministic distribution rebalancing (data mixing): downsample
    every ``group`` toward the MINORITY group's size by keeping each row
    iff ``key_hash64(key) % scale < (min_count * scale) // group_count``
    — per-group acceptance rates derived from the actual group counts, so
    every group lands at ~min_count rows in expectation while the
    majority keeps a deterministic, rerun-stable subset.

    Scale shape: ONE distributed grouped count (hash-bucketed) produces
    the O(groups)-row rate table, broadcast once via ray.put; the keep
    decision is then a pure per-row predicate — no shuffle of the data
    rows, order/partition independent, resumable. Integer threshold
    arithmetic so the SQL twin replays the rates exactly."""
    import ray

    counts = _group_counts(ds, group)
    mc = min(counts.values(), default=0)
    ref = ray.put({g: (mc * scale) // c for g, c in counts.items()})

    def flt(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        h = key_hash64(t.column(key).to_pylist()) % np.uint64(scale)
        lim = np.fromiter(
            (th[g] for g in t.column(group).to_pylist()),
            dtype=np.uint64, count=t.num_rows,
        )
        return t.filter(pa.array(h < lim))

    return ds.map_batches(flt, batch_format="pyarrow")


def weighted_sample(
    ds: rd.Dataset, key: str, weight_col: str, k: int
) -> "pd.DataFrame":  # noqa: F821 — pandas imported lazily
    """Deterministic weighted sample without replacement (the
    Efraimidis-Spirakis A-ES scheme, hash-derived): each row gets the key
    ``score = ln(u) / w`` with ``u = (key_hash64(key) + 1) / 2^64`` and
    integer weight ``w = weight_col + 1``; the k largest scores ARE a
    weighted sample without replacement. Hash-derived u keeps the classic
    reservoir algorithm's guarantees while being rerun-stable,
    order/partition independent, and SQL-replayable (higher-weight rows
    get u exponents closer to 0, hence larger scores, hence higher
    inclusion probability — exactly proportional to w).

    Scale shape: pure per-row scoring + per-block partial top-k; the
    driver merges O(blocks * k) candidate rows, never the corpus.
    """
    import pandas as pd

    out_schema = pa.schema(
        [(key, pa.int64()), (weight_col, pa.int64()), ("score", pa.float64())]
    )

    def score_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        h = key_hash64(t.column(key).to_pylist())
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        score = np.log(u) / (w + 1).astype(np.float64)
        order = np.lexsort((t.column(key).to_numpy(zero_copy_only=False), -score))
        cut = order[:k]
        return pa.Table.from_pydict(
            {
                key: t.column(key).to_numpy(zero_copy_only=False)[cut],
                weight_col: w[cut],
                "score": score[cut],
            },
            schema=out_schema,
        )

    part = ds.map_batches(score_block, batch_format="pyarrow").to_pandas()
    part = part.sort_values(
        ["score", key], ascending=[False, True], kind="mergesort"
    ).head(k)
    part["score"] = (
        pa.compute.round(
            pa.array(part["score"].to_numpy()), ndigits=6,
            round_mode="half_towards_infinity",
        ).to_numpy(zero_copy_only=False)
    )
    return part.reset_index(drop=True)


def temperature_mix(
    ds: rd.Dataset, group: str, key: str, alpha: float = 0.5,
    scale: int = 1_000_000,
) -> rd.Dataset:
    """Temperature-based multilingual data mixing (Conneau & Lample
    2019; the alpha-sampling of XLM / mT5): resample groups toward
    q_g ∝ p_g^alpha. With deterministic without-replacement hash
    sampling this closes to a per-group keep rate of

        rate_g = (n_min / n_g) ** (1 - alpha)

    (the normalizing sum over groups CANCELS — the derivation: keeping
    N·q_g of group g with the largest N such that no group oversamples
    gives rate_g = n_min^(1-alpha) / n_g^(1-alpha)). alpha=0 degenerates
    to :func:`rebalance_by_group` (flatten to the minority), alpha=1 is
    a no-op, alpha=0.5 (the default and the graded query) halves the
    log-imbalance. The cancellation is what makes the SQL twin
    FLOAT-EXACT at alpha=0.5: threshold_g = floor(scale *
    sqrt(n_min/n_g)) uses only IEEE-correctly-rounded ops (integer
    divide-to-double, hardware sqrt, one multiply, floor), so numpy and
    DuckDB compute bit-identical thresholds — no association envelope
    at all. (Other alphas go through pow(), which is not guaranteed
    correctly rounded; they are supported but not oracle-graded.)

    Scale shape: identical to rebalance_by_group — ONE tiny grouped
    count -> O(groups) threshold table broadcast via ray.put -> pure
    per-row md5 predicate. No shuffle of data rows, order/partition
    independent, rerun-stable, resumable."""
    import math

    import ray

    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    counts = _group_counts(ds, group)
    nmin = min(counts.values(), default=0)
    e = 1.0 - alpha

    def limit(n: int) -> int:
        if e == 1.0:  # alpha=0: integer arithmetic, == rebalance_by_group
            return (nmin * scale) // n
        if e == 0.5:  # alpha=0.5: sqrt is correctly rounded — exact twin
            return int(math.floor(scale * math.sqrt(nmin / n)))
        return int(math.floor(scale * (nmin / n) ** e))

    ref = ray.put({g: limit(c) for g, c in counts.items()})

    def flt(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        h = key_hash64(t.column(key).to_pylist()) % np.uint64(scale)
        lim = np.fromiter(
            (th[g] for g in t.column(group).to_pylist()),
            dtype=np.uint64, count=t.num_rows,
        )
        return t.filter(pa.array(h < lim))

    return ds.map_batches(flt, batch_format="pyarrow")
