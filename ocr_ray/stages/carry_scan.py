"""The shared sorted carry-scan: one global sort, then a per-block pass
that sees the state carried in from every block before it.

    materialize -> repartition(nblocks) -> sort(keys)      # one wide shuffle
    pass 1: each sorted block -> ONE summary (first-row key, block_stat)
    driver: fold the summaries in key order; carry_in[block] = state
            before the block; O(blocks) state at any corpus size
    pass 2: apply_fn(block, carry_in, final state) per block

Sorted blocks are disjoint key ranges, so a block's first-row key both
names the block and orders it — no ``preserve_order`` needed. Callers'
key sets are unique per row, so first-row keys never collide.

Used by span reconciliation above its local row limit
(``reconcile_sorted``), the global ranks and running minimum of the
training replay, and the rank-based relational queries (quantile picks,
global decile, Pareto crossing).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

__all__ = ["cluster_cpus", "runs", "run_starts", "sorted_carry_scan", "group_ordinal_scan"]


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster (8 before Ray starts): the block
    count of every one-block-per-CPU stage."""
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start index, length) of each run of rows equal on all ``keys``."""
    n = len(keys[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, n))


def run_starts(values: np.ndarray) -> np.ndarray:
    """Start index of every run of equal adjacent values."""
    return runs(values)[0]


def sorted_carry_scan(
    ds: rd.Dataset,
    keys: list[str],
    block_stat: Callable[[pa.Table], Any],
    init: Any,
    fold: Callable[[Any, Any], Any],
    apply_fn: Callable[[pa.Table, Any, Any], pa.Table],
    *,
    descending: list[bool] | None = None,
    nblocks: int | None = None,
) -> rd.Dataset:
    """Sort ``ds`` by ``keys`` (``descending`` per key) and return
    ``apply_fn(block, carry, final)`` over every sorted block: ``carry`` is
    ``init`` folded with ``block_stat`` of every earlier block, ``final``
    the fold over all blocks. Empty blocks (possibly schema-less) get
    ``carry=None``; a zero-row input skips the sort and returns
    ``apply_fn`` of one typed empty input block, so the output keeps its
    columns."""
    desc = list(descending) if descending else [False] * len(keys)
    ds = ds.materialize()
    if ds.count() == 0:
        # the sort and map_batches drop the schema of empty blocks: apply
        # to one typed empty input block on the driver instead
        empty = next((t for t in ray.get(ds.to_arrow_refs()) if t.num_columns), None)
        return ds if empty is None else rd.from_arrow(apply_fn(empty, None, init))
    sorted_ds = (
        ds.repartition(nblocks or cluster_cpus())
        .sort(keys, descending=desc)
        .materialize()
    )

    def first_key(t: pa.Table) -> tuple:
        return tuple(t.column(k)[0].as_py() for k in keys)

    def summarize(t: pa.Table) -> pa.Table:
        # stats are arbitrary Python values: ship them pickled
        rows = [pickle.dumps((first_key(t), block_stat(t)))] if t.num_rows else []
        return pa.table({"summary": pa.array(rows, pa.binary())})

    summ = sorted_ds.map_batches(
        summarize, batch_size=None, batch_format="pyarrow"
    ).to_pandas()  # one row per non-empty block
    blocks = [pickle.loads(b) for b in summ.get("summary", [])]
    for i in reversed(range(len(keys))):  # stable sorts, last key first
        blocks.sort(key=lambda b: b[0][i], reverse=desc[i])
    state, carry_in = init, {}
    for key, stat in blocks:
        carry_in[key] = state
        state = fold(state, stat)
    ref = ray.put((carry_in, state))

    def apply_block(t: pa.Table) -> pa.Table:
        carry_in, final = ray.get(ref)
        return apply_fn(t, carry_in[first_key(t)] if t.num_rows else None, final)

    return sorted_ds.map_batches(apply_block, batch_size=None,
                                 batch_format="pyarrow")


def group_ordinal_scan(
    ds: rd.Dataset,
    keys: list[str],
    apply_fn: Callable[[pa.Table, np.ndarray], pa.Table],
    *,
    nblocks: int | None = None,
) -> rd.Dataset:
    """Sort ``ds`` by ``keys`` and return ``apply_fn(block, seq)`` per
    block, where ``seq`` is each row's 0-based ordinal within its
    ``keys[0]`` group in sort order (empty for an empty block).

    The sort makes every group contiguous, so only a block's first run
    can continue a group from earlier blocks: the carry is just (leading
    key, running count) of the last run seen."""
    group = keys[0]

    def group_runs(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = t.column(group).to_numpy(zero_copy_only=False)
        return (g, *runs(g))

    def stat(t: pa.Table) -> tuple:
        g, _, lens = group_runs(t)
        return g[0], int(lens[0]), g[-1], int(lens[-1]), len(lens)

    def fold(carry: tuple, s: tuple) -> tuple:
        first, n_first, last, n_last, n_runs = s
        cont = carry[1] if n_runs == 1 and first == carry[0] else 0
        return last, n_last + cont

    def apply(t: pa.Table, carry, _final) -> pa.Table:
        if t.num_rows == 0:
            return apply_fn(t, np.zeros(0, dtype=np.int64))
        g, starts, lens = group_runs(t)
        seq = np.arange(len(g), dtype=np.int64) - np.repeat(starts, lens)
        if g[0] == carry[0]:
            seq[: lens[0]] += carry[1]
        return apply_fn(t, seq)

    return sorted_carry_scan(ds, keys, stat, (None, 0), fold, apply,
                             nblocks=nblocks)
