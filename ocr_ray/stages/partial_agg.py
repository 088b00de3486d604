"""Map-side partial aggregation (combiner) before a grouped shuffle.

The scale rule (SURVEY.md "Aggregation at scale"): a bare
``groupby(key).aggregate(...)`` shuffles every row; pre-reducing each
block to one row per (key, agg) first shrinks the all-to-all exchange to
the key cardinality per block. Sums/counts/min/max are algebraic, so the
final combine over partials is exact.

Every grouped stage here runs on Arrow through one exchange,
:func:`bucket_pass`: :func:`grouped_agg` (SUM / MIN / COUNT GROUP BY)
and :func:`grouped_topn` (ROW_NUMBER() <= n) are kernels over its
hash buckets, as are the streaming family's per-user windows.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .carry_scan import runs

__all__ = ["N_BUCKETS", "bucket_pass", "grouped_agg",
           "add_hash_bucket", "grouped_topn", "pin_schema", "from_pandas",
           "to_pandas_typed",
           "compact_nonempty", "contiguous_array", "split_ws",
           "LOCAL_ROW_LIMITS", "local_table", "collect_table", "pin_empty"]

# Row counts below which each gated operator runs its driver-local kernel
# on one Arrow table instead of its distributed plan: on inputs this small
# the distributed plan's dataset executions and exchanges are pure fixed
# overhead. The graph limits count edges, SemDeDup's vectors, BPE's
# distinct words, reconcile extracted spans, the rest input rows. Tests
# force the distributed plan by setting a limit to 0.
LOCAL_ROW_LIMITS = {
    "triangles": 20_000,
    "bfs": 20_000,
    "label_propagation": 20_000,
    "semdedup": 20_000,
    "nll": 50_000,
    "dsir": 50_000,
    "pmi": 50_000,
    "ppl": 50_000,
    "tfidf": 50_000,
    "snm": 50_000,
    "quantize": 50_000,
    "pca": 50_000,
    "reconcile": 50_000,
    "bpe": 200_000,
}

_gate_log = logging.getLogger("ocr_ray.gates")


def contiguous_array(col) -> pa.Array:
    """Return ``col`` (Array or ChunkedArray) as ONE offset-0 contiguous
    Array, copying only when it isn't one already.

    Why this exists: several pyarrow 16.1 kernels behave worst on
    multi-chunk / non-zero-offset inputs (and the string splitters'
    corruption bug — see :func:`split_ws` — was FIRST observed on
    concat-of-table-slices batches, the exact shape Ray Data hands a
    fused map task). Normalizing to one offset-0 chunk keeps every
    downstream kernel on the plain contiguous path that the rest of the
    engine (and four rounds of oracle gates) exercises, and lets the
    token kernels use ``.values``-style zero-copy access safely.
    ``pa.concat_arrays`` rebuilds fresh offset-0 buffers even for a
    single sliced input, which is exactly the guarantee needed. NOTE:
    this normalization alone does NOT neutralize the splitter bug (the
    corruption is allocator-state dependent and reproduces on verified
    offset-0 contiguous arrays); whitespace tokenization must also go
    through :func:`split_ws`."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    if not chunks:
        return pa.array([], col.type)
    if len(chunks) == 1 and chunks[0].offset == 0:
        return chunks[0]
    return pa.concat_arrays(chunks)


def split_ws(text_col) -> pa.Array:
    """Whitespace-tokenize a string Array/ChunkedArray — the engine's ONE
    tokenization entry point for every token-level operator.

    Deliberately uses the RE2 kernel (``split_pattern_regex(r'\\s+')``),
    NOT ``utf8_split_whitespace``: pyarrow 16.1's SIMD whitespace
    splitter intermittently mis-splits the final whitespace run of a
    buffer depending on allocator state — observed: ``'   '`` (the last
    string of a batch) splits to ``['', ' ']`` instead of all-empty
    tokens, and the phantom ``' '`` token then silently corrupts token
    counts / md5 buckets downstream. The corruption is memory-state
    dependent (~12% of calls in a heated pool on byte-identical input
    arrays; reproduced via the fill_null→lower→split chain over
    concat-of-table-slices batches, the exact shape Ray Data hands a
    fused map task), so no input normalization can guarantee safety.
    The RE2 kernel showed 0 corruptions under the same heated-pool
    harness AND matches the SQL twins' ``string_split_regex(text,
    '\\s+')`` token-for-token (both emit edge ``''`` tokens, which every
    consumer filters; whitespace-only strings differ from the SIMD
    splitter only in ``''`` multiplicity). ~3.5× slower on the raw
    split — accepted at this correctness-critical seam; the heavy
    kernels are dominated by hashing/unique/groupby, not the split.

    Inputs are normalized via :func:`contiguous_array` first; the
    output is always a plain offset-0 ``ListArray``."""
    return pc.split_pattern_regex(contiguous_array(text_col), r"\s+")


def compact_nonempty(ds: "rd.Dataset") -> "rd.Dataset":
    """Materialize ``ds`` and drop Ray's schema-less empty filler blocks.

    Root cause (traced in Ray 2.49, recorded for VERDICT r4 item 6): a
    grouped exchange with more sort partitions than occupied key ranges
    emits ``pa.table({})`` for every empty reduce partition
    (``ArrowBlockAccessor.merge_sorted_blocks`` builds the filler without
    the known input schema), and the streaming executor forwards empty
    bundles AROUND map tasks — no downstream UDF ever sees them, so they
    survive any number of normalizing stages and trip the "RefBundle with
    a different schema" warning once per operator per run. The fix
    possible from user space is at materialize seams: rebuild the
    materialized dataset from its non-empty block refs (zero-copy — refs
    are reused, only metadata is walked). Apply where a grouped/joined
    intermediate is materialized anyway; downstream plans then never
    carry fillers. Blocks must be Arrow, as every engine producer's are; a
    grouped producer belongs in :func:`bucket_pass`, whose kernels return
    ``pa.Table``s cast to a declared schema."""
    mat = ds.materialize()
    refs = []
    n_empty = 0
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
            else:
                n_empty += 1
    if not n_empty or not refs:
        return mat
    return rd.from_arrow_refs(refs)


def local_table(ds: "rd.Dataset", op: str, schema: pa.Schema):
    """The local-vs-distributed decision of gated operator ``op``.

    Counts ``ds`` once. At or above ``LOCAL_ROW_LIMITS[op]`` rows returns
    ``None`` (the caller runs its distributed plan); below it returns the
    rows as ONE contiguous Arrow table of ``schema.names``, or
    ``schema.empty_table()`` when no block holds rows, so every local
    kernel also sees its columns on a 0-row input. Each decision is one
    DEBUG record ``(op, n, limit, path)`` on the ``ocr_ray.gates``
    logger."""
    n = ds.count()
    limit = LOCAL_ROW_LIMITS[op]
    local = n < limit
    _gate_log.debug("%s n=%d limit=%d path=%s", op, n, limit,
                    "local" if local else "distributed")
    if not local:
        return None
    return collect_table(ds, schema)


def collect_table(ds: "rd.Dataset", schema: pa.Schema) -> pa.Table:
    """``ds`` on the driver as ONE contiguous Arrow table of
    ``schema.names``, or ``schema.empty_table()`` when no block holds
    rows.

    Only non-empty blocks are read: Ray Data 2.49 passes 0-row blocks on
    schema-less (sort fillers, map outputs), so the schema comes from the
    caller, never from the blocks. The block refs come straight from the
    executed plan: ``to_arrow_refs`` asks for the dataset schema, which
    a schema-less leading block turns into a second, ``limit(1)``
    execution of the whole plan."""
    import ray
    from ray.data.block import BlockAccessor

    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    tabs = [BlockAccessor.for_block(b).to_arrow().select(schema.names)
            for b in ray.get(refs)]
    if not tabs:
        return schema.empty_table()
    return pa.concat_tables(tabs).combine_chunks()


def pin_empty(ds: "rd.Dataset", schema: pa.Schema) -> "rd.Dataset":
    """``ds`` materialized, or a 0-row Dataset of ``schema`` when ``ds``
    holds no rows.

    Ray Data 2.49 never calls a map UDF on a 0-row block and passes the
    block on schema-less, so a distributed plan fed no rows (or filtering
    all of them away) ends without its columns. Materializing costs no
    extra execution: the caller reads the result once either way."""
    ds = ds.materialize()
    return ds if ds.count() else rd.from_arrow(schema.empty_table())


def to_pandas_typed(ds: "rd.Dataset", cols: dict) -> pd.DataFrame:
    """``ds.to_pandas()`` that survives an all-empty Dataset.

    Ray 2.49's ``to_pandas()`` returns a COLUMN-LESS frame whenever the
    dataset holds zero rows — even when every (empty) block carries a
    schema — so driver merges that index columns crash on legitimately
    empty results (no duplicate pairs, no matches, 0-row source). This
    pins the empty case to a typed frame (``cols``: name -> pandas
    dtype) and leaves non-empty results untouched."""
    df = ds.to_pandas()
    if df.empty and not all(c in df.columns for c in cols):
        return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in cols.items()})
    return df


def from_pandas(df: pd.DataFrame) -> pa.Table:
    """``pa.Table.from_pandas`` minus the ``b'pandas'`` schema metadata.

    That metadata embeds a dict, which makes the Arrow schema unhashable —
    Ray's block-schema deduplication then fails (``Failed to hash the
    schemas`` warned on every block) and every block ships its own schema
    copy. Every pandas->Arrow producer in the engine goes through here."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def pin_schema(cols: dict):
    """Batch normalizer pinning map_groups output to a fixed schema.

    An empty sort partition passes through ``groupby().map_groups`` with
    its INPUT schema (Ray Data 2.49); a grouped pipeline with pandas
    kernels therefore normalizes blocks before the result feeds another
    shuffle or to_pandas. (:func:`bucket_pass` kernels cast their own
    output to a declared schema and the driver reads it with
    :func:`collect_table`.) ``cols`` maps column name -> pandas
    dtype string; EMPTY blocks missing any output column are replaced by
    a typed empty frame, non-empty blocks are dtype-pinned (an empty-side
    pandas concat inside the shuffle can promote int64 -> float64, which
    must not leak to the result), and a NON-empty block missing a column
    raises — that is a genuine upstream schema bug, not pass-through
    noise."""
    import pandas as pd

    def norm(df: "pd.DataFrame") -> "pd.DataFrame":
        missing = [c for c in cols if c not in df.columns]
        if missing:
            if len(df):
                raise ValueError(
                    f"pin_schema: non-empty block missing columns {missing}; "
                    f"got {list(df.columns)}"
                )
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in cols.items()}
            )
        return df[list(cols)].astype(cols)

    return norm


def add_hash_bucket(t: pa.Table, keys: list[str], n_buckets: int) -> pa.Table:
    """Append a deterministic ``bucket`` column = hash(keys) % n_buckets.

    Uses pd.util.hash_array (process-independent) — builtin hash() is
    salted per worker and would scatter one key across buckets.

    Also strips schema metadata: Ray's pandas->Arrow block conversion
    (feeding a ``batch_format="pyarrow"`` stage from a pandas-block
    producer like map_groups) re-attaches the ``b'pandas'`` metadata
    dict, which makes the schema unhashable and defeats Ray's
    block-schema dedup in the downstream sort's reduce tasks. Every
    bucketed shuffle funnels through here, so this is the one choke
    point that keeps exchange blocks hashable.

    A null in an integer or boolean key column is hashed as 0 / False:
    ``to_numpy`` would turn that block's column into float64 or object,
    whose hashes differ from the same values in a block without nulls."""
    if t.schema.metadata:
        t = t.replace_schema_metadata(None)
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for k in keys:
        col = t.column(k)
        if col.null_count and (pa.types.is_integer(col.type)
                               or pa.types.is_boolean(col.type)):
            col = col.fill_null(pa.scalar(0).cast(col.type))
        v = pd.util.hash_array(
            col.to_numpy(zero_copy_only=False), categorize=False
        )
        h = h * np.uint64(1099511628211) + v
    bucket = ((h * np.uint64(2654435761)) % np.uint64(n_buckets)).astype(np.int64)
    if "bucket" in t.column_names:
        # an empty pass-through block from an UPSTREAM bucketed groupby
        # still carries its old bucket column; appending would create a
        # duplicate field name and break the next groupby's sort
        t = t.drop_columns(["bucket"])
    return t.append_column("bucket", pa.array(bucket))


# buckets of every bucket pass: a coarse key, because a per-KEY
# map_groups pays ~1 ms per group, fatal at 10^9 keys
N_BUCKETS = 64


def bucket_pass(ds: rd.Dataset, keys: list[str], order: list[tuple[str, str]],
                fn, schema: pa.Schema | None = None) -> rd.Dataset:
    """The engine's one grouped exchange: hash ``keys`` into ``N_BUCKETS``
    buckets, exchange once, and call ``fn`` on each bucket as one
    ``pa.Table`` stably sorted by ``order`` (``Table.sort_by`` keys; an
    empty order leaves it unsorted), so each key's rows are contiguous
    when ``order`` leads with the keys. ``fn`` returns a table or a dict
    of columns; its output is selected and cast to ``schema`` when one is
    given."""

    def kernel(t: pa.Table) -> pa.Table:
        out = pa.table(fn(t.sort_by(order) if order else t))
        return out if schema is None else out.select(schema.names).cast(schema)

    return (
        ds.map_batches(lambda t: add_hash_bucket(t, keys, N_BUCKETS),
                       batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(kernel, batch_format="pyarrow")
    )


def _group_by(t: pa.Table, keys: list[str], aggs: list[tuple]) -> pa.Table:
    """``t`` grouped by ``keys`` as ``keys`` + one column per
    ``(column, function, name)`` of ``aggs``. Single-threaded, so a float
    sum adds its values in one fixed order."""
    g = t.group_by(keys, use_threads=False).aggregate([a[:2] for a in aggs])
    cols = {k: g[k] for k in keys}
    for c, f, name in aggs:
        cols[name] = g[f"{c}_{f}" if c else f]
    return pa.table(cols)


def grouped_agg(
    ds: rd.Dataset,
    keys: list[str],
    sum_cols: list[str] = (),
    count_alias: str | None = "n",
    min_cols: list[str] = (),
) -> rd.Dataset:
    """``SELECT keys, SUM(sum_cols), MIN(min_cols), COUNT(*) AS
    count_alias ... GROUP BY keys`` (no count column when ``count_alias``
    is None): one row per key, in no particular order, with SQL's rules —
    a null key is a group of its own, and a sum or min over only nulls is
    null.

    Each block first shrinks to one row per key it holds (sums, counts
    and mins are algebraic, so the partials combine exactly); the bucket
    pass then finishes each bucket with one more ``group_by``. Shuffling
    on ``hash(keys) % N_BUCKETS`` sorts a 64-value int column instead of
    the key columns, and a hot key costs one partial row per block."""
    partial = ([(c, "sum", c) for c in sum_cols]
               + [(c, "min", c) for c in min_cols])
    final = list(partial)
    if count_alias:
        partial.append(([], "count_all", count_alias))
        final.append((count_alias, "sum", count_alias))
    return bucket_pass(
        ds.map_batches(lambda t: _group_by(t, keys, partial),
                       batch_format="pyarrow"),
        keys, [], lambda t: _group_by(t, keys, final),
    )


def grouped_topn(
    ds: rd.Dataset,
    group: str,
    order: list[tuple[str, str]],
    n: int,
    schema: pa.Schema,
    prep=None,
) -> rd.Dataset:
    """Grouped top-n: ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY
    order) <= n`` as ``schema``'s columns plus ``rank`` (int64, 1..n).
    ``order`` holds ``Table.sort_by`` keys, and ties keep input order;
    ``prep``, if set, derives transient sort columns from each block's
    ``pa.Table`` first (e.g. a key hash).

    Each block first cuts to its own top-n per group (at most n rows per
    group per block ride the exchange — the partial top-k idiom); the
    bucket pass then makes the same cut per bucket over one sorted table,
    never a per-group map_groups."""
    by = [(group, "ascending")] + list(order)
    carry = list(dict.fromkeys(schema.names + [c for c, _ in by]))

    def cut(t: pa.Table) -> pa.Table:
        # rank within each run of the (sorted) group column; dictionary
        # codes make a null group one run, where NaN != NaN would not
        codes = (t[group].combine_chunks()
                 .dictionary_encode(null_encoding="encode").indices)
        starts, lens = runs(codes.to_numpy(zero_copy_only=False))
        rank = np.arange(t.num_rows) - np.repeat(starts, lens) + 1
        top = rank <= n
        return t.filter(top).append_column("rank", pa.array(rank[top]))

    def partial(t: pa.Table) -> pa.Table:
        if prep is not None:
            t = prep(t)
        return cut(t.sort_by(by)).select(carry)

    return bucket_pass(ds.map_batches(partial, batch_format="pyarrow"),
                       [group], by, cut,
                       schema.append(pa.field("rank", pa.int64())))
