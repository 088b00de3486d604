"""One-pass table profiling: per-column row/null counts, numeric ranges
and exact distinct counts over a parquet table — the ANALYZE/profiler
staple of a data engine, shaped for scale.

Scale shape: scalar stats (n, n_null, min, max) come from ONE map-only
pass over the table — each block reduces to one tiny row per column and
the driver folds O(blocks) rows, no shuffle. Exact distinct counts are
the only all-to-all: each column gets its OWN pruned scan (total bytes
read across all columns = one full-table scan), a per-block unique cut
(the partial-dedup combiner — only distinct values ride the exchange),
then a hash-bucketed distinct. Nothing corpus-sized ever lands on the
driver.

Column semantics for min_num/max_num (documented, NULL-free by design so
the result hashes stably): integers and doubles report their numeric
min/max; timestamps report epoch microseconds; strings report the
min/max UTF-8 LENGTH (a profiler-style width statistic — string
ordering is locale-bait, length is not).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["profile_parquet"]


def _num_view(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Cast a column to the numeric view profiled by min_num/max_num."""
    t = col.type
    if pa.types.is_timestamp(t):
        # epoch MICROseconds regardless of the column's storage unit
        return col.cast(pa.timestamp("us")).cast(pa.int64())
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.utf8_length(col)
    return col


def profile_parquet(path: str) -> pd.DataFrame:
    """Profile every column of a parquet table; one row per column:
    (col, n, n_null, n_distinct, min_num, max_num), sorted by col."""
    from ..pqread import read_parquet as _read_parquet
    from ..stages.partial_agg import from_pandas, grouped_agg

    import pyarrow.parquet as pq

    names = list(pq.read_schema(path).names)

    def scalar_partial(t: pa.Table) -> pa.Table:
        rows = []
        for c in names:
            col = t.column(c)
            v = _num_view(col)
            mn = pc.min(v).as_py()
            mx = pc.max(v).as_py()
            rows.append(
                {"col": c, "n": t.num_rows, "n_null": col.null_count,
                 # empty block / all-null column: NaN sentinels fold away
                 # in the driver merge (min/max skipna)
                 "min_num": float(mn) if mn is not None else np.nan,
                 "max_num": float(mx) if mx is not None else np.nan}
            )
        return from_pandas(pd.DataFrame(rows))

    parts = (
        _read_parquet(path)
        .map_batches(scalar_partial, batch_format="pyarrow")
        .to_pandas()  # O(blocks * columns) tiny rows
    )
    if parts.empty:
        # a 0-row table yields zero blocks (the partial never runs, and
        # to_pandas returns a column-less frame): every column profiles
        # as 0 rows with an empty (NaN) range — no distinct pass needed
        return pd.DataFrame(
            {"col": sorted(names),
             "n": np.int64(0), "n_null": np.int64(0),
             "n_distinct": np.int64(0),
             "min_num": np.nan, "max_num": np.nan}
        ).reset_index(drop=True)
    scalars = parts.groupby("col", as_index=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min_num=("min_num", "min"), max_num=("max_num", "max")
    )

    def distinct_count(c: str) -> int:
        def block_unique(t: pa.Table) -> pa.Table:
            col = t.column(c).combine_chunks()
            return pa.table({c: pc.unique(col.drop_null())})

        col_ds = _read_parquet(path, columns=[c]).map_batches(
            block_unique, batch_format="pyarrow"
        )
        return grouped_agg(col_ds, [c]).count()

    scalars["n_distinct"] = [
        distinct_count(c)
        for c in scalars["col"]  # scalars is sorted by col (groupby)
    ]
    out = scalars[["col", "n", "n_null", "n_distinct", "min_num", "max_num"]].copy()
    for c in ("n", "n_null", "n_distinct"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("col").reset_index(drop=True)
