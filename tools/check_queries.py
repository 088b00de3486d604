"""Local emulation of the driver's correctness gate: run every queries()
entry and its oracle_sql() twin side-by-side on an SF dir; compare row
count, column-name set, and order-insensitive values.

Usage: python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(res, exp) -> list[str]:
    """How a query result differs from its oracle's frame: row count,
    column names, dtypes, then order-insensitive exact values. Empty
    when they match."""
    import numpy as np
    import pandas.testing as pdt

    res, exp = canon(res), canon(exp)
    if len(res) != len(exp):
        return [f"rowcount {len(res)} != {len(exp)}"]
    if list(res.columns) != list(exp.columns):
        return [f"columns {list(res.columns)} != {list(exp.columns)}"]
    # the driver's value hash is dtype-sensitive (round-3 doc_rare_terms
    # red: identical values, int64 vs float64) — assert dtype equality,
    # don't just compare stringified values
    bad = [f"{c}: {res[c].dtype}!={exp[c].dtype}"
           for c in res.columns if res[c].dtype != exp[c].dtype]
    if bad:
        return ["dtypes differ: " + ", ".join(bad)]
    res, exp = res.copy(), exp.copy()
    for c in res.columns:
        if np.issubdtype(res[c].dtype, np.number):
            res[c] = res[c].astype(float)
            exp[c] = exp[c].astype(float)
    try:
        pdt.assert_frame_equal(res, exp, check_dtype=False, check_exact=True)
    except AssertionError as e:
        return [f"values differ: {str(e)[:300]}"]
    return []


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    # data-coupled oracles (knn_ivf trains its centroid literals from the
    # graded table) must build against THIS sf dir, not their default
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows={len(res)} (rows-only, no oracle)")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        status = compare(res, exp)
        if status:
            print(f"FAIL {name}: {'; '.join(status)}")
            failures += 1
        else:
            print(f"OK   {name}: rows={len(res)} match oracle")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
