"""Parquet compaction — the small-files problem at the sink side.

A 100-TB pipeline's partitioned writes accumulate many small files
(one per task per partition); downstream scans then pay per-file open
and row-group overhead. Compaction rewrites a parquet directory into
files of ~target_rows each WITHOUT changing the data.

Reference analog: the reference's result sink writes one file per
worker (SURVEY.md §2.1 S5); this is the maintenance pass that layout
needs at scale.
"""

from __future__ import annotations

import ray.data as rd

from ..pqread import parquet_files, require_new_sink
from ..pqread import read_parquet as _read_parquet


def compact_parquet(
    in_dir: str,
    out_dir: str,
    target_rows: int = 1_000_000,
) -> dict:
    """Rewrite ``in_dir``'s parquet files into ``out_dir`` with
    ``target_rows`` rows per output file (last file may be short).

    Scale shape: a streaming read -> repartition(ceil(n/target)) ->
    write; the only global coordination is the O(1) count, which parquet
    serves from footer metadata without scanning data. Rows are
    preserved exactly; file count drops from O(tasks x partitions) to
    O(n / target_rows)."""
    require_new_sink(out_dir, "compact_parquet")
    ds = _read_parquet(in_dir)
    n = ds.count()  # parquet metadata count: no data scan
    n_files = max(1, -(-n // target_rows))
    ds.repartition(n_files).write_parquet(out_dir)
    return {"rows": n, "files_out": len(parquet_files(out_dir)),
            "out_dir": out_dir}
