"""Metadata-clean parquet source: ``read_parquet`` with the ``b'pandas'``
schema metadata stripped inside the read task.

Parquet files written through pandas (the driver's test tables among
them) embed a ``b'pandas'`` metadata dict in the file schema. That dict
makes the Arrow schema unhashable, which defeats Ray Data's block-schema
deduplication: every block ships its own schema copy and every unify
logs ``Failed to hash the schemas (for deduplication)`` — once per read
task per run on a wide scan. Stripping the metadata per block inside the
read task (``_block_udf`` runs before the read's output-buffer concat)
keeps every downstream block hashable with zero extra operators and no
effect on column pruning / predicate pushdown.

One benign residue remains: ``_infer_schema`` (Ray 2.49,
parquet_datasource.py:783) re-attaches the file metadata to the read
op's DECLARED schema after passing the dummy block through the UDF, so
the logical read op still unifies metadata-bearing schemas once per
query (read_operator.py:111) and would log the same warning once. The
module-import logging filter below drops exactly that message — the
fallback it reports is correct, the blocks themselves are clean, and the
only other message that logger emits is an ERROR, which still passes.

The sink side shares one contract: a parquet output directory must start
without parquet files (:func:`require_new_sink`), because every writer
here adds part files next to whatever is there.
"""

from __future__ import annotations

import logging
import os

import pyarrow as pa

import ray.data as rd

__all__ = ["read_parquet", "parquet_files", "require_new_sink"]


def _strip(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


class _DropSchemaHashWarning(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
        return "Failed to hash the schemas" not in record.getMessage()


logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow").addFilter(
    _DropSchemaHashWarning()
)


class _DropEmptySizeSampleWarning(logging.Filter):
    """Ray 2.49's pandas size estimator (pandas_block.py:507) warns once
    per EMPTY pandas block with an object column — np.vectorize rejects
    size-0 samples. Empty blocks are routine here (empty sort partitions
    normalized by pin_schema / join norm_out), the estimator's fallback
    is correct, and only the size-0 variant is dropped — a genuine size
    failure on a non-empty block still logs."""

    def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        return not (
            "Error calculating size for column" in msg
            and "size 0 inputs" in msg
        )


logging.getLogger("ray.data._internal.pandas_block").addFilter(
    _DropEmptySizeSampleWarning()
)


def read_parquet(paths, *, columns=None, **kwargs) -> rd.Dataset:
    """``ray.data.read_parquet`` with per-block schema-metadata strip.

    Same signature surface as the Ray API (``columns`` pruning, extra
    kwargs pass through); every engine scan goes through here so blocks
    entering any shuffle carry hashable schemas.
    """
    return rd.read_parquet(paths, columns=columns, _block_udf=_strip, **kwargs)


def parquet_files(d: str) -> list[str]:
    """The sorted ``.parquet`` file names in directory ``d``; none when
    ``d`` does not exist."""
    if not os.path.isdir(d):
        return []
    return sorted(f for f in os.listdir(d) if f.endswith(".parquet"))


def require_new_sink(d: str, who: str) -> None:
    """Raise ``FileExistsError`` when ``d`` already holds parquet files:
    writes add part files, so a re-run into the same directory would mix
    (and duplicate) its rows with the previous run's."""
    if parquet_files(d):
        raise FileExistsError(
            f"{who}: {d} already holds parquet files; point at a new "
            "directory or remove the old output first"
        )
