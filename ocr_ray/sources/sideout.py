"""Single-pass split writes — the dead-letter / quarantine pattern.

A 100-TB cleaning pass cannot afford to scan twice just to separate
rows that fail validation. Ray Data operators have one output stream,
so the second stream is written AS A SIDE EFFECT inside the map task:
each batch's failing rows go straight to a parquet part file in the
quarantine directory, and only the passing rows continue down
the (streaming) pipeline to the main sink.

Reference analog: the reference drops malformed annotations silently
(SURVEY.md §2.2 M9/M11); the engine's extraction counters
(``extract_metrics_totals``) count them — this keeps the rows
themselves for triage.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..pqread import parquet_files, require_new_sink


def _write_bad_part(t: pa.Table, mask, bad_dir: str) -> None:
    """Write the rows of ``t`` where ``mask`` is False to one part file
    named by a digest of those rows and their positions in ``t``, via a
    temp file and a rename: a retried task rewrites the same file, whole,
    instead of adding a duplicate. Two batches whose bad rows are equal
    at the same positions of equally long batches share one part."""
    bad_mask = pc.fill_null(pc.invert(mask), False)
    bad = t.filter(bad_mask)
    if not bad.num_rows:
        return
    buf = pa.BufferOutputStream()
    pq.write_table(bad, buf)
    data = buf.getvalue()
    h = hashlib.sha256(data)
    h.update(pc.indices_nonzero(bad_mask).to_numpy().tobytes())
    h.update(str(t.num_rows).encode())
    name = f"part-{h.hexdigest()[:32]}.parquet"
    # dot-prefixed: parquet dataset readers skip a temp file left by a crash
    tmp = os.path.join(bad_dir, f".{name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, os.path.join(bad_dir, name))


def quarantine_split(
    ds: rd.Dataset,
    pred,
    good_dir: str,
    bad_dir: str,
) -> dict:
    """One streaming pass: rows where ``pred(table) -> bool mask`` is
    True flow to ``good_dir`` via the normal parquet sink; failing rows
    are written to ``bad_dir`` from INSIDE each map task, one part per
    batch named by a digest of its failing rows, so a retried task
    overwrites its own part rather than leaving a duplicate.

    Returns counts. The good-side write is the only dataset execution.

    Both directories must start without parquet files (a re-run into the
    same dirs would double-count and duplicate rows), and on a
    multi-node cluster ``bad_dir`` must be on shared storage (each task
    writes its quarantine part locally to that path)."""
    for d in (good_dir, bad_dir):
        require_new_sink(d, "quarantine_split")
    os.makedirs(bad_dir, exist_ok=True)

    def split(t: pa.Table) -> pa.Table:
        mask = pred(t)
        _write_bad_part(t, mask, bad_dir)
        return t.filter(mask)

    good = ds.map_batches(split, batch_format="pyarrow")
    good.write_parquet(good_dir)
    import pyarrow.dataset as pads

    n_good = pads.dataset(good_dir).count_rows()
    n_bad = pads.dataset(bad_dir).count_rows() if parquet_files(bad_dir) else 0
    return {"n_good": n_good, "n_bad": n_bad,
            "good_dir": good_dir, "bad_dir": bad_dir}
