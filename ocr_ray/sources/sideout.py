"""Single-pass split writes — the dead-letter / quarantine pattern.

A 100-TB cleaning pass cannot afford to scan twice just to separate
rows that fail validation. Ray Data operators have one output stream,
so the second stream is written AS A SIDE EFFECT inside the map task:
each batch's failing rows go straight to a per-task parquet part file
in the quarantine directory, and only the passing rows continue down
the (streaming) pipeline to the main sink.

Reference analog: the reference drops malformed annotations silently
(SURVEY.md §2.2 M9/M11); the engine's extraction counters
(``extract_metrics_totals``) count them — this keeps the rows
themselves for triage.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd


def quarantine_split(
    ds: rd.Dataset,
    pred,
    good_dir: str,
    bad_dir: str,
) -> dict:
    """One streaming pass: rows where ``pred(table) -> bool mask`` is
    True flow to ``good_dir`` via the normal parquet sink; failing rows
    are written to ``bad_dir`` from INSIDE each map task (uuid part
    names — concurrent tasks never collide; a retried task leaves a
    duplicate part, the same at-least-once contract as any side-effect
    sink, so quarantine consumers dedup on a key if exactness matters).

    Returns counts. The good-side write is the only dataset execution.

    Both directories must start EMPTY (write_parquet and the side writes
    append, so a re-run into the same dirs would double-count and
    duplicate rows), and on a multi-node cluster ``bad_dir`` must be on
    shared storage (each task writes its quarantine part locally to that
    path)."""
    for d in (good_dir, bad_dir):
        if os.path.isdir(d) and any(
            f.endswith(".parquet") for f in os.listdir(d)
        ):
            raise FileExistsError(
                f"quarantine_split: {d} already holds parquet files — "
                "counts and contents would mix with the previous run"
            )
    os.makedirs(bad_dir, exist_ok=True)

    def split(t: pa.Table) -> pa.Table:
        mask = pred(t)
        bad = t.filter(pa.compute.invert(mask))
        if bad.num_rows:
            pq.write_table(
                bad, os.path.join(bad_dir, f"part-{uuid.uuid4().hex}.parquet")
            )
        return t.filter(mask)

    good = ds.map_batches(split, batch_format="pyarrow")
    good.write_parquet(good_dir)
    import pyarrow.dataset as pads

    n_good = pads.dataset(good_dir).count_rows()
    n_bad = (
        pads.dataset(bad_dir).count_rows()
        if any(f.endswith(".parquet") for f in os.listdir(bad_dir))
        else 0
    )
    return {"n_good": n_good, "n_bad": n_bad,
            "good_dir": good_dir, "bad_dir": bad_dir}
