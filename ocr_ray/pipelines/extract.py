"""The flagship pipeline: transcript turns -> extracted content spans.

Engine shape (SURVEY.md §3.1 "Engine shape"):

    read_parquet(turns, pruned columns)
      -> map_batches(extract_batch_counted, task pool)  # fused score/propose/decode
      -> materialize spans
      -> reconcile: per-conversation global span ordinal span_seq (O2
         analog). Below LOCAL_ROW_LIMITS["reconcile"] spans the driver
         pulls the span table and sets span_seq = per-turn offset +
         span_idx in one Arrow join; above it ONE range sort (conv_id,
         turn_idx, span_idx) + the shared carry-scan
      -> write: below the limit the driver writes one part-00000.parquet,
         above it Ray's write_parquet

Drop and dead-letter counters come from the same fused operator:
:func:`extract_metrics_totals` maps ``metrics_batch`` (which wraps
``extract_batch_counted``) over the turns and folds its (reason, count)
rows on the driver. The resumable, per-partition layout is
``ocr_ray.state.lineage.CheckpointedExtraction``.

The extractor stage is the only payload-heavy stage. A job below the
reconcile limit is ONE Ray Data execution (read + extract +
materialize) and sorts no span row: each operator after it runs where
its input already is, on the driver. Above the limit the sort is the
one wide operation, and a skewed mega-conversation just spans more
sorted blocks. Every job writes into a new output directory and leaves
at least one typed file, also when it yields no span.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..pqread import parquet_files, require_new_sink
from ..pqread import read_parquet as _read_parquet

from ..stages.carry_scan import cluster_cpus, group_ordinal_scan, run_starts
from ..stages.extractor import SPAN_SCHEMA, extract_batch_counted, metrics_batch
from ..stages.partial_agg import local_table

__all__ = [
    "BATCH_ROWS",
    "read_turns",
    "extract_spans",
    "extract_metrics_totals",
    "turn_offsets",
    "reconcile_sorted",
    "write_spans",
    "reconcile_and_write",
    "run_extraction",
]

TURN_COLUMNS = ["conv_id", "turn_idx", "text"]

# turns per extractor batch
BATCH_ROWS = 1024

def read_turns_any(path: str, format: str = "parquet") -> rd.Dataset:
    """Multi-format turn source (S1 variants): parquet (primary), csv, or
    json-lines. CSV reads enable newlines-in-quoted-values so multi-line
    payloads round-trip."""
    if format == "parquet":
        return read_turns(path)
    if format == "csv":
        import pyarrow.csv as pcsv

        return rd.read_csv(
            path,
            parse_options=pcsv.ParseOptions(newlines_in_values=True),
        )
    if format == "json":
        return rd.read_json(path)
    raise ValueError(f"unknown format: {format}")


def training_reader(
    turns_path: str, seed: int = 42, batch_size: int = 256
):
    """Shuffled training-feed reader (O5 analog — the reference shuffles
    its manifest twice, DataGen.py:408-409, then assembles batches):
    seeded global random_shuffle -> streamed Arrow batches. Deterministic
    given (seed, input)."""
    ds = read_turns(turns_path).random_shuffle(seed=seed)
    return ds.iter_batches(batch_size=batch_size, batch_format="pyarrow")


def truncate_payloads(
    turns: rd.Dataset, max_chars: int
) -> rd.Dataset:
    """Payload windowing with recorded scale factors (M2 analog — the
    reference's aspect-preserving resize returns the ratios so box coords
    map back, DataPreprocess/imgUtil.py:4-24): truncate ``text`` to
    ``max_chars`` and record ``orig_len`` so downstream span offsets are
    interpretable against the original payload."""

    def trunc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        orig = pc.utf8_length(t["text"]).cast(pa.int64())
        clipped = pc.utf8_slice_codeunits(t["text"], 0, max_chars)
        idx = t.schema.get_field_index("text")
        out = t.set_column(idx, "text", clipped)
        return out.append_column("orig_len", orig)

    return turns.map_batches(trunc, batch_format="pyarrow")


def read_turns(path: str, roles: list[str] | None = None) -> rd.Dataset:
    """Pruned-at-the-read turn source (S1/S2 analog): only the columns the
    extraction chain needs leave storage.

    With Ray initialized the read targets ~4 blocks per CPU: enough waves
    to load-balance the heavy extract stage (payload cost varies ~2x
    between html and plain turns) without paying per-task launch overhead
    on hundreds of tiny blocks (measured sweep: 4x beats 8x at 32 CPUs).

    ``roles`` pushes a row filter down to the parquet row groups (e.g.
    extract only assistant turns without scanning user/tool payloads).
    """
    kwargs = {}
    if ray.is_initialized():
        kwargs["override_num_blocks"] = 4 * cluster_cpus()
    if roles is None:
        return _read_parquet(path, columns=TURN_COLUMNS, **kwargs)
    import pyarrow.compute as pc

    return _read_parquet(path, columns=TURN_COLUMNS + ["role"],
                         filter=pc.field("role").isin(roles), **kwargs)


def _extract_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task form of the fused extractor: the only per-worker
    state (compiled regexes, rule tables) is module-level and loads at
    import, so elastic tasks need no actor pool — no pool ramp-up,
    scheduling to every free CPU."""
    return extract_batch_counted(batch, {})


def extract_spans(turns: rd.Dataset) -> rd.Dataset:
    """Turns -> flat span rows via the fused extractor, as a stateless
    task pool (fully elastic)."""
    return turns.map_batches(
        _extract_batch, batch_format="pyarrow", batch_size=BATCH_ROWS
    )


def extract_metrics_totals(turns: rd.Dataset) -> dict[str, int]:
    """Drop and dead-letter counter totals of the extraction chain over
    ``turns``: one streaming pass of ``metrics_batch`` (the production
    extractor plus its counters, one (reason, count) row per counter and
    batch), folded on the driver. The four headline counters always
    report, even at zero."""
    totals = dict.fromkeys(
        ("turns_in", "empty_payloads", "error_rows", "spans_out"), 0)
    partials = turns.map_batches(
        metrics_batch, batch_format="pyarrow", batch_size=BATCH_ROWS
    )
    for row in partials.iter_rows():
        totals[row["reason"]] = totals.get(row["reason"], 0) + row["count"]
    return totals


def turn_offsets(spans: pa.Table) -> pa.Table:
    """Per-turn span offsets of the span rows ``spans``.

    Counts the spans of every ``(conv_id, turn_idx)``, sorts the turns,
    and returns ``(conv_id, turn_idx, offset)``: the number of spans in
    the conversation's earlier turns (an exclusive cumsum reset at every
    conversation). Raises ``ValueError`` when a turn's span count is not
    its largest ``span_idx`` + 1: ``span_seq`` = offset + ``span_idx``
    then would not be dense."""
    g = spans.group_by(["conv_id", "turn_idx"], use_threads=False).aggregate(
        [("span_idx", "count"), ("span_idx", "max")]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = g["span_idx_count"].to_numpy()
    bad = np.flatnonzero(n != g["span_idx_max"].to_numpy() + 1)
    if len(bad):
        raise ValueError(
            f"span_idx is not dense 0..k-1 in {len(bad)} turn(s), e.g. "
            f"{g['conv_id'][bad[0]]} turn {g['turn_idx'][bad[0]]}"
        )
    before = np.cumsum(n) - n
    starts = run_starts(g["conv_id"].to_numpy(zero_copy_only=False))
    first = np.repeat(before[starts], np.diff(np.append(starts, len(n))))
    return pa.table({"conv_id": g["conv_id"], "turn_idx": g["turn_idx"],
                     "offset": pa.array(before - first, pa.int64())})


def _with_seq(spans: pa.Table, seq) -> pa.Table:
    return spans.append_column("span_seq", pa.array(seq, pa.int64()))


def _assign_local(spans: pa.Table) -> pa.Table:
    """``spans`` with ``span_seq`` = its turn's offset + ``span_idx``:
    one join of the span keys with :func:`turn_offsets`, rows in input
    order."""
    rows = spans.select(["conv_id", "turn_idx"]).append_column(
        "__row", pa.array(np.arange(spans.num_rows)))
    j = rows.join(turn_offsets(spans), ["conv_id", "turn_idx"],
                  use_threads=False)
    seq = np.empty(spans.num_rows, np.int64)
    seq[j["__row"].to_numpy()] = j["offset"].to_numpy()
    return _with_seq(spans, seq + spans["span_idx"].to_numpy())


def _reconcile(spans: rd.Dataset) -> pa.Table | rd.Dataset:
    """:func:`reconcile_sorted` without the final wrap: below the
    reconcile limit (and for a job without spans) the reconciled rows as
    one driver table, at or above it the sorted dataset."""
    spans = spans.materialize()
    table = local_table(spans, "reconcile", SPAN_SCHEMA)
    if table is not None:
        return _assign_local(table)
    if spans.count() == 0:
        return _with_seq(SPAN_SCHEMA.empty_table(), [])
    return group_ordinal_scan(
        spans, ["conv_id", "turn_idx", "span_idx"], _with_seq
    )


def reconcile_sorted(spans: rd.Dataset) -> rd.Dataset:
    """Span reconciliation (the O2 stable-ordering contract inter-turn):
    each span gets ``span_seq``, its 0-based ordinal within its
    conversation under stable (turn_idx, span_idx) order.

    Below ``LOCAL_ROW_LIMITS["reconcile"]`` span rows no span row is
    sorted: ``span_idx`` runs 0..k-1 within a turn, so ``span_seq`` =
    (spans in the conversation's earlier turns) + ``span_idx``. The
    driver pulls the materialized span table whole (on one node a
    zero-copy object-store read), computes one offset per turn
    (:func:`turn_offsets`), joins it back in one Arrow kernel, and the
    result is that driver table, in input row order. At or above the
    limit, ONE range sort on (conv_id, turn_idx, span_idx) and the
    shared carry-scan
    (:func:`ocr_ray.stages.carry_scan.group_ordinal_scan`) number the
    spans with O(blocks) driver state; a mega-conversation just spans
    more sorted blocks. A job without spans returns 0 rows of
    ``SPAN_SCHEMA`` plus ``span_seq``."""
    out = _reconcile(spans)
    return rd.from_arrow(out) if isinstance(out, pa.Table) else out


def write_spans(spans: pa.Table | rd.Dataset, out_dir: str) -> None:
    """Write span rows into ``out_dir``, which must hold no parquet file
    yet (``FileExistsError`` otherwise: a re-run would duplicate every
    span). A driver table becomes ONE file, ``part-00000.parquet``; a
    dataset goes through Ray's write, and when it holds no rows the
    directory still gets one typed 0-row ``SPAN_SCHEMA`` file, so every
    finished write leaves a readable output."""
    require_new_sink(out_dir, "write_spans")
    if isinstance(spans, rd.Dataset):
        spans.write_parquet(out_dir)
        if parquet_files(out_dir):
            return
        spans = SPAN_SCHEMA.empty_table()
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(spans, os.path.join(out_dir, "part-00000.parquet"))


def reconcile_and_write(spans: rd.Dataset, out_dir: str | None = None) -> rd.Dataset:
    """:func:`reconcile_sorted` of ``spans``, written into the new
    directory ``out_dir`` if given (:func:`write_spans`). Below the
    reconcile limit the driver writes the reconciled table as one file
    and no second Ray Data execution runs; at or above it Ray writes the
    sorted dataset."""
    if out_dir is not None:
        require_new_sink(out_dir, "reconcile_and_write")
    out = _reconcile(spans)
    if out_dir is not None:
        write_spans(out, out_dir)
    return rd.from_arrow(out) if isinstance(out, pa.Table) else out


def run_extraction(turns_path: str, out_dir: str | None = None) -> rd.Dataset:
    """End-to-end: read -> extract -> reconcile (-> write if out_dir).

    Below the reconcile limit the job is ONE Ray Data execution (read,
    fused extract map, materialize); reconcile and the write of one
    ``part-00000.parquet`` run on the driver. At or above it the range
    sort and Ray's write add their executions. ``out_dir`` must be new
    or hold no parquet file (``FileExistsError``), and a job without
    spans still leaves one typed 0-row file. The resumable
    per-partition form of this job is
    ``ocr_ray.state.lineage.CheckpointedExtraction``."""
    return reconcile_and_write(extract_spans(read_turns(turns_path)), out_dir)
