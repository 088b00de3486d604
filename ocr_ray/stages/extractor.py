"""Extraction stages: the scorer/proposer/decoder chain as Ray Data
operators (A1/A2/A4/A5/M4-M10/D1-D2 analogs, SURVEY.md §2).

Two granularities:

- ``extract_batch_counted`` — the fused per-batch core of the production
  pipeline (``ocr_ray.pipelines.extract.extract_spans`` maps it as a
  stateless task): normalized turn batch in -> flat span rows out, one
  pass per turn, no intermediate serialization. The per-turn work calls
  the shared semantic core (ocr_ray.extract), which guarantees parity
  with the oracle; rule tables and regexes load once per worker at
  import.
- ``score_units_batch`` — the standalone scorer stage (A1 analog, a
  stateless task like the fused core) that emits the dense unit/score
  table, used by operator-level conformance tests and the fixture
  queries (FIXTURES.md §3).
"""

from __future__ import annotations

import pyarrow as pa

from ..extract import extract_turn, propose_spans, score_units
from ..segment import segment

__all__ = ["extract_batch_counted", "score_units_batch"]

SPAN_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("span_idx", pa.int32()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("text", pa.string()),
        ("score", pa.float64()),
    ]
)

UNIT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("unit_idx", pa.int32()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("geo_start", pa.int64()),
        ("geo_end", pa.int64()),
        ("tag", pa.string()),
        ("score", pa.float64()),
    ]
)


def extract_batch_counted(batch: pa.Table, counters: dict[str, int]) -> pa.Table:
    """The fused per-batch extraction core shared by the span pass and
    :func:`metrics_batch`: normalized turn batch in -> flat span rows
    out, with every deterministic drop and dead-lettered row recorded in
    ``counters``."""
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()

    out_conv: list[str] = []
    out_turn: list[int] = []
    out_sidx: list[int] = []
    out_start: list[int] = []
    out_end: list[int] = []
    out_text: list[str] = []
    out_score: list[float] = []

    for cid, tix, text in zip(conv_ids, turn_idxs, texts):
        if not text:
            counters["empty_payloads"] = counters.get("empty_payloads", 0) + 1
            continue
        try:
            spans = extract_turn(text, counters)
        except Exception:  # noqa: BLE001 — dead-letter, never kill the task
            # per-row error capture: the reference's blanket try/except
            # kills the whole generator (DataGen.py:576-580); the engine
            # drops the single row and counts it instead
            counters["error_rows"] = counters.get("error_rows", 0) + 1
            continue
        for span in spans:
            out_conv.append(cid)
            out_turn.append(tix)
            out_sidx.append(span["span_idx"])
            out_start.append(span["start"])
            out_end.append(span["end"])
            out_text.append(span["text"])
            out_score.append(span["score"])

    return pa.Table.from_arrays(
        [
            pa.array(out_conv, pa.string()),
            pa.array(out_turn, pa.int32()),
            pa.array(out_sidx, pa.int32()),
            pa.array(out_start, pa.int64()),
            pa.array(out_end, pa.int64()),
            pa.array(out_text, pa.string()),
            pa.array(out_score, pa.float64()),
        ],
        schema=SPAN_SCHEMA,
    )


def score_units_batch(batch: pa.Table) -> pa.Table:
    """Standalone dense-unit scorer (A1 analog): turn batch in -> exploded
    unit table with per-unit geometry and confidence."""
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()
    kinds = (
        batch.column("kind").to_pylist()
        if "kind" in batch.column_names
        else [None] * len(texts)
    )

    rows: dict[str, list] = {k: [] for k in UNIT_SCHEMA.names}
    for cid, tix, text, kind in zip(conv_ids, turn_idxs, texts, kinds):
        if not text:
            continue
        units = segment(text, kind)
        n = len(units)
        rows["conv_id"] += [cid] * n
        rows["turn_idx"] += [tix] * n
        rows["unit_idx"] += range(n)
        rows["start"] += units.start
        rows["end"] += units.end
        rows["geo_start"] += units.geo_start
        rows["geo_end"] += units.geo_end
        rows["tag"] += units.tag
        rows["score"] += score_units(units).tolist()
    return pa.Table.from_arrays(
        [pa.array(rows[f.name], f.type) for f in UNIT_SCHEMA],
        schema=UNIT_SCHEMA,
    )


NESTED_SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("span_idx", pa.int32()),
            ("start", pa.int64()),
            ("end", pa.int64()),
            ("text", pa.string()),
            ("score", pa.float64()),
        ]
    )
)


def nested_spans_batch(batch: pa.Table) -> pa.Table:
    """Nested-column variant of the extractor (SURVEY §1.2: keep spans as a
    ``list<struct>`` column per turn to avoid any parent join, J1): one row
    per turn with its spans nested, plus the per-turn concatenated
    extracted text (the north rule's per-turn text-equality artifact)."""
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()
    nested: list[list[dict]] = []
    concat: list[str] = []
    for text in texts:
        spans = extract_turn(text) if text else []
        nested.append(spans)
        concat.append(" ".join(s["text"] for s in spans if s["text"]))
    return pa.Table.from_arrays(
        [
            pa.array(conv_ids, pa.string()),
            pa.array(turn_idxs, pa.int32()),
            pa.array(nested, NESTED_SPAN_TYPE),
            pa.array(concat, pa.string()),
        ],
        names=["conv_id", "turn_idx", "spans", "turn_text"],
    )


def metrics_batch(batch: pa.Table) -> pa.Table:
    """Counter form of the production extractor: runs
    :func:`extract_batch_counted` over a turn batch and emits one
    (reason, count) row per counter — turns_in, empty_payloads,
    error_rows, spans_out and every deterministic drop (SURVEY.md §7.4
    'silent-drop semantics ... deterministic and logged').
    ``ocr_ray.pipelines.extract.extract_metrics_totals`` maps it and sums
    the rows per reason."""
    counters = {"turns_in": batch.num_rows, "empty_payloads": 0, "error_rows": 0}
    counters["spans_out"] = extract_batch_counted(batch, counters).num_rows
    return pa.table({"reason": list(counters),
                     "count": pa.array(list(counters.values()), pa.int64())})


def propose_only(batch: pa.Table) -> pa.Table:
    """Stateless propose/NMS/order stage (M4-M8 + D1/D2) without decode —
    for conformance fixtures: turn batch in -> (start, end, score) spans."""
    from ..textnorm import normalize_text

    rows: dict[str, list] = {
        "conv_id": [], "turn_idx": [], "span_idx": [],
        "start": [], "end": [], "score": [],
    }
    for cid, tix, text in zip(
        batch.column("conv_id").to_pylist(),
        batch.column("turn_idx").to_pylist(),
        batch.column("text").to_pylist(),
    ):
        norm = normalize_text(text or "")
        units = segment(norm)
        spans = propose_spans(units, score_units(units), len(norm)) if units else []
        for i, (s, e, sc) in enumerate(spans):
            rows["conv_id"].append(cid)
            rows["turn_idx"].append(tix)
            rows["span_idx"].append(i)
            rows["start"].append(s)
            rows["end"].append(e)
            rows["score"].append(sc)
    return pa.Table.from_pydict(rows)
