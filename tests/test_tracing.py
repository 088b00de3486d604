"""The traced kernel run of extractbench (``--trace 1``) without Ray: every
name it rebinds must still be the one the extractor calls, and it must
batch turns as the production pipeline does."""

import pyarrow.parquet as pq

from ocr_ray.corpus import turns_table_for_convs

KERNEL_SPANS = [
    "stages.extract_batch_counted", "extract.extract_turn",
    "textnorm.normalize_text", "segment.detect_kind", "segment.segment",
    "extract.score_units", "extract.propose_spans", "spanlib.nms_locality",
    "extract.decode_span",
]


def test_kernel_job_records_every_rebound_name(tmp_path):
    from extractbench import tracing

    from ocr_ray.pipelines import extract

    assert tracing.BATCH_ROWS == extract.BATCH_ROWS

    table = turns_table_for_convs(list(range(6)))
    path = str(tmp_path / "turns.parquet")
    pq.write_table(table, path)
    tracer = tracing.Tracer()
    counters = tracing.kernel_job(tracer, path)

    called = {s[0] for s in tracer.spans if s}
    assert [n for n in KERNEL_SPANS if n not in called] == []
    for key in ("segment.units", "spanlib.nms_locality.proposals_in",
                "extract.decode_span.calls"):
        assert tracer.counts[key] > 0, key
    assert counters["turns_in"] == table.num_rows
    assert counters["spans_out"] > 0

