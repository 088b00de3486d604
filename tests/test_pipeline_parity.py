"""End-to-end per-turn parity: Ray Data pipeline vs the single-process
reference-semantics oracle on the deterministic synthetic corpus
(SURVEY.md §5 engine test plan; north-rule per-turn text equality)."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from ocr_ray.corpus import turns_table_for_convs
from ocr_ray.oracle import extract_table


@pytest.fixture(scope="module")
def turns_path(tmp_path_factory):
    table = turns_table_for_convs(list(range(40)))
    path = tmp_path_factory.mktemp("turns")
    pq.write_table(table, os.path.join(str(path), "turns.parquet"))
    return str(path)


def _golden(turns_path: str) -> pd.DataFrame:
    table = pq.read_table(os.path.join(turns_path, "turns.parquet"))
    rows = extract_table(table.to_pylist())
    return (
        pd.DataFrame(rows)
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("local", [True, False])
def test_pipeline_matches_oracle(ray_session, turns_path, local, monkeypatch):
    """``local``: reconcile's per-turn offsets are computed on the driver;
    otherwise (limit forced to 0) the spans are range-sorted and numbered
    by the carry-scan."""
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    if not local:
        monkeypatch.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
    spans = extract_spans(
        rd.read_parquet(turns_path, columns=["conv_id", "turn_idx", "text"])
    )
    df = (
        reconcile_sorted(spans)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    gdf = _golden(turns_path)
    assert len(df) == len(gdf)
    merged = df.merge(
        gdf, on=["conv_id", "turn_idx", "span_idx"], suffixes=("_ray", "_orc")
    )
    assert len(merged) == len(gdf)
    # exact per-turn text + offset + score equality (north rule)
    assert (merged.text_ray == merged.text_orc).all()
    assert (merged.start_ray == merged.start_orc).all()
    assert (merged.end_ray == merged.end_orc).all()
    assert (merged.score_ray == merged.score_orc).all()
    # span_seq: dense 0..n-1 per conversation under stable turn ordering
    seq_ok = (
        df.sort_values(["conv_id", "turn_idx", "span_idx"])
        .groupby("conv_id")["span_seq"]
        .apply(lambda s: (s.to_numpy() == range(len(s))).all())
    )
    assert seq_ok.all()


def test_reconcile_sorted_equals_grouped(ray_session, turns_path):
    """reconcile_sorted produces the same span_seq as a pandas groupby
    cumcount over the same spans (incl. the mega-conversation)."""
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted

    key = ["conv_id", "turn_idx", "span_idx"]
    spans = extract_spans(
        rd.read_parquet(turns_path, columns=["conv_id", "turn_idx", "text"])
    ).materialize()
    a = reconcile_sorted(spans).to_pandas().sort_values(key).reset_index(drop=True)
    b = spans.to_pandas().sort_values(key).reset_index(drop=True)
    b["span_seq"] = b.groupby("conv_id").cumcount()
    pd.testing.assert_frame_equal(
        a[key + ["span_seq"]], b[key + ["span_seq"]], check_dtype=False
    )
    assert (b.groupby("conv_id").size() > 200).any()  # mega conv present


def test_parity_at_sf_scale(ray_session):
    """Per-turn parity on the full sf0.001 corpus (220 conversations,
    every payload kind + edge variants + a mega-conversation)."""
    import pyarrow.parquet as pq2

    import ray.data as rd

    from ocr_ray.corpus import ensure_transcripts
    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted

    path = ensure_transcripts("/root/testdata/sf0.001")
    df = (
        reconcile_sorted(
            extract_spans(rd.read_parquet(path, columns=["conv_id", "turn_idx", "text"]))
        )
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    rows = []
    for f in sorted(os.listdir(path)):
        if f.endswith(".parquet"):
            rows.extend(pq2.read_table(os.path.join(path, f)).to_pylist())
    gdf = (
        pd.DataFrame(extract_table(rows))
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    assert len(df) == len(gdf) and len(df) > 1000
    merged = df.merge(gdf, on=["conv_id", "turn_idx", "span_idx"], suffixes=("_r", "_o"))
    assert len(merged) == len(gdf)
    assert (merged.text_r == merged.text_o).all()
    assert (merged.start_r == merged.start_o).all()
    assert (merged.end_r == merged.end_o).all()
    # reconcile_sorted's span_seq must be dense 0..n-1 per conversation —
    # including the mega conversation, whose spans sit in many blocks
    seq_ok = (
        df.sort_values(["conv_id", "turn_idx", "span_idx"])
        .groupby("conv_id")["span_seq"]
        .apply(lambda s: (s.to_numpy() == range(len(s))).all())
    )
    assert seq_ok.all()
    assert (df.groupby("conv_id").size() > 250).any()  # mega conv present


def test_single_conversation_worst_case_skew(ray_session, tmp_path, monkeypatch):
    """Degenerate skew: the ENTIRE corpus is one conversation, so the
    distributed reconcile's sort puts every span under one key; span_seq
    must stay dense."""
    import pyarrow as pa
    import pyarrow.parquet as pq2

    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    monkeypatch.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)

    rows = []
    for t in range(800):
        rows.append(
            {
                "conv_id": "conv-solo",
                "turn_idx": t,
                "text": f"turn number {t} has plenty of content words to extract "
                        f"and some repeated repeated tokens",
            }
        )
    d = str(tmp_path / "solo")
    os.makedirs(d)
    pq2.write_table(pa.Table.from_pylist(rows), os.path.join(d, "t.parquet"))

    ds = rd.read_parquet(d, columns=["conv_id", "turn_idx", "text"])
    a = (
        reconcile_sorted(extract_spans(ds))
        .to_pandas()
        .sort_values(["turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    assert len(a) == 800
    assert a.span_seq.tolist() == list(range(800))


def test_nested_spans_roundtrip(ray_session, turns_path):
    """Nested list<struct> variant equals the flat pipeline's spans after
    an Arrow explode; per-turn concatenated text matches the span texts."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.stages.extractor import nested_spans_batch

    turns = rd.read_parquet(turns_path, columns=["conv_id", "turn_idx", "text"])
    nested = turns.map_batches(nested_spans_batch, batch_format="pyarrow")
    tbl = pa.concat_tables(
        [b for b in nested.iter_batches(batch_size=4096, batch_format="pyarrow")]
    )
    gdf = _golden(turns_path)
    # explode and compare text/offset columns
    rows = []
    for cid, tix, spans in zip(
        tbl.column("conv_id").to_pylist(),
        tbl.column("turn_idx").to_pylist(),
        tbl.column("spans").to_pylist(),
    ):
        for s in spans:
            rows.append({"conv_id": cid, "turn_idx": tix, **s})
    flat = (
        pd.DataFrame(rows)
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    assert len(flat) == len(gdf)
    assert (flat["text"].to_numpy() == gdf["text"].to_numpy()).all()
    assert (flat["start"].to_numpy() == gdf["start"].to_numpy()).all()
    # concat text consistency
    concat = dict(
        zip(
            zip(tbl.column("conv_id").to_pylist(), tbl.column("turn_idx").to_pylist()),
            tbl.column("turn_text").to_pylist(),
        )
    )
    grp = gdf[gdf.text != ""].groupby(["conv_id", "turn_idx"])["text"].apply(" ".join)
    for k, v in grp.items():
        assert concat[k] == v


def test_dead_letter_rows(ray_session, monkeypatch):
    """A poisoned payload is dropped and counted, not fatal (the
    reference's generator dies on any record error, DataGen.py:576-580)."""
    import pyarrow as pa

    from ocr_ray.stages import extractor as ex

    real = ex.extract_turn

    def poisoned(text, counters=None):
        if text == "BOOM":
            raise ValueError("poison")
        return real(text, counters)

    monkeypatch.setattr(ex, "extract_turn", poisoned)
    counters: dict[str, int] = {}
    batch = pa.Table.from_pylist(
        [
            {"conv_id": "c", "turn_idx": 0, "text": "good content words here"},
            {"conv_id": "c", "turn_idx": 1, "text": "BOOM"},
            {"conv_id": "c", "turn_idx": 2, "text": "more good content words"},
        ]
    )
    out = ex.extract_batch_counted(batch, counters)
    assert set(out.column("turn_idx").to_pylist()) == {0, 2}
    assert counters["error_rows"] == 1


def test_extract_metrics_counters(ray_session):
    import pyarrow as pa

    from ocr_ray.stages.extractor import metrics_batch

    batch = pa.Table.from_pylist(
        [
            {"conv_id": "c", "turn_idx": 0, "text": "good content words in this line"},
            {"conv_id": "c", "turn_idx": 1, "text": ""},
            {"conv_id": "c", "turn_idx": 2, "text": "xy"},  # below MIN_TEXT_SIZE
        ]
    )
    rows = metrics_batch(batch)
    out = dict(zip(rows.column("reason").to_pylist(),
                   rows.column("count").to_pylist()))
    assert out["turns_in"] == 3
    assert out["empty_payloads"] == 1
    assert out["drop_min_text_size"] == 1
    assert out["spans_out"] >= 1


def test_reconcile_sorted_boundary_walk_stress(ray_session, monkeypatch):
    """Adversarial shapes for reconcile_sorted: conv sizes chosen so that
    conversations and turns end exactly at, straddle, and fully span the
    input's block boundaries (a turn's spans then sit in several blocks),
    over several block counts, on both branches. Ground truth is a pandas
    groupby cumcount."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.extract import reconcile_sorted
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    rng = np.random.RandomState(11)
    rows = []
    # mix: tiny convs, one mega conv, a run of equal-size convs (aligned
    # boundaries when nblocks divides evenly)
    sizes = [1, 1, 64, 3, 128, 1, 32, 32, 32, 32, 7, 256, 2]
    for c, size in enumerate(sizes):
        for t in range(size):
            for s in range(int(rng.randint(1, 3))):
                rows.append((f"c{c:03d}", t, s))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "span_idx"])
    df["start"] = 0
    df["end"] = 5
    df["text"] = "x"
    df["score"] = 1.0
    truth = df.sort_values(["conv_id", "turn_idx", "span_idx"]).reset_index(drop=True)
    truth["span_seq"] = truth.groupby("conv_id").cumcount()

    table = pa.Table.from_pandas(df, preserve_index=False)
    for local in (True, False):
        for nblocks in (1, 3, 8, 17):
            with monkeypatch.context() as m:
                if not local:
                    m.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
                got = (
                    reconcile_sorted(rd.from_arrow(table).repartition(nblocks))
                    .to_pandas()
                    .sort_values(["conv_id", "turn_idx", "span_idx"])
                    .reset_index(drop=True)
                )
            pd.testing.assert_frame_equal(
                got[["conv_id", "turn_idx", "span_idx", "span_seq"]],
                truth[["conv_id", "turn_idx", "span_idx", "span_seq"]],
                check_dtype=False,
            )


def test_metrics_totals_match_sequential_fold(ray_session, turns_path):
    """The distributed counter totals equal a sequential fold of
    extract_turn's counters over the same turns."""
    from ocr_ray.extract import extract_turn
    from ocr_ray.pipelines.extract import extract_metrics_totals, read_turns

    table = pq.read_table(os.path.join(turns_path, "turns.parquet"))
    fold = {"turns_in": 0, "empty_payloads": 0, "error_rows": 0, "spans_out": 0}
    for text in table.column("text").to_pylist():
        fold["turns_in"] += 1
        if not text:
            fold["empty_payloads"] += 1
            continue
        try:
            fold["spans_out"] += len(extract_turn(text, fold))
        except Exception:  # noqa: BLE001
            fold["error_rows"] += 1
    assert extract_metrics_totals(read_turns(turns_path)) == fold
    assert fold["spans_out"] > 0 and fold["empty_payloads"] > 0


def test_metrics_totals_zero_rows(ray_session, tmp_path):
    """A 0-row turns table still reports the four headline counters."""
    import pyarrow as pa

    from ocr_ray.pipelines.extract import extract_metrics_totals, read_turns

    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("text", pa.string())])
    pq.write_table(schema.empty_table(), str(tmp_path / "turns.parquet"))
    assert extract_metrics_totals(read_turns(str(tmp_path))) == {
        "turns_in": 0, "empty_payloads": 0, "error_rows": 0, "spans_out": 0}


def test_mega_conversation_salting(ray_session, turns_path, monkeypatch):
    """conv-00000000 is a mega-conversation (MEGA_TURNS turns): its spans
    sit in many blocks, yet the distributed reconcile must still produce
    a dense, correctly ordered ordinal."""
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted
    from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

    monkeypatch.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
    df = reconcile_sorted(
        extract_spans(
            rd.read_parquet(turns_path, columns=["conv_id", "turn_idx", "text"])
            .repartition(8)
        )
    ).to_pandas()
    mega = df[df.conv_id == "conv-00000000"].sort_values(["turn_idx", "span_idx"])
    assert len(mega) > 200  # mega conv produced many spans
    assert mega.span_seq.tolist() == list(range(len(mega)))


def test_run_extraction_zero_spans(ray_session, tmp_path):
    """A job where no turn yields a span (empty and too-short payloads)
    returns an empty span table with span_seq, not an error."""
    import pyarrow as pa

    from ocr_ray.pipelines.extract import run_extraction
    from ocr_ray.stages.extractor import SPAN_SCHEMA

    table = pa.table({"conv_id": ["c0"] * 3,
                      "turn_idx": pa.array([0, 1, 2], pa.int32()),
                      "text": ["", "xy", ""]})
    pq.write_table(table, str(tmp_path / "turns.parquet"))
    out = run_extraction(str(tmp_path))
    assert out.count() == 0
    assert out.schema().names == SPAN_SCHEMA.names + ["span_seq"]


def test_reconcile_rejects_sparse_span_idx(ray_session):
    """span_seq = turn offset + span_idx is only dense when every turn's
    span_idx runs 0..k-1; a gap is an error, not a silent hole."""
    import pyarrow as pa

    from ocr_ray.pipelines.extract import turn_offsets

    spans = pa.table({"conv_id": ["c", "c", "c"],
                      "turn_idx": pa.array([0, 0, 1], pa.int32()),
                      "span_idx": pa.array([0, 2, 0], pa.int32())})
    with pytest.raises(ValueError, match="not dense"):
        turn_offsets(spans)
    dense = turn_offsets(spans.slice(1).set_column(
        2, "span_idx", pa.array([0, 0], pa.int32())))
    assert dense.column("offset").to_pylist() == [0, 1]
