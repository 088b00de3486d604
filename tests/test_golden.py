"""Golden-fixture regression test (the reference's golden-.npy idiom,
DetectUtil.py:228-233): the committed expected spans were produced by the
oracle at fixture-generation time; any semantic drift — even one that
moves oracle and pipeline together — fails here.

Intentional semantics changes: re-run tools/gen_fixtures.py and commit
the new goldens with an explanation.
"""

import os

import pandas as pd
import pyarrow.parquet as pq

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _load():
    turns = pq.read_table(os.path.join(FIXTURE_DIR, "golden_turns.parquet"))
    golden = (
        pq.read_table(os.path.join(FIXTURE_DIR, "golden_spans.parquet"))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    return turns, golden


def test_oracle_matches_golden():
    from ocr_ray.oracle import extract_table

    turns, golden = _load()
    now = (
        pd.DataFrame(extract_table(turns.to_pylist()))
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    assert len(now) == len(golden)
    for col in ["conv_id", "turn_idx", "span_idx", "start", "end", "text"]:
        assert (now[col].to_numpy() == golden[col].to_numpy()).all(), col
    assert (now["score"].to_numpy() == golden["score"].to_numpy()).all()


def test_unit_scorer_matches_golden():
    """Operator-level golden (FIXTURES.md §3): dense unit/score table."""
    import pyarrow as pa

    from ocr_ray.stages.extractor import score_units_batch
    from ocr_ray.stages.normalize import normalize_batch

    turns = pq.read_table(os.path.join(FIXTURE_DIR, "golden_turns.parquet"))
    now = score_units_batch(normalize_batch(turns.select(["conv_id", "turn_idx", "text"])))
    golden = pq.read_table(os.path.join(FIXTURE_DIR, "golden_units.parquet"))
    assert now.equals(golden)


def test_propose_stage_matches_golden():
    """Operator-level golden: propose/NMS/order spans without decode."""
    from ocr_ray.stages.extractor import propose_only

    turns = pq.read_table(os.path.join(FIXTURE_DIR, "golden_turns.parquet"))
    now = propose_only(turns.select(["conv_id", "turn_idx", "text"]))
    golden = pq.read_table(os.path.join(FIXTURE_DIR, "golden_propose.parquet"))
    assert now.equals(golden)


def test_ray_pipeline_matches_golden(ray_session):
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, reconcile_sorted

    _, golden = _load()
    df = (
        reconcile_sorted(
            extract_spans(
                rd.read_parquet(
                    os.path.join(FIXTURE_DIR, "golden_turns.parquet"),
                    columns=["conv_id", "turn_idx", "text"],
                )
            )
        )
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "span_idx"])
        .reset_index(drop=True)
    )
    assert len(df) == len(golden)
    for col in ["conv_id", "turn_idx", "span_idx", "start", "end", "text", "score"]:
        assert (df[col].to_numpy() == golden[col].to_numpy()).all(), col
