"""The extraction job's written output: how many Ray Data executions a
job runs, what each reconcile branch writes, and the sink contract every
extraction write keeps (a new directory, at least one typed file) plus
the retry-safe quarantine side write."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_ray.corpus import turns_table_for_convs
from ocr_ray.stages.extractor import SPAN_SCHEMA
from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

RECONCILED = pa.schema(list(SPAN_SCHEMA) + [pa.field("span_seq", pa.int64())])
KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("span_idx", "ascending")]


@pytest.fixture(scope="module")
def turns_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("turns"))
    pq.write_table(turns_table_for_convs(list(range(20))),
                   os.path.join(path, "turns.parquet"))
    return path


@pytest.fixture(scope="module")
def no_span_path(tmp_path_factory):
    """Turns whose payloads are empty or too short to yield a span."""
    path = str(tmp_path_factory.mktemp("no_spans"))
    pq.write_table(pa.table({"conv_id": ["c0"] * 3,
                             "turn_idx": pa.array([0, 1, 2], pa.int32()),
                             "text": ["", "xy", ""]}),
                   os.path.join(path, "turns.parquet"))
    return path


def _files(d):
    return sorted(f for f in os.listdir(d) if f.endswith(".parquet"))


def test_one_execution_below_limit_and_branches_agree(
        ray_session, turns_path, tmp_path, monkeypatch):
    """Below the reconcile limit a job is ONE Ray Data execution and
    writes ONE file; with the limit forced to 0 the sorted branch writes
    the same rows."""
    from ray.data._internal import plan

    from ocr_ray.pipelines.extract import run_extraction

    executors = []
    original = plan.ExecutionPlan.create_executor

    def create_executor(plan_self):
        ex = original(plan_self)
        executors.append(ex)
        return ex

    local_dir, sorted_dir = str(tmp_path / "local"), str(tmp_path / "sorted")
    with monkeypatch.context() as m:
        m.setattr(plan.ExecutionPlan, "create_executor", create_executor)
        run_extraction(turns_path, local_dir)
    assert len(executors) == 1
    assert _files(local_dir) == ["part-00000.parquet"]

    with monkeypatch.context() as m:
        m.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
        run_extraction(turns_path, sorted_dir)
    local = pq.read_table(local_dir).sort_by(KEYS)
    ranged = pq.read_table(sorted_dir).sort_by(KEYS)
    assert local.num_rows > 0
    assert local.schema.names == RECONCILED.names
    assert local.cast(RECONCILED).equals(ranged.cast(RECONCILED))


@pytest.mark.parametrize("local", [True, False])
def test_zero_span_job_leaves_typed_file(
        ray_session, no_span_path, tmp_path, monkeypatch, local):
    """A job without spans writes one typed 0-row file on both reconcile
    branches, so the output directory reads back."""
    from ocr_ray.pipelines.extract import run_extraction

    if not local:
        monkeypatch.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
    out = str(tmp_path / "out")
    run_extraction(no_span_path, out)
    back = pq.read_table(out)
    assert back.num_rows == 0
    assert back.schema.equals(RECONCILED)


def test_zero_span_partition_checkpointed(ray_session, no_span_path, tmp_path):
    """A checkpointed run over a partition without spans completes: the
    extract stage leaves a typed SPAN_SCHEMA file, the reconcile stage a
    typed file with span_seq."""
    from ocr_ray.state.lineage import CheckpointedExtraction

    run = CheckpointedExtraction(no_span_path, str(tmp_path / "ckpt"))
    results = run.execute()
    assert results[0]["spans_out"] == 0 and results[-1]["spans_out"] == 0
    spans = pq.read_table(os.path.join(run.spans_dir, "part-turns"))
    assert spans.num_rows == 0 and spans.schema.equals(SPAN_SCHEMA)
    final = pq.read_table(run.final_dir)
    assert final.num_rows == 0 and final.schema.equals(RECONCILED)


@pytest.mark.parametrize("local", [True, False])
def test_rerun_into_same_dir_refused(
        ray_session, turns_path, tmp_path, monkeypatch, local):
    """A second job into the same directory raises instead of adding a
    second copy of every span, on both reconcile branches."""
    from ocr_ray.pipelines.extract import run_extraction

    if not local:
        monkeypatch.setitem(LOCAL_ROW_LIMITS, "reconcile", 0)
    out = str(tmp_path / "out")
    run_extraction(turns_path, out)
    before = _files(out)
    with pytest.raises(FileExistsError):
        run_extraction(turns_path, out)
    assert _files(out) == before


def test_quarantine_part_is_retry_safe(tmp_path):
    """The side write of one batch run twice (a retried task) leaves one
    part file holding that batch's bad rows once."""
    from ocr_ray.sources.sideout import _write_bad_part

    t = pa.table({"k": pa.array(range(50), pa.int64()),
                  "s": [f"r{i}" for i in range(50)]})
    mask = pa.array([k % 7 != 0 for k in range(50)])
    d = str(tmp_path / "bad")
    os.makedirs(d)
    _write_bad_part(t, mask, d)
    first = _files(d)
    _write_bad_part(t, mask, d)
    assert _files(d) == first and len(first) == 1
    assert sorted(os.listdir(d)) == first  # no temp file left behind
    bad = pq.read_table(d)
    assert bad.equals(t.filter(pa.array([k % 7 == 0 for k in range(50)])))
