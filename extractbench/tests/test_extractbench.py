"""Tests of the benchmark itself: inputs, oracle gate, result format.

    python3 -m pytest extractbench/tests -q

The last two tests start Ray through ``run.py`` (about a minute together).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from extractbench import compare, gate, inputs  # noqa: E402
from extractbench.bench import tail  # noqa: E402


def _tables(cache: str, workload: str, seed: int) -> list[pa.Table]:
    return [pq.read_table(j.path) for j in inputs.build_inputs(cache, workload, seed)]


@pytest.mark.parametrize("workload", ["smalljobs", "longdoc"])
def test_inputs_deterministic_per_seed(tmp_path, workload):
    a = _tables(str(tmp_path / "a"), workload, 7)
    b = _tables(str(tmp_path / "b"), workload, 7)
    c = _tables(str(tmp_path / "c"), workload, 8)
    assert len(a) == len(b) and all(x.equals(y) for x, y in zip(a, b))
    assert not all(x.equals(y) for x, y in zip(a, c))


def test_longdoc_hits_span_cap_and_decode_window(tmp_path):
    from ocr_ray.extract import extract_turn

    job = inputs.build_inputs(str(tmp_path), "longdoc", 3)[0]
    for turn in inputs.read_turn_dicts(job):
        counters: dict[str, int] = {}
        extract_turn(turn["text"], counters)
        assert counters.get("drop_span_cap", 0) > 0
        assert counters.get("drop_window_tokens", 0) > 0


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    job = inputs.build_inputs(str(tmp_path_factory.mktemp("in")), "smalljobs", 5)[0]
    return gate.expected_table(inputs.read_turn_dicts(job))


def test_gate_accepts_oracle_output_in_any_row_order(expected):
    shuffled = expected.take(pa.array(range(expected.num_rows - 1, -1, -1)))
    assert gate.check(shuffled, expected) is None


def test_span_seq_is_contiguous_per_conversation(expected):
    for conv in pc.unique(expected["conv_id"]).to_pylist():
        seq = expected.filter(pc.equal(expected["conv_id"], conv))["span_seq"]
        assert seq.to_pylist() == list(range(len(seq)))


def _replace(table: pa.Table, name: str, row: int, value) -> pa.Table:
    col = table[name].to_pylist()
    col[row] = value
    i = table.schema.get_field_index(name)
    return table.set_column(i, name, pa.array(col, table.schema.field(name).type))


@pytest.mark.parametrize("name,value", [
    ("text", "corrupted"), ("score", 0.123), ("start", -1), ("span_seq", 99999),
])
def test_gate_catches_a_corrupted_span(expected, name, value):
    bad = _replace(expected, name, 3, value)
    err = gate.check(bad, expected)
    assert err is not None and name in err


def test_gate_catches_missing_and_extra_rows(expected):
    assert gate.check(expected.slice(1), expected) is not None
    dup = pa.concat_tables([expected, expected.slice(0, 1)])
    assert gate.check(dup, expected) is not None
    assert gate.check(expected.drop(["span_seq"]), expected) is not None


def test_gate_reads_a_written_directory(tmp_path, expected):
    pq.write_table(expected.slice(0, 10), tmp_path / "a.parquet")
    pq.write_table(expected.slice(10), tmp_path / "b.parquet")
    assert gate.check_dir(str(tmp_path), expected) is None


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 31)]
    value, pct, beyond = tail(values)
    assert (value, beyond) == (20.0, 10) and pct == pytest.approx(200 / 3)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def _record(seed: int, value: float) -> dict:
    return {"metrics": {"job_s": {"value": value, "unit": "s"}},
            "context": {"workload": "mixed", "trace": 0, "seed": seed}}


def test_compare_pairs_by_seed_and_counts_wins():
    base = [_record(s, 1.0 + 0.01 * s) for s in range(10)]
    new = [_record(s, 0.8 + 0.01 * s) for s in range(10)]
    specs = {"job_s": {"better": "lower", "bound": 0.1}}
    [row] = compare.compare_group(base, new, specs)
    assert (row["pairs_won"], row["pairs"], row["verdict"]) == (10, 10, "gain")
    assert row["ratio"] == pytest.approx(0.845 / 1.045)
    [row] = compare.compare_group(new, base, specs)
    assert (row["pairs_won"], row["verdict"]) == (0, "worse")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = _spec()
    cmd = [sys.executable, *spec["command"][1:], "--workload", "smalljobs",
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
