"""Traced run: per-layer times and counts, measured from outside the program.

Three parts, all in one Ray session after the usual set-up:

1. Untraced jobs (``run_extraction``) give the reference ``job_s`` and the
   number of Ray Data executions per job (counted by wrapping the executor
   factory, ``ExecutionPlan.create_executor``).
2. Stage-traced jobs call the public stages one at a time and materialize
   between them: ``read_turns``, ``extract_spans``, ``reconcile_sorted``,
   ``write_parquet``. Each call is a span; ``ds.stats()`` is kept.
3. The kernel runs in the driver: ``extract_batch_counted`` over the same
   input in 1024-row batches, with the names its callers use rebound to
   timing wrappers (``ocr_ray.extract.segment`` and so on). No source file
   is edited; the original functions are restored afterwards.

Spans (name, start, end, parent, job) are kept in memory and written to
``.bench_cache/traces`` as JSON when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import pyarrow.parquet as pq

STAGES = ["read_turns", "extract_spans", "reconcile_sorted", "write"]
DROPS = ["drop_min_text_size", "drop_empty", "drop_box_thresh",
         "drop_span_cap", "drop_degenerate", "drop_window_tokens"]
BATCH_ROWS = 1024  # extract_spans' default batch size


class Tracer:
    """In-memory span recorder; spans of one job share ``job``."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        i = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(i)
        return i, parent

    @contextmanager
    def span(self, name: str):
        i, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (name, t0, t1, parent, self.job)

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(args, result)`` may add
        to ``self.counts``. Inlines ``span`` because it wraps tens of
        thousands of kernel calls per job, where a generator-based context
        manager would double the tracing overhead."""
        def timed(*args, **kwargs):
            i, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[i] = (name, t0, t1, parent, self.job)
            if count is not None:
                count(args, result)
            return result
        return timed

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def self_times(self, job_prefix: str = "") -> dict[str, float]:
        """Summed self time per span name over jobs starting with the prefix."""
        child = defaultdict(float)
        for s in self.spans:
            if s and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s and s[4].startswith(job_prefix):
                out[s[0]] += (s[2] - s[1]) - child.get(i, 0.0)
        return dict(out)

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = ["name", "start", "end", "parent", "job"]
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(names, s)) for s in self.spans if s],
                       **extra}, fh)


@contextmanager
def rebound(targets):
    """Temporarily set ``module.attr = value`` for (module, attr, value)."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in targets]
    for m, a, v in targets:
        setattr(m, a, v)
    try:
        yield
    finally:
        for m, a, v in saved:
            setattr(m, a, v)


class ExecutionLog:
    """Keeps every Ray Data executor created while ``patch`` is rebound."""

    def __init__(self) -> None:
        from ray.data._internal import plan

        self.executors: list = []
        original = plan.ExecutionPlan.create_executor

        def create_executor(plan_self):
            ex = original(plan_self)
            self.executors.append(ex)
            return ex

        self.patch = [(plan.ExecutionPlan, "create_executor", create_executor)]

    @staticmethod
    def task_seconds(executors) -> float:
        """Summed wall time of every task the executors ran."""
        total = 0.0
        for ex in executors:
            for op in ex.get_stats().to_summary().operators_stats:
                total += (op.wall_time or {}).get("sum", 0.0)
        return total


def stage_job(bench, tracer: Tracer, k: int) -> dict:
    """One job as four materialized stage calls, each a span."""
    from ocr_ray.pipelines.extract import extract_spans, read_turns, reconcile_sorted

    out = bench.fresh_out()
    with tracer.span("job"):
        with tracer.span("pipelines.read_turns"):
            turns = read_turns(bench.jobs[k].path).materialize()
        with tracer.span("pipelines.extract_spans"):
            spans = extract_spans(turns).materialize()
        with tracer.span("pipelines.reconcile_sorted"):
            rec = reconcile_sorted(spans).materialize()
        with tracer.span("pipelines.write"):
            rec.write_parquet(out)
    files = [os.path.join(out, f) for f in os.listdir(out)]
    info = {
        "read_turns.rows": turns.count(),
        "read_turns.bytes": turns.size_bytes(),
        "read_turns.blocks": turns.num_blocks(),
        "extract_spans.rows_out": spans.count(),
        "reconcile_sorted.rows": rec.count(),
        "reconcile_sorted.blocks": rec.num_blocks(),
        "write.files": len(files),
        "write.bytes": sum(os.path.getsize(f) for f in files),
        "stats": {"read_turns": turns.stats(), "extract_spans": spans.stats(),
                  "reconcile_sorted": rec.stats()},
    }
    info["ok"] = bench.gate(k, out)
    shutil.rmtree(out, ignore_errors=True)
    return info


def kernel_job(tracer: Tracer, path: str) -> dict[str, int]:
    """The extraction kernel over one job input, in this process, traced."""
    import ocr_ray.extract as ex
    import ocr_ray.stages.extractor as st

    c = tracer.counts

    def units(args, result):
        c["segment.units"] += len(result)

    def nms(args, result):
        c["spanlib.nms_locality.proposals_in"] += len(args[0])
        c["spanlib.nms_locality.boxes_out"] += int(result.shape[0])

    def decoded(args, result):
        c["extract.decode_span.calls"] += 1

    def turn(args, result):
        c["useful_turns"] += bool(result)

    w = tracer.wrap
    targets = [
        (st, "extract_turn", w("extract.extract_turn", st.extract_turn, turn)),
        (ex, "normalize_text", w("textnorm.normalize_text", ex.normalize_text)),
        (ex, "detect_kind", w("segment.detect_kind", ex.detect_kind)),
        (ex, "segment", w("segment.segment", ex.segment, units)),
        (ex, "score_units", w("extract.score_units", ex.score_units)),
        (ex, "propose_spans", w("extract.propose_spans", ex.propose_spans)),
        (ex, "nms_locality", w("spanlib.nms_locality", ex.nms_locality, nms)),
        (ex, "decode_span", w("extract.decode_span", ex.decode_span, decoded)),
    ]
    batch_fn = w("stages.extract_batch_counted", st.extract_batch_counted)
    table = pq.read_table(path, columns=["conv_id", "turn_idx", "text"])
    counters: dict[str, int] = {"turns_in": 0, "empty_payloads": 0, "error_rows": 0}
    spans_out = batches = 0
    with rebound(targets):
        for off in range(0, table.num_rows, BATCH_ROWS):
            batch = table.slice(off, BATCH_ROWS)
            counters["turns_in"] += batch.num_rows
            spans_out += batch_fn(batch, counters).num_rows
            batches += 1
    counters["spans_out"] = spans_out
    counters["batches"] = batches
    return counters


def kernel_plain(path: str) -> float:
    """Seconds for the untraced kernel over one job input, in this process."""
    from ocr_ray.stages.extractor import extract_batch_counted

    table = pq.read_table(path, columns=["conv_id", "turn_idx", "text"])
    t0 = time.perf_counter()
    for off in range(0, table.num_rows, BATCH_ROWS):
        extract_batch_counted(table.slice(off, BATCH_ROWS), {})
    return time.perf_counter() - t0


def traced_run(bench, seconds: float, cache: str, tag: str) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus context for the record."""
    tracer = Tracer()
    half = seconds / 2

    # 1. untraced reference jobs: executions and task time per job
    log, plain = ExecutionLog(), []
    deadline = time.perf_counter() + half
    with rebound(log.patch):
        while len(plain) < 3 or time.perf_counter() < deadline:
            i0 = len(log.executors)
            wall, _, ok = bench.job(len(plain) % len(bench.jobs))
            ran = log.executors[i0:]
            plain.append({"wall_s": wall, "ok": ok, "executions": len(ran),
                          "task_s": log.task_seconds(ran)})
    untraced_job_s = statistics.median(p["wall_s"] for p in plain)

    # 2. stage-traced jobs
    stage_info, deadline, j = [], time.perf_counter() + half, 0
    while j < 3 or time.perf_counter() < deadline:
        tracer.job = f"stage{j}"
        stage_info.append(stage_job(bench, tracer, j % len(bench.jobs)))
        j += 1
    med = {s: statistics.median(tracer.durations(f"pipelines.{s}")) for s in STAGES}
    job_walls = tracer.durations("job")
    stage_total = sum(sum(tracer.durations(f"pipelines.{s}")) for s in STAGES)

    # 3. kernel in the driver, every distinct input once untraced, once traced
    totals: Counter = Counter()
    kernel_s = 0.0
    for k, job in enumerate(bench.jobs):
        kernel_s += kernel_plain(job.path)
        tracer.job = f"kernel{k}"
        totals.update(kernel_job(tracer, job.path))
    n_in = len(bench.jobs)
    kernel_s /= n_in
    kself = {name: t / n_in for name, t in tracer.self_times("kernel").items()}
    counts = {name: v / n_in for name, v in tracer.counts.items()}
    per_in = {name: v / n_in for name, v in totals.items()}

    first = stage_info[0]
    m: dict[str, tuple[float, str]] = {
        "ray.setup.init_s": (statistics.median(s["init_s"] for s in bench.setups), "s"),
        "ray.setup.warm_s": (statistics.median(s["warm_s"] for s in bench.setups), "s"),
        "pipelines.executions": (statistics.median(p["executions"] for p in plain), "count"),
        "pipelines.task_s": (statistics.median(p["task_s"] for p in plain), "s"),
        "pipelines.fixed_s": (statistics.median(p["wall_s"] - p["task_s"] for p in plain), "s"),
        "trace.untraced_job_s": (untraced_job_s, "s"),
        "trace.traced_job_s": (statistics.median(job_walls), "s"),
        "trace.overhead_s": (statistics.median(job_walls) - untraced_job_s, "s"),
        "trace.attributed_ratio": (stage_total / sum(job_walls), "ratio"),
        "trace.kernel_s": (kernel_s, "s"),
        "trace.kernel_overhead_s": (sum(kself.values()) - kernel_s, "s"),
        "trace.kernel_share": (kernel_s / med["extract_spans"], "ratio"),
    }
    for s in STAGES:
        m[f"pipelines.{s}.wall_s"] = (med[s], "s")
    for key in ("read_turns.rows", "read_turns.bytes", "read_turns.blocks",
                "extract_spans.rows_out", "reconcile_sorted.rows",
                "reconcile_sorted.blocks", "write.files", "write.bytes"):
        m[f"pipelines.{key}"] = (statistics.median(i[key] for i in stage_info),
                                 "bytes" if key.endswith("bytes") else "count")
    for name in ("stages.extract_batch_counted", "extract.extract_turn",
                 "textnorm.normalize_text", "segment.detect_kind",
                 "segment.segment", "extract.score_units",
                 "extract.propose_spans", "spanlib.nms_locality",
                 "extract.decode_span"):
        m[f"{name}.self_s"] = (kself.get(name, 0.0), "s")
    for key in ("batches", "turns_in", "spans_out", "error_rows", "empty_payloads"):
        m[f"stages.extract_batch_counted.{key}"] = (per_in.get(key, 0.0), "count")
    m["stages.useful_ratio"] = (counts.get("useful_turns", 0.0) / per_in["turns_in"], "ratio")
    for key in ("segment.units", "spanlib.nms_locality.proposals_in",
                "spanlib.nms_locality.boxes_out", "extract.decode_span.calls"):
        m[key] = (counts.get(key, 0.0), "count")
    for d in DROPS:
        m[f"extract.drops.{d}"] = (per_in.get(d, 0.0), "count")

    trace_path = os.path.join(cache, "traces", tag + ".json")
    tracer.dump(trace_path, {"stats": first["stats"]})
    attempted = len(plain) + len(stage_info)
    failed = sum(1 for p in plain if not p["ok"]) + sum(1 for i in stage_info if not i["ok"])
    extra = {"attempted": attempted, "failed": failed, "trace_file": trace_path,
             "untraced_jobs": plain, "traced_jobs_s": job_walls}
    return m, extra
