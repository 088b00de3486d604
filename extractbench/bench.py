"""Extraction benchmark: closed-loop ``run_extraction`` jobs on seeded input.

    python3 extractbench/run.py --workload mixed --seed 1 --seconds 24 --trace 0

One driver process starts Ray with ``num_cpus`` from ``nproc`` and sets up
(Ray start plus untimed warm-up jobs) three times. In each session it
submits one job, waits for it, checks its output against the oracle and
submits the next, for a third of ``--seconds``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run in the last session (see ``tracing.py``). The last line of stdout is the result JSON;
everything Ray and Ray Data log goes to ``.bench_cache/logs``. A full record
(metrics plus context: seed, input sizes, ``num_cpus``, host calibration,
every job's wall time) goes to ``.bench_cache/results`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from . import gate, inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".bench_cache")

SETUPS = 3            # set-ups per run; setup_s is their median
WARM_JOBS = 2         # untimed jobs per set-up (early jobs run slower)
OBJECT_STORE_BYTES = 512 * 2**20
# Ray's unix sockets live under its temp dir, whose path must stay short.
_SOCKET_ROOM = 107 - len("/session_2026-01-01_00-00-00_000000_00000/sockets/plasma_store")


def nproc() -> int:
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def calibrate() -> float:
    """Seconds for a fixed single-process kernel loop: the same turns on
    every host and commit, so the reading tracks host speed, not inputs."""
    from ocr_ray.corpus import gen_conversation
    from ocr_ray.extract import extract_turn

    texts = [t["text"] for c in range(1, 81) for t in gen_conversation(c, 20240101)]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for text in texts:
            extract_turn(text, {})
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    s = sorted(values)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    beyond = len(s) - 1 - k
    return s[k], 100.0 * (k + 1) / len(s), beyond


def ray_temp_dir() -> str:
    path = os.path.join(CACHE, "ray")
    if len(path) <= _SOCKET_ROOM:
        return path
    short = os.path.join("/tmp", f"extractbench-{os.getuid()}")
    print(f"checkout path too long for Ray sockets; using {short}", file=sys.stderr)
    return short


class Bench:
    """One benchmark run: inputs, the Ray session and the job loop."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.jobs = inputs.build_inputs(os.path.join(CACHE, "inputs"), workload, seed)
        inputs.warm_page_cache(self.jobs)
        self.expected = [gate.expected_table(inputs.read_turn_dicts(j)) for j in self.jobs]
        self.ncpu = nproc()
        self.ray_tmp = ray_temp_dir()
        self.out_root = os.path.join(CACHE, "out", str(os.getpid()))
        self.n_out = 0
        self.failures: list[str] = []
        self.setups: list[dict] = []

    # -- Ray session ------------------------------------------------------
    def _init_ray(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.ncpu,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="WARNING",
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self.ray_tmp,
        )
        DataContext.get_current().enable_progress_bars = False

    def setup(self, after_each=None) -> None:
        """Set up SETUPS times (Ray start plus warm-up jobs), calling
        ``after_each()`` in every session and keeping the last one; imports
        count toward the first set-up."""
        import ray

        for i in range(SETUPS):
            t0 = time.perf_counter()
            if i == 0:
                import ocr_ray.pipelines.extract  # noqa: F401
            self._init_ray()
            t1 = time.perf_counter()
            warm = [self.job(k % len(self.jobs))[0] for k in range(WARM_JOBS)]
            t2 = time.perf_counter()
            self.setups.append({"init_s": t1 - t0, "warm_s": t2 - t1,
                                "setup_s": t2 - t0, "warm_jobs_s": warm})
            if after_each is not None:
                after_each()
            if i < SETUPS - 1:
                ray.shutdown()

    def close(self) -> None:
        import ray

        ray.shutdown()
        shutil.rmtree(self.out_root, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # -- jobs ---------------------------------------------------------------
    def fresh_out(self) -> str:
        self.n_out += 1
        path = os.path.join(self.out_root, f"job{self.n_out}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def gate(self, k: int, out: str) -> bool:
        """Check the output of input ``k``; record what differs."""
        err = gate.check_dir(out, self.expected[k])
        if err is not None:
            self.failures.append(f"{os.path.basename(self.jobs[k].path)}: {err}")
        return err is None

    def job(self, k: int, meter=None) -> tuple[float, float, bool]:
        """Run input ``k`` once: (wall s, CPU s, passed). Only the
        ``run_extraction`` call is timed; the gate runs after it."""
        from ocr_ray.pipelines.extract import run_extraction

        out = self.fresh_out()
        cpu, ok = 0.0, True
        if meter is not None:
            meter.begin()
        t0 = time.perf_counter()
        try:
            run_extraction(self.jobs[k].path, out)
        except Exception:  # noqa: BLE001 — a failed job is counted, not fatal
            ok = False
            self.failures.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        if meter is not None:
            cpu = meter.end()
        if ok:
            ok = self.gate(k, out)
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, ok

    def loop(self, seconds: float, meter=None) -> list[tuple]:
        """Closed loop: submit, wait, gate, repeat until ``seconds`` pass."""
        done: list[tuple] = []
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            k = len(done) % len(self.jobs)
            done.append((k, *self.job(k, meter=meter)))
        return done

    def context(self) -> dict:
        import ray

        return {
            "workload": self.workload,
            "seed": self.seed,
            "num_cpus": self.ncpu,
            "ray_version": ray.__version__,
            "inputs": [
                {"job": os.path.basename(j.path), "turns": j.turns,
                 "payload_bytes": j.payload_bytes}
                for j in self.jobs
            ],
            "setups": self.setups,
            "failures": self.failures[:20],
        }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, int, int]:
    """Set up, and measure a third of ``seconds`` in each of the SETUPS
    sessions: spreading the jobs over the whole run, and over three Ray
    sessions, makes a run's median less hostage to one spell of host load."""
    from .procstat import Meter, host_load, host_ticks

    done: list[tuple] = []
    ticks = host_ticks()
    with Meter() as meter:
        bench.setup(lambda: done.extend(bench.loop(seconds / SETUPS, meter=meter)))
        peak = meter.peak_rss
    load = host_load(ticks, host_ticks())
    walls = [d[1] for d in done]
    job_s = statistics.median(walls)
    tail_s, tail_pct, beyond = tail(walls)
    turns = statistics.fmean(bench.jobs[d[0]].turns for d in done)
    mb = statistics.fmean(bench.jobs[d[0]].payload_bytes for d in done) / 1e6
    failed = sum(1 for d in done if not d[3])
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in bench.setups), "s"),
        "job_s": (job_s, "s"),
        "job_tail_s": (tail_s, "s"),
        "turns_per_s": (turns / job_s, "1/s"),
        "payload_mb_per_s": (mb / job_s, "MB/s"),
        "cpu_s": (statistics.median(d[2] for d in done), "s"),
        "peak_rss_mb": (peak / 1e6, "MB"),
        "ok_ratio": ((len(done) - failed) / len(done), "ratio"),
    }
    extra = {
        "jobs": [{"input": d[0], "wall_s": d[1], "cpu_s": d[2], "ok": d[3]} for d in done],
        "job_tail_percentile": tail_pct,
        "job_tail_samples_beyond": beyond,
        "turns_per_job": turns,
        "payload_mb_per_job": mb,
        **load,
    }
    return values, extra, len(done), failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mixed", "longdoc", "smalljobs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # Everything below logs to a file; stdout carries only the result line.
    os.makedirs(os.path.join(CACHE, "logs"), exist_ok=True)
    os.makedirs(os.path.join(CACHE, "tmp"), exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}-{os.getpid()}"
    log_path = os.path.join(CACHE, "logs", tag + ".log")
    real_out, real_err = os.dup(1), os.dup(2)
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    sys.stdout.flush()
    sys.stderr.flush()
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.environ["TMPDIR"] = os.path.join(CACHE, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)  # Ray workers start in the driver's directory

    bench = None
    try:
        calib_before = calibrate()
        bench = Bench(args.workload, args.seed)
        if args.trace:
            from . import tracing

            bench.setup()
            values, extra = tracing.traced_run(bench, args.seconds, CACHE, tag)
            attempted, failed = extra["attempted"], extra["failed"]
        else:
            values, extra, attempted, failed = end_to_end(bench, args.seconds)
        calib_after = calibrate()
    except Exception:  # noqa: BLE001 — report, print no result, exit non-zero
        sys.stderr.flush()
        os.dup2(real_err, 2)
        traceback.print_exc()
        print(f"extractbench: run failed, log in {log_path}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        sys.stdout.flush()
        sys.stderr.flush()

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    correct = failed == 0 and not bench.failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "context": {
        **bench.context(), "trace": args.trace, "seconds": args.seconds,
        "calibration_s": [calib_before, calib_after], "log": log_path, **extra}}
    results = os.path.join(CACHE, "results", args.workload)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    os.dup2(real_err, 2)
    os.dup2(real_out, 1)
    print(json.dumps(result), flush=True)
    return 0
