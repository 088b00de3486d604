"""Compare two sets of benchmark records, workload by workload, metric by metric.

    python3 extractbench/compare.py BASE NEW

BASE and NEW are record files or directories searched for ``*.json``
records (``run.py`` writes them to ``.bench_cache/results/<workload>/``).
End-to-end records (``--trace 0``) and per-layer records (``--trace 1``)
are compared separately. For each metric the table gives each side's
median and quartiles, the pairs NEW won (runs paired by seed where both
sides ran the same seed, otherwise in run order; ties count for neither),
and NEW's median as a ratio of BASE's median, with the base value.

The verdict column follows the benchmark's rules: ``gain`` when NEW wins at
least nine tenths of the pairs and the medians differ by more than BASE's
quartile spread; ``worse`` when NEW's median is worse than BASE's by more
than the metric's bound in ``BENCHMARK.json``; ``unresolved`` when BASE's
own spread is wider than that bound; otherwise ``same``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path: str) -> list[dict]:
    files = [path]
    if os.path.isdir(path):
        files = sorted(
            (os.path.join(d, f)
             for d, _, names in os.walk(path) for f in names if f.endswith(".json")),
            key=os.path.getmtime,  # run order
        )
    out = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if "metrics" in rec and "context" in rec:
            out.append(rec)
    return out


def metric_specs() -> dict[str, dict]:
    """Direction and bound of every metric named in BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["context"]["seed"]: r for r in base}
    matched = [(by_seed[r["context"]["seed"]], r) for r in new
               if r["context"]["seed"] in by_seed]
    if matched:
        return matched
    return list(zip(base, new))


def compare_group(base: list[dict], new: list[dict], specs: dict) -> list[dict]:
    rows = []
    names = [n for n in base[0]["metrics"] if n in new[0]["metrics"]]
    paired = pairs(base, new)
    for name in names:
        spec = specs.get(name, {})
        sign = -1.0 if spec.get("better", "lower") == "higher" else 1.0
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        bq, nq = quartiles(b), quartiles(n)
        won = sum(
            1 for rb, rn in paired
            if sign * (rn["metrics"][name]["value"] - rb["metrics"][name]["value"]) < 0
        )
        base_med, new_med = bq[1], nq[1]
        ratio = new_med / base_med if base_med else None
        spread = (bq[2] - bq[0]) / abs(base_med) if base_med else 0.0
        bound = spec.get("bound")
        worse_by = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
        if paired and won >= 0.9 * len(paired) and abs(new_med - base_med) > bq[2] - bq[0]:
            verdict = "gain"
        elif bound is not None and worse_by > bound:
            verdict = "worse"
        elif bound is not None and spread > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append({
            "metric": name, "unit": base[0]["metrics"][name]["unit"],
            "base": {"q1": bq[0], "median": base_med, "q3": bq[2], "runs": len(b)},
            "new": {"q1": nq[0], "median": new_med, "q3": nq[2], "runs": len(n)},
            "pairs_won": won, "pairs": len(paired),
            "ratio": ratio, "ratio_base": base_med, "verdict": verdict,
        })
    return rows


def group(records: list[dict]) -> dict[tuple, list[dict]]:
    out: dict[tuple, list[dict]] = {}
    for r in records:
        c = r["context"]
        out.setdefault((c["workload"], c["trace"]), []).append(r)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = group(load_records(args.base)), group(load_records(args.new))
    specs = metric_specs()
    report = {}
    for key in sorted(set(base) & set(new)):
        report[f"{key[0]}/trace{key[1]}"] = compare_group(base[key], new[key], specs)
    if not report:
        print("no workload has records on both sides", file=sys.stderr)
        return 1
    for title, rows in report.items():
        print(f"== {title}")
        print(f"{'metric':44s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s} "
              f"{'won':>7s} {'ratio':>7s}  verdict")
        for r in rows:
            b, n = r["base"], r["new"]
            ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
            print(f"{r['metric']:44s} "
                  f"{b['q1']:9.4g} {b['median']:9.4g} {b['q3']:9.4g}  "
                  f"{n['q1']:9.4g} {n['median']:9.4g} {n['q3']:9.4g}  "
                  f"{r['pairs_won']:>3d}/{r['pairs']:<3d} {ratio:>7s}  {r['verdict']}"
                  f"  (base {r['ratio_base']:.4g} {r['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
