"""Measure the baseline stored in bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py

For each workload, runs `bench/run.py --trace 0` once per seed 1..RUNS and
`--trace 1` twice at seed 0.  It stores, per end-to-end metric, the median,
quartiles and spread (interquartile range over median) of the runs; the
traced per-layer numbers, after checking that both traced runs counted the
same work; and the verdict on two ROADMAP baseline claims about the
exhaustive stepper.  The documentation keys already in the file are kept.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import COUNTED  # noqa: E402

RUNS = 10


def bench(workload, seed, seconds, trace):
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{res.stdout}")
    return line


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def claims(per_layer):
    step_ms = per_layer["flow.brute_step_p50_ms"]
    share = per_layer["flow.brute_dissipation_frac"]
    return [
        {"claim": "a brute step takes about 0.1 s",
         "measured": f"median brute_force_step span {step_ms:.1f} ms on exhaustive_step "
                     f"(traced; trace_overhead_frac {per_layer['trace_overhead_frac']:.3f})",
         "verdict": "confirmed" if 50 <= step_ms <= 200 else "corrected"},
        {"claim": "about 70 % of brute time is in rect_dissipation",
         "measured": f"rect_dissipation spans cover {100 * share:.1f} % of brute_force_step "
                     "span time on exhaustive_step",
         "verdict": "confirmed" if 0.6 <= share <= 0.8 else "corrected"},
    ]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    base.update({"git_sha": git_sha(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "run_seconds": seconds, "runs": RUNS})
    for workload in (w["name"] for w in spec["workloads"]):
        entry = base.setdefault("workloads", {}).setdefault(workload, {})
        runs = [bench(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry["jobs_per_run"] = [r["attempted"] for r in runs]
        entry["end_to_end"] = {
            m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in runs]),
                            unit=m["unit"], bound=m["bound"])
            for m in spec["end_to_end"]}
        traced = [bench(workload, 0, seconds, 1)["metrics"] for _ in range(2)]
        differ = [k for k in traced[0] if k.rsplit(".", 1)[-1] in COUNTED
                  and traced[0][k]["value"] != traced[1][k]["value"]]
        if differ:
            raise SystemExit(f"{workload}: traced runs counted different work: {differ}")
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced[0].items()}
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:16s} {name:14s} median={stats['median']:.5g} "
                  f"spread={stats['spread']:.4f} bound={stats['bound']}")
        BASELINE.write_text(json.dumps(base, indent=1) + "\n")
    base["roadmap_claims"] = claims(base["workloads"]["exhaustive_step"]["per_layer_seed0"])
    BASELINE.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    main()
