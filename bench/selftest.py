"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that job lists follow the seed, that the candidate count matches a direct
enumeration of CandidateFamily.candidates(), that two traced runs count the
same work, that layer self times add up to the traced wall time, and that
the benchmark refuses to run without the defectflow sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_SECONDS = 0.3
TINY_TRACE_JOBS = 4


def check_metrics_and_units():
    spec = run.benchmark_spec()
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tally, metrics = run.measure(workload, 1, TINY_SECONDS, trace, TINY_TRACE_JOBS,
                                         min_jobs=12)
            line = json.loads(run.result_line(tally, metrics))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            assert printed == declared, (workload, trace, printed, declared)
            for name, value in line["metrics"].items():
                assert isinstance(value["value"], (int, float)), (name, value)


def check_seeding():
    for workload, stream in workloads.WORKLOADS.items():
        first = list(islice(stream(5), 60))
        assert first == list(islice(stream(5), 60)), workload
        assert first != list(islice(stream(6), 60)), workload


def check_candidate_count():
    df = run.load_defectflow()
    lat, flow = df.lattice, df.flow
    for max_offset in range(6):
        for w in range(1, 10):
            for h in (1, 3, 8):
                family = flow.CandidateFamily(lat.AlphaRectangle(0, w - 1, 0, h - 1),
                                              max_offset)
                assert tracing.family_size(family) == len(list(family.candidates()))

    spec = lat.MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=1)
    rect = lat.AlphaRectangle(*workloads.alpha_rect(2, 1, 12, 12))
    eps = F(1, 10)
    config = flow.FlowConfig(spec=spec, gamma=F(25, 24) * rect.height * eps, epsilon=eps,
                             initial=rect, steps=1, mode="brute_force")
    direct = len(list(flow.default_family(config, rect).candidates()))
    rec = tracing.Tracer()
    rec.install(df)
    rec.active = True
    try:
        flow.brute_force_step(config, rect)
    finally:
        rec.active = False
        rec.uninstall()
    assert rec.counts["flow.candidates"] == direct > 0, (rec.counts, direct)


def check_traced_runs():
    for workload in workloads.WORKLOADS:
        _, first = run.run_traced(workload, 2, TINY_TRACE_JOBS)
        _, second = run.run_traced(workload, 2, TINY_TRACE_JOBS)
        counted = [k for k in first if k.rsplit(".", 1)[-1] in tracing.COUNTED]
        assert {k: first[k] for k in counted} == {k: second[k] for k in counted}, workload
        accounted = sum(first[f"{bucket}.self_s"] for bucket in tracing.SELF_BUCKETS)
        assert abs(accounted - first["trace.wall_s"]) <= 0.05 * first["trace.wall_s"], \
            (workload, accounted, first["trace.wall_s"])


def check_refuses_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.*"):
        shutil.copy(path, bare / "bench")
    try:
        res = subprocess.run([sys.executable, "bench/run.py", "--workload", "limit_flow",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert res.returncode != 0 and "correct" not in res.stdout, (res.returncode, res.stdout)


def main():
    for check in (check_seeding, check_candidate_count, check_refuses_without_sources,
                  check_traced_runs, check_metrics_and_units):
        check()
        print(f"ok {check.__name__}")
    print("selftest passed")


if __name__ == "__main__":
    main()
