"""defectflow benchmark: closed-loop job streams with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload velocity_sweep --seed 0 --seconds 36 --trace 0

One client runs the seeded job stream of the workload back to back, in this
process and on one thread: each job is an in-process `defectflow.cli.main`
call with stdout captured, or one library call.  Every job's output is
checked after its timed interval.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics over --seconds seconds of job time,
split across two passes over the same jobs (see run_untraced).
--trace 1 runs a fixed prefix of the stream twice, once plainly and once
with every public defectflow function wrapped by a span recorder, and
reports per-layer counts and self times; the spans go to bench/out/.

--record-digests rewrites bench/digests.json from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Jobs in the traced run, sized so each workload's span store stays near a
# million spans; the same prefix is run untraced to measure the overhead.
TRACE_JOBS = {"velocity_sweep": 100, "limit_flow": 600, "exhaustive_step": 30}
# Jobs per workload whose output digest bench/digests.json holds.
DIGEST_JOBS = {"velocity_sweep": 2000, "limit_flow": 8000, "exhaustive_step": 300}
# Passes over the same job list in an untraced run, and the fewest jobs a
# run may time, so that at least ten latencies lie beyond the p90.
PASSES = 2
MIN_JOBS = 100
# Fresh-interpreter set-up samples per pass, spread over the pass.  setup_s
# is their minimum: the samples fall into a fast and a slow mode, depending
# on how the machine schedules the child, and the fast one is steady.
SETUP_PER_PASS = 12
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import defectflow.cli\n"
    "defectflow.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no defectflow sources)."""


def load_defectflow():
    """Import defectflow from this checkout's src/, dropping any earlier import.

    A fresh import gives each pass fresh module state, so a cache filled by
    one pass cannot serve the next.
    """
    if not (SRC / "defectflow" / "__init__.py").is_file():
        raise BenchError(f"no defectflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "defectflow" or n.startswith("defectflow.")]:
        del sys.modules[name]
    package = importlib.import_module("defectflow")
    if Path(package.__file__).resolve().parent != SRC / "defectflow":
        raise BenchError(f"imported defectflow from {package.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"defectflow.{layer}")
            for layer in tracing.LAYERS}
    return SimpleNamespace(package=package, **mods)


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:12]


def execute(job, df):
    """Run one job; returns (exit code, output, error type or None)."""
    if not job.argv:
        try:
            return 0, repr(workloads.call_library(job, df)), None
        except Exception as exc:  # a failing job is counted, the run goes on
            return 1, "", type(exc).__name__
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = df.cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects arguments by exiting
        return exc.code, out.getvalue(), "SystemExit"
    except Exception as exc:
        return 1, out.getvalue(), type(exc).__name__
    return rc, out.getvalue(), None if rc == 0 else f"exit {rc}"


class Tally:
    """Errors and mismatches counted against the jobs attempted."""

    def __init__(self, workload, seed):
        ref = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        stored = ref.get(workload, "") if seed == DEFAULT_SEED else ""
        self.reference = [stored[i:i + 12] for i in range(0, len(stored), 12)]
        self.attempted = self.errors = self.mismatches = 0
        self.error_types: dict = {}
        self.first_mismatch = None
        self.digests: list = []

    def record(self, index, job, rc, out, error, df):
        self.attempted += 1
        d = digest(rc, out)
        self.digests.append(d)
        if error is not None:
            self.errors += 1
            self.error_types[error] = self.error_types.get(error, 0) + 1
        elif index < len(self.reference) and self.reference[index] != d:
            self._mismatch(index, job, "output digest differs from bench/digests.json")
        else:
            reason = workloads.check(job, out, df)
            if reason is not None:
                self._mismatch(index, job, reason)

    def confirm(self, index, job, rerun_digest):
        """A rerun of job `index` must give the bytes of its first run."""
        if rerun_digest != self.digests[index]:
            self._mismatch(index, job, "output changed between passes")

    def _mismatch(self, index, job, reason):
        self.mismatches += 1
        if self.first_mismatch is None:
            self.first_mismatch = f"job {index} ({' '.join(job.argv) or job.kind}): {reason}"

    def fields(self):
        return {"correct": self.errors == 0 and self.mismatches == 0,
                "attempted": self.attempted,
                "failed": self.errors + self.mismatches}

    def report(self):
        n = max(self.attempted, 1)
        line = (f"jobs={self.attempted} error_frac={self.errors / n:.4f} "
                f"mismatch_frac={self.mismatches / n:.4f}")
        if self.error_types:
            line += f" errors={self.error_types}"
        if self.first_mismatch:
            line += f" first_mismatch={self.first_mismatch}"
        print(line)


def setup_time() -> float:
    """Time, in a fresh interpreter, to import defectflow and build the CLI parser."""
    res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, min_jobs=MIN_JOBS):
    """Closed loop over the stream, then the same jobs again; per-job minimum.

    Pass 1 runs the stream until the jobs have taken seconds / PASSES (and
    at least `min_jobs` jobs); every later pass reruns that job list on a
    fresh import of defectflow.  Each job's latency is its fastest pass,
    which filters the short bursts of slowdown a shared machine imposes,
    while the fresh import keeps any cache from serving one pass's inputs
    to the next.  Later passes must reproduce pass 1's bytes.  Set-up
    samples are taken between jobs, spread evenly over each pass.
    """
    budget = seconds / PASSES
    setup_times = []
    tally = Tally(workload, seed)
    latencies = []
    for n in range(PASSES):
        df = load_defectflow()
        # later passes regenerate the same jobs from the seed rather than
        # keeping them, so the bench's own memory does not grow with speed
        stream = workloads.WORKLOADS[workload](seed)
        jobs = stream if n == 0 else islice(stream, len(latencies))
        busy = 0.0
        samples = 0
        for index, job in enumerate(jobs):
            if n == 0 and busy >= budget and index >= min_jobs:
                break
            if samples < SETUP_PER_PASS and busy >= samples * budget / SETUP_PER_PASS:
                setup_times.append(setup_time())
                samples += 1
            t0 = time.perf_counter()
            rc, out, error = execute(job, df)
            dt = time.perf_counter() - t0
            busy += dt
            if n == 0:
                latencies.append(dt)
                tally.record(index, job, rc, out, error, df)
            else:
                latencies[index] = min(latencies[index], dt)
                tally.confirm(index, job, digest(rc, out))
        setup_times += [setup_time() for _ in range(SETUP_PER_PASS - samples)]
    ms = [1000.0 * t for t in latencies]
    p90 = statistics.quantiles(ms, n=10)[8]
    tally.report()
    print(f"latency samples={len(ms)} beyond_p90={sum(t > p90 for t in ms)} passes={PASSES}")
    metrics = {
        "jobs_per_s": (len(ms) / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return tally, metrics


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "ratio",
                   "brute_step_p50_ms": "ms", "brute_dissipation_frac": "ratio",
                   "trace_overhead_frac": "ratio", "wall_s": "s"}


def run_traced(workload, seed, jobs=None):
    """Untraced then traced pass over the same fixed prefix of the stream."""
    n_jobs = TRACE_JOBS[workload] if jobs is None else jobs
    job_list = list(islice(workloads.WORKLOADS[workload](seed), n_jobs))

    df = load_defectflow()
    t0 = time.perf_counter()
    for job in job_list:
        execute(job, df)
    plain_wall = time.perf_counter() - t0

    df = load_defectflow()
    rec = tracing.Tracer()
    rec.install(df)
    root = rec.name_id("bench.job")
    results = []
    rec.active = True
    t0 = time.perf_counter()
    for job in job_list:
        idx = rec.open(root)
        results.append(execute(job, df))
        rec.close(idx)
    traced_wall = time.perf_counter() - t0
    rec.active = False
    rec.uninstall()

    tally = Tally(workload, seed)
    for index, (job, (rc, out, error)) in enumerate(zip(job_list, results)):
        tally.record(index, job, rc, out, error, df)
    tally.report()

    summary = rec.summary()
    summary["trace.wall_s"] = traced_wall
    summary["trace_overhead_frac"] = traced_wall / plain_wall - 1
    accounted = sum(summary[f"{bucket}.self_s"] for bucket in tracing.SELF_BUCKETS)
    print(f"spans={summary['spans']} traced_wall_s={traced_wall:.4f} "
          f"accounted_s={accounted:.4f} untraced_wall_s={plain_wall:.4f}")
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(OUT_DIR / f"spans-{workload}-seed{seed}.bin",
              {"workload": workload, "seed": seed, "jobs": n_jobs})
    return tally, summary


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(tally, metrics):
    return json.dumps({**tally.fields(),
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def record_digests():
    """Run the first DIGEST_JOBS jobs of each stream at the default seed and store digests."""
    df = load_defectflow()
    stored = {}
    for workload, n in DIGEST_JOBS.items():
        tally = Tally(workload, seed=None)
        for index, job in enumerate(islice(workloads.WORKLOADS[workload](DEFAULT_SEED), n)):
            tally.record(index, job, *execute(job, df), df)
        tally.report()
        if tally.errors or tally.mismatches:
            raise BenchError(f"{workload}: outputs fail their checks; digests not written")
        stored[workload] = "".join(tally.digests)
    DIGESTS.write_text(json.dumps(stored, indent=1) + "\n")


def measure(workload, seed, seconds, trace, trace_jobs=None, min_jobs=MIN_JOBS):
    """One benchmark run: (tally, {metric: (value, unit)}) for the BENCHMARK.json names."""
    spec = benchmark_spec()
    if trace:
        tally, summary = run_traced(workload, seed, trace_jobs)
        return tally, {m["name"]: (summary[m["name"]],
                                   PER_LAYER_UNITS.get(m["name"].rsplit(".", 1)[-1], "count"))
                       for m in spec["per_layer"]}
    tally, measured = run_untraced(workload, seed, seconds, min_jobs)
    return tally, {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.record_digests:
            record_digests()
            return 0
        tally, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
