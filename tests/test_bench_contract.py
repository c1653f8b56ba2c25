"""The names and outputs that the benchmark under bench/ relies on.

The first jobs of each bench stream run in-process on the already imported
package, with the bench's span tracer installed, and must pass the bench's
own checks and its stored seed-0 digests.  A change that drops or renames a
function, option or field the bench reads fails here, in seconds, rather
than in a full bench run.  Nothing is written to disk.
"""

import importlib
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import defectflow

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
JOBS = {"velocity_sweep": 8, "limit_flow": 24, "exhaustive_step": 6}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))  # run.py imports tracer and workloads from there
    run = importlib.import_module("run")
    # the modules already imported: run.load_defectflow would import the
    # package afresh under the other tests
    df = SimpleNamespace(package=defectflow, **{
        layer: importlib.import_module(f"defectflow.{layer}")
        for layer in run.tracing.LAYERS})
    return run, df


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_bench_jobs_pass_their_checks_under_the_tracer(bench, workload):
    run, df = bench
    jobs = list(islice(run.workloads.WORKLOADS[workload](run.DEFAULT_SEED), JOBS[workload]))
    rec = run.tracing.Tracer()
    rec.install(df)
    rec.active = True
    try:
        results = [run.execute(job, df) for job in jobs]
    finally:
        rec.active = False
        rec.uninstall()
    tally = run.Tally(workload, run.DEFAULT_SEED)
    for index, (job, result) in enumerate(zip(jobs, results)):
        tally.record(index, job, *result, df)
    assert (tally.errors, tally.mismatches) == (0, 0), (tally.error_types, tally.first_mismatch)
    summary = rec.summary()
    counted = {"velocity_sweep": ("orbit.steps", "orbit.run_orbit.calls"),
               "limit_flow": ("evolution.segments", "flow.per_side_steps"),
               "exhaustive_step": ("flow.candidates", "flow.brute_force_step.calls")}
    for name in counted[workload]:
        assert summary[name] > 0, name


def test_bench_candidate_count_matches_the_family(bench):
    run, df = bench
    lat, flow = df.lattice, df.flow
    spec = lat.MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=1)
    rect = lat.AlphaRectangle(*run.workloads.alpha_rect(2, 1, 12, 12))
    eps = Fraction(1, 10)
    config = flow.FlowConfig(spec=spec, gamma=Fraction(25, 24) * rect.height * eps,
                             epsilon=eps, initial=rect, steps=1, mode="brute_force")
    family = flow.default_family(config, rect)
    assert run.tracing.family_size(family) == len(list(family.candidates())) > 0
    df.cli.build_parser()  # bench/run.py times this in a fresh interpreter for setup_s
