"""Seeded job streams for the benchmark workloads, and the checks on their output.

A job is one in-process `defectflow.cli.main(argv)` call, or one library call
where the CLI has no matching subcommand.  Each stream is an endless
generator built from rounds: one round holds one job from every stratum of
the workload's parameter space.  The seed picks the inputs inside each
stratum; the order of strata is the same for every seed, so a run that stops
after any number of jobs sees the same mix of expensive and cheap jobs
whatever the seed, which keeps run-to-run spread small.

Checks need no stored reference: they recompute an independent quantity
with the library (closed forms, the per-side step) or test a structural
property of the output.  They run outside the timed and traced intervals.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

ALPHAS = (F(1), F(1, 2), F(3, 2))


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple = ()
    params: tuple = ()

    @property
    def p(self) -> dict:
        return dict(self.params)


def fr(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def medium_argv(alpha, n_alpha, n_beta) -> tuple:
    return ("--alpha", fr(alpha), "--beta", fr(2 * alpha),
            "--n-alpha", str(n_alpha), "--n-beta", str(n_beta))


def rounds(strata, make):
    """Endless stream: each round makes one job per stratum, in the given order.

    Callers list the strata with the dimensions that set a job's cost
    varying fastest, so every stretch of a round, and hence a run cut off
    by time at any job, holds nearly the whole round's mix of cheap and
    expensive jobs, whatever the seed.  The seed picks the inputs inside
    each stratum.
    """
    while True:
        for stratum in strata:
            yield from make(stratum)


def interleave(major, minor):
    """`major` with the items of `minor` spread evenly between them."""
    out, taken = [], 0
    for i, item in enumerate(major, 1):
        out.append(item)
        due = i * len(minor) // len(major)
        out.extend(minor[taken:due])
        taken = due
    return out


# -- velocity_sweep ----------------------------------------------------------

N_ALPHA_BANDS = ((10, 40), (41, 80), (81, 115), (116, 150))
COMPONENTS = 80  # Y up to 20/alpha, as in the oracle-equivalence sweep


def velocity_sweep(seed: int):
    """velocity-table and orbit jobs on large-period media, after one validate job.

    No (medium, jump-grid component) pair is visited twice in a stream, so
    the Y grids of different jobs are disjoint and a velocity cache keyed by
    medium and component finds nothing to reuse.
    """
    rng = random.Random(seed)
    used = set()

    def fresh_component(medium, first, count):
        for _ in range(1000):
            k0 = rng.randint(first, COMPONENTS - count)
            ks = {(medium, k) for k in range(k0, k0 + count)}
            if not ks & used:
                used.update(ks)
                return k0
        raise RuntimeError("velocity_sweep ran out of fresh components")

    def offset():
        # an odd numerator keeps Y off the jump grid and off component midpoints
        return F(2 * rng.randrange(1, 2 ** 19) + 1, 2 ** 20)

    def make(stratum):
        kind, n_beta, alpha, (lo, hi) = stratum
        n_alpha = rng.randint(lo, hi)
        medium = (alpha, n_alpha, n_beta)
        h = 1 / (4 * alpha)
        if kind == "table":
            count = rng.randint(3, 5)
            k0 = fresh_component(medium, 0, count)
            u = offset()
            start = (k0 + u) * h
            stop = (k0 + count - 1 + u) * h
            argv = ("velocity-table", *medium_argv(*medium),
                    "--y-grid", f"{fr(start)}:{fr(stop)}:{fr(h)}")
            ys = tuple((k0 + i + u) * h for i in range(count))
            yield Job("velocity-table", argv, (("medium", medium), ("ys", ys)))
            return
        x0 = rng.randrange(n_alpha + n_beta)
        if rng.randrange(8) == 0:
            # a jump point: the CLI reports both one-sided velocities
            k = fresh_component(medium, 1, 2) + 1
            y = k * h
        else:
            y = (fresh_component(medium, 0, 1) + offset()) * h
        argv = ("orbit", *medium_argv(*medium), "--y", fr(y), "--x0", str(x0),
                "--format", "json")
        yield Job("orbit", argv, (("medium", medium), ("y", y)))

    yield Job("validate", ("validate", "--n-alpha-max", "12"))
    strata = [(kind, n_beta, alpha, band)
              for n_beta in (1, 2, 3) for alpha in ALPHAS
              for kind in ("table", "orbit") for band in N_ALPHA_BANDS]
    yield from rounds(strata, make)


# -- limit_flow --------------------------------------------------------------

GAMMA_BANDS = ((1, 5), (5, 25), (25, 100))
EPSILONS = (F(1, 40), F(1, 80), F(1, 160), F(1, 320))


def alpha_type_span(n_alpha, n_beta, cells):
    """Alpha-type [lo, hi] of at least `cells` cells starting at the first weak row."""
    m = n_alpha + n_beta
    lo = n_beta + 1
    hi = lo + max(cells, 1) - 1
    while hi % m < n_beta:
        hi += 1
    return lo, hi


def limit_flow(seed: int):
    """evolve jobs across the pinned, mixed and vanishing regimes, each paired
    with a per-side simulate job on the matching rectangle."""
    rng = random.Random(seed)

    def factor(below):
        # side length as a multiple of the pinning threshold, never equal to it
        return F(rng.randint(16, 63), 64) if below else F(rng.randint(65, 192), 64)

    def make(stratum):
        regime, n_beta, (g_lo, g_hi), eps = stratum
        alpha = rng.choice(ALPHAS)
        n_alpha = rng.randint(1, 8)
        gamma = F(rng.randint(4 * g_lo, 4 * g_hi), 4)
        thr = 4 * gamma * alpha / (n_beta + 2)
        below = {"pinned": (False, False), "vanishing": (True, True),
                 "mixed": (True, False)}[regime]
        if regime == "mixed" and rng.randrange(2):
            below = below[::-1]
        l1, l2 = (factor(b) * thr for b in below)
        t_max = max(l1, l2) ** 2 / (8 * alpha) * F(rng.randint(16, 128), 64)
        medium = (alpha, n_alpha, n_beta)
        argv = ("evolve", *medium_argv(*medium), "--gamma", fr(gamma),
                "--l1", fr(l1), "--l2", fr(l2), "--t-max", fr(t_max),
                "--format", "json")
        yield Job("evolve", argv, (("l1", l1), ("l2", l2), ("t_max", t_max)))
        x_min, x_max = alpha_type_span(n_alpha, n_beta, round(l1 / eps))
        y_min, y_max = alpha_type_span(n_alpha, n_beta, round(l2 / eps))
        rect = (x_min, x_max, y_min, y_max)
        argv = ("simulate", *medium_argv(*medium), "--gamma", fr(gamma),
                "--epsilon", fr(eps), "--steps", str(rng.randint(1, 4)),
                "--rect", ":".join(map(str, rect)), "--mode", "per-side")
        yield Job("simulate", argv, (("rect", rect),))

    strata = [(regime, n_beta, band, eps)
              for n_beta in (1, 2, 3) for regime in ("pinned", "mixed", "vanishing")
              for band in GAMMA_BANDS for eps in EPSILONS]
    yield from rounds(strata, make)


# -- exhaustive_step ---------------------------------------------------------

STEP_MEDIA = ((2, 1), (1, 2), (1, 1), (3, 1))
STEP_YS = (F(7, 8), F(25, 24), F(13, 12))


def alpha_rect(n_alpha, n_beta, nx, ny, shift=0):
    """An alpha-type rectangle of roughly nx by ny cells, as the acceptance tests build it."""
    m = n_alpha + n_beta
    x_min = n_beta + 1 + shift
    if x_min % m and x_min % m <= n_beta:
        x_min += n_beta + 1 - x_min % m
    x_max = x_min + nx - 1
    x_max -= (x_max - (m - 1)) % m
    y_min = n_beta + 1
    y_max = y_min + ny - 1
    y_max -= (y_max - (m - 1)) % m
    return (x_min, x_max, y_min, y_max)


def exhaustive_step(seed: int):
    """Brute-force simulate jobs from the discrete-flow consistency space,
    with comparison-principle library jobs alongside."""
    rng = random.Random(seed)

    def make(stratum):
        if stratum[0] == "comparison":
            _, (n_alpha, n_beta), mode, steps = stratum
            eps = F(1, 20)
            if mode == "contains":
                outer = alpha_rect(n_alpha, n_beta, 56, 56)
                inset = rng.randint(8, 20)
                inner = (outer[0] + inset, outer[1] - inset,
                         outer[2] + inset, outer[3] - inset)
            else:
                outer = alpha_rect(n_alpha, n_beta, 40, 40)
                gap = rng.randint(4, 8)
                inner = (outer[1] + gap, outer[1] + gap + 20, outer[2], outer[2] + 20)
            gamma = F(25, 24) * (outer[3] - outer[2] + 1) * eps
            yield Job("comparison", (), (
                ("medium", (F(1), n_alpha, n_beta)), ("gamma", gamma), ("epsilon", eps),
                ("inner", inner), ("outer", outer), ("steps", steps), ("mode", mode)))
            return
        _, (n_alpha, n_beta), yt, (nx, ny), eps, steps = stratum
        rect = alpha_rect(n_alpha, n_beta, nx, ny, rng.randrange(2))
        gamma = yt * (rect[3] - rect[2] + 1) * eps
        medium = (F(1), n_alpha, n_beta)
        argv = ("simulate", *medium_argv(*medium), "--gamma", fr(gamma),
                "--epsilon", fr(eps), "--steps", str(steps),
                "--rect", ":".join(map(str, rect)), "--mode", "brute")
        yield Job("simulate", argv, (("medium", medium), ("gamma", gamma),
                                     ("epsilon", eps), ("rect", rect)))

    brute = [("brute", medium, yt, size, eps, steps)
             for eps in (F(1, 10), F(1, 20), F(1, 40))
             for medium in STEP_MEDIA for yt in STEP_YS
             if not (medium[1] == 2 and yt <= 1)  # pinned: no motion to compare
             for size in ((60, 60), (60, 30)) for steps in (1, 2)]
    # 1-2 steps, like the brute jobs, so that no small group of slow
    # comparison jobs sits at the 90th percentile of the latencies
    comparison = [("comparison", medium, mode, steps)
                  for steps in (1, 2) for medium in STEP_MEDIA
                  for mode in ("contains", "disjoint")]
    yield from rounds(interleave(brute, comparison), make)


WORKLOADS = {
    "velocity_sweep": velocity_sweep,
    "limit_flow": limit_flow,
    "exhaustive_step": exhaustive_step,
}


# -- running and checking ----------------------------------------------------

def _spec(df, medium):
    alpha, n_alpha, n_beta = medium
    return df.lattice.MediumSpec(alpha=alpha, beta=2 * alpha,
                                 n_alpha=n_alpha, n_beta=n_beta)


def call_library(job: Job, df):
    """Run a job that has no CLI form; returns its result."""
    p = job.p
    rect = df.lattice.AlphaRectangle
    return df.flow.comparison_check(_spec(df, p["medium"]), p["gamma"], p["epsilon"],
                                    rect(*p["inner"]), rect(*p["outer"]),
                                    steps=p["steps"], mode=p["mode"])


def _closed_form(df, medium, y):
    alpha, n_alpha, n_beta = medium
    return df.closedform.closed_form_velocity(n_alpha, n_beta, alpha, y).value


def _check_velocity_table(job, out, df):
    p = job.p
    rows = list(csv.DictReader(io.StringIO(out)))
    if [F(r["y"]) for r in rows] != list(p["ys"]):
        return "y grid differs from the requested one"
    if p["medium"][2] in (1, 2):
        for r in rows:
            if r["singular"] != "false" or F(r["f"]) != _closed_form(df, p["medium"], F(r["y"])):
                return f"orbit velocity {r['f']} != closed form at y = {r['y']}"
    return None


def _check_orbit(job, out, df):
    p = job.p
    data = json.loads(out)
    medium, y = p["medium"], p["y"]
    if data["singular"]:
        half = 1 / (8 * medium[0])
        got = (F(data["f_lower"]), F(data["f_upper"]))
        if medium[2] in (1, 2):
            want = (_closed_form(df, medium, y - half), _closed_form(df, medium, y + half))
            if got != want:
                return f"one-sided velocities {got} != closed forms {want}"
        return None
    if len(data["positions"]) != len(data["steps"]) + 1:
        return "orbit positions and steps disagree"
    if F(data["velocity"]) != F(data["period_cells"], data["period_steps"]):
        return "velocity is not period_cells / period_steps"
    if medium[2] in (1, 2) and F(data["velocity"]) != _closed_form(df, medium, y):
        return f"orbit velocity {data['velocity']} != closed form at y = {fr(y)}"
    return None


def _check_validate(job, out, df):
    if out != "PASS oracle_equivalence\nPASS invariants\n":
        return "validate did not pass both checks"
    return None


def _check_evolve(job, out, df):
    p = job.p
    segs = json.loads(out)["segments"]
    if not segs:
        return "no segments"
    first = segs[0]
    if (F(first["t_start"]), F(first["l1_start"]), F(first["l2_start"])) != (0, p["l1"], p["l2"]):
        return "first segment does not start at the initial state"
    for a, b in zip(segs, segs[1:]):
        dt = F(a["t_end"]) - F(a["t_start"])
        if F(a["t_end"]) != F(b["t_start"]):
            return "segments are not contiguous in time"
        if (F(a["l1_start"]) + F(a["slope1"]) * dt != F(b["l1_start"])
                or F(a["l2_start"]) + F(a["slope2"]) * dt != F(b["l2_start"])):
            return "segments are not contiguous in length"
    for s in segs:
        if F(s["slope1"]) > 0 or F(s["slope2"]) > 0 or F(s["t_end"]) < F(s["t_start"]):
            return "a side length increases"
    if F(segs[-1]["t_end"]) > p["t_max"]:
        return "trajectory runs past t_max"
    return None


def _check_simulate(job, out, df):
    """Rows nest; for the exhaustive stepper the winner beats the per-side step."""
    p = job.p
    brute = "brute" in job.argv
    rect_cls = df.lattice.AlphaRectangle
    cur = rect_cls(*p["rect"])
    if brute:
        spec = _spec(df, p["medium"])
        cfg = df.flow.FlowConfig(spec=spec, gamma=p["gamma"], epsilon=p["epsilon"],
                                 initial=cur, steps=1, mode="brute_force")
    for row in csv.DictReader(io.StringIO(out)):
        nxt = rect_cls(int(row["x_min"]), int(row["x_max"]),
                       int(row["y_min"]), int(row["y_max"]))
        if not cur.contains(nxt):
            return f"step {row['step']} does not nest in the previous rectangle"
        ps = df.flow.per_side_step(cfg, cur) if brute else None
        if ps is not None:
            eps, tau = cfg.epsilon, cfg.tau
            lat = df.lattice
            f_bf = lat.rect_perimeter_energy(spec, nxt, eps) + lat.rect_dissipation(cur, nxt, eps, tau)
            f_ps = lat.rect_perimeter_energy(spec, ps, eps) + lat.rect_dissipation(cur, ps, eps, tau)
            if f_bf > f_ps:
                return f"step {row['step']}: exhaustive winner worse than the per-side step"
        cur = nxt
    return None


def _check_comparison(job, out, df):
    return None if out == "True" else "comparison principle violated"


CHECKS = {
    "velocity-table": _check_velocity_table,
    "orbit": _check_orbit,
    "validate": _check_validate,
    "evolve": _check_evolve,
    "simulate": _check_simulate,
    "comparison": _check_comparison,
}


def check(job: Job, out: str, df):
    """None when the output passes the job's reference-free checks, else a reason."""
    try:
        return CHECKS[job.kind](job, out, df)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
