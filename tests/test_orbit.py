"""Side dynamics: minimizers, orbits, effective velocity."""

import random
from fractions import Fraction

import pytest

from defectflow.lattice import MediumSpec, homogeneous_medium
from defectflow.orbit import (SingularInputError, component_midpoint,
                              component_velocity, effective_velocity,
                              homogeneous_velocity, is_singular, jump_component,
                              pinning_threshold, run_orbit, step_minimizer)

SPEC21 = MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=1)
SPEC11 = MediumSpec(alpha=1, beta=2, n_alpha=1, n_beta=1)


def test_is_singular():
    assert is_singular(SPEC11, Fraction(1))
    assert is_singular(SPEC11, Fraction(3, 4))
    assert not is_singular(SPEC11, Fraction(7, 8))
    half_alpha = MediumSpec(alpha=Fraction(1, 2), beta=1, n_alpha=1, n_beta=1)
    assert is_singular(half_alpha, Fraction(3, 2))
    assert not is_singular(half_alpha, Fraction(3, 4))
    # the grid is (1/(4*alpha))Z: component k = floor(4*alpha*y)
    assert jump_component(1, Fraction(3, 4)) == (3, True)
    assert jump_component(1, Fraction(7, 8)) == (3, False)
    assert jump_component(1, Fraction(1, 10)) == (0, False)
    assert jump_component(1, 2) == (8, True)
    assert jump_component(Fraction(1, 2), Fraction(3, 2)) == (3, True)
    assert jump_component(Fraction(1, 2), Fraction(3, 4)) == (1, False)
    assert jump_component(Fraction(1, 2), Fraction(1, 2)) == (1, True)
    assert component_midpoint(1, 3) == Fraction(7, 8)
    assert component_midpoint(Fraction(1, 2), 1) == Fraction(3, 4)
    for alpha in (Fraction(1), Fraction(1, 2)):
        for k in range(12):
            assert jump_component(alpha, component_midpoint(alpha, k)) == (k, False)
    # f is constant on each component, so its midpoint stands for all of it
    rng = random.Random(8)
    for spec in (SPEC11, SPEC21, half_alpha):
        for _ in range(40):
            y = Fraction(rng.randint(1, 300), rng.randint(1, 24))
            k, on_grid = jump_component(spec.alpha, y)
            if on_grid:
                continue
            mid = component_midpoint(spec.alpha, k)
            assert run_orbit(spec, y).velocity == run_orbit(spec, mid).velocity


def test_pinning_threshold():
    assert pinning_threshold(SPEC11, 1) == Fraction(4, 3)
    assert pinning_threshold(SPEC21, 1) == Fraction(4, 3)
    spec2 = MediumSpec(alpha=1, beta=2, n_alpha=1, n_beta=2)
    assert pinning_threshold(spec2, Fraction(3)) == 3
    assert pinning_threshold(SPEC11, Fraction(1, 2)) == Fraction(2, 3)


def test_step_minimizer_examples():
    assert step_minimizer(SPEC21, Fraction(11, 10), 0) == [1]
    assert step_minimizer(SPEC21, Fraction(7, 5), 0) == [3]


def test_step_minimizer_tie_at_singular_y():
    # vertex falls exactly between two admissible displacements
    ties = step_minimizer(SPEC11, Fraction(3, 4), 0)
    assert ties == [0, 2]


def test_step_minimizer_admissibility():
    spec = MediumSpec(alpha=Fraction(3, 2), beta=2, n_alpha=3, n_beta=2)
    for x in range(spec.period):
        for num in range(1, 40):
            y = Fraction(num, 7)
            for n in step_minimizer(spec, y, x):
                assert n >= 0
                assert (x + n) % spec.period < spec.n_alpha


def test_step_minimizer_beats_other_admissible(in_range=12):
    # exhaustively check optimality of the reported step
    spec = MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=2)
    for x in range(spec.period):
        for num in range(1, 60, 2):
            y = Fraction(num, 8)
            best = step_minimizer(spec, y, x)[0]
            obj_best = -2 * spec.alpha * best + Fraction(best * (best + 1), 2) / y
            for n in range(0, in_range):
                if (x + n) % spec.period >= spec.n_alpha:
                    continue
                obj = -2 * spec.alpha * n + Fraction(n * (n + 1), 2) / y
                assert obj_best <= obj


def test_run_orbit_examples():
    t = run_orbit(SPEC21, Fraction(11, 10))
    assert t.steps[:3] == (1, 2, 1)
    assert (t.period_steps, t.period_cells) == (2, 3)
    assert t.velocity == Fraction(3, 2)
    t = run_orbit(SPEC21, Fraction(7, 5))
    assert t.velocity == 3


def test_run_orbit_pinned():
    t = run_orbit(SPEC21, Fraction(3, 8))
    assert set(t.steps) == {0}
    assert t.period_steps == 1 and t.period_cells == 0
    assert t.velocity == 0


def test_run_orbit_rejects_singular():
    with pytest.raises(SingularInputError):
        run_orbit(SPEC11, Fraction(1))


def test_run_orbit_rejects_bad_x0():
    with pytest.raises(ValueError):
        run_orbit(SPEC21, Fraction(11, 10), 3)


def test_orbit_periodicity_relation():
    # positions[k + M] = positions[k] + n*m for all k >= pre_period
    spec = MediumSpec(alpha=1, beta=2, n_alpha=5, n_beta=2)
    for y in (Fraction(9, 8), Fraction(13, 8), Fraction(17, 8), Fraction(7, 16)):
        for x0 in range(spec.period):
            t = run_orbit(spec, y, x0)
            m = spec.period
            # replay a longer orbit and check the closed-up relation
            pos = [x0]
            for _ in range(3 * (t.pre_period + t.period_steps) + 3):
                step = step_minimizer(spec, y, pos[-1] % m)[0]
                pos.append(pos[-1] + step)
            for k in range(t.pre_period, len(pos) - t.period_steps):
                assert pos[k + t.period_steps] == pos[k] + t.period_cells


def test_effective_velocity_nonsingular():
    res = effective_velocity(SPEC21, Fraction(11, 10))
    assert res.value == Fraction(3, 2)
    assert not res.singular
    assert res.lower == res.upper == res.value
    assert (res.period_steps, res.period_cells) == (2, 3)


def test_effective_velocity_singular_with_agreeing_sides():
    res = effective_velocity(SPEC11, Fraction(1))
    assert res.singular
    assert res.value == 2
    assert res.lower == 2 and res.upper == 2


def test_effective_velocity_singular_jump():
    # at a genuine jump the one-sided values differ and value is absent
    res = effective_velocity(SPEC11, Fraction(3, 4))
    assert res.singular
    assert res.value is None
    assert res.lower == 0
    assert res.upper > 0


def test_component_velocity_matches_run_orbit():
    # the closed form against the Fraction scan at component midpoints; it
    # never reads alpha, so one value must serve every alpha
    rng = random.Random(16)
    alphas = (Fraction(1), Fraction(1, 2), Fraction(3, 2))
    for _ in range(600):
        n_alpha, n_beta, k = rng.randint(1, 12), rng.randint(0, 6), rng.randrange(60)
        specs = [MediumSpec(alpha=a, beta=2 * a if n_beta else None,
                            n_alpha=n_alpha, n_beta=n_beta) for a in alphas]
        f = component_velocity(n_alpha, n_beta, k)
        for spec in specs:
            assert run_orbit(spec, component_midpoint(spec.alpha, k)).velocity == f


def test_effective_velocity_matches_run_orbit():
    # the reset cycle against the walk at random points of a component, not
    # only at its midpoint: f, M and the cells of one period must all agree
    rng = random.Random(19)
    draws = [(rng.randint(1, 12), rng.randint(0, 6), rng.randrange(60)) for _ in range(300)]
    draws += [(rng.randint(10, 150), rng.randint(1, 3), rng.randrange(400)) for _ in range(20)]
    for n_alpha, n_beta, k in draws:
        alpha = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 2)))
        spec = MediumSpec(alpha=alpha, beta=2 * alpha if n_beta else None,
                          n_alpha=n_alpha, n_beta=n_beta)
        y = (k + Fraction(rng.randint(1, 999), 1000)) / (4 * alpha)
        res, trace = effective_velocity(spec, y), run_orbit(spec, y)
        assert not res.singular
        assert ((res.value, res.period_steps, res.period_cells)
                == (trace.velocity, trace.period_steps, trace.period_cells))


def _offset(n_alpha, n_beta, k):
    """c(k) = f - k // 2 on jump-grid component k."""
    return component_velocity(n_alpha, n_beta, k) - k // 2


def test_velocity_offset_is_2m_periodic():
    # proved: component_cycle reads k only through N mod m and the parity of k
    for n_beta in range(7):
        for n_alpha in range(1, 16):
            m = n_alpha + n_beta
            for k in range(6 * m + 10):
                assert (_offset(n_alpha, n_beta, k + 2 * m)
                        == _offset(n_alpha, n_beta, k)), (n_alpha, n_beta, k)


def test_velocity_offset_is_odd_about_one_half():
    # observed, not proved: c(r) = -c(1 - r) modulo 2m
    for n_beta in range(7):
        for n_alpha in range(1, 16):
            m = n_alpha + n_beta
            for r in range(2 * m):
                assert (_offset(n_alpha, n_beta, r)
                        == -_offset(n_alpha, n_beta, (1 - r) % (2 * m))), (n_alpha, n_beta, r)


def test_velocity_offset_range():
    # observed, not proved: |c| <= ceil(n_beta / 2)
    for n_beta in range(4):
        for n_alpha in range(1, 7):
            for r in range(2 * (n_alpha + n_beta)):
                assert abs(_offset(n_alpha, n_beta, r)) <= -(-n_beta // 2), (n_alpha, n_beta, r)


def test_velocity_offset_properties_hold_for_run_orbit():
    # the three properties above, read from the walk at component midpoints
    rng = random.Random(21)
    for _ in range(200):
        alpha = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 2)))
        n_alpha, n_beta = rng.randint(1, 6), rng.randint(0, 3)
        spec = MediumSpec(alpha=alpha, beta=2 * alpha if n_beta else None,
                          n_alpha=n_alpha, n_beta=n_beta)
        m = spec.period
        k = rng.randrange(6 * m + 10)

        def c(j):
            return run_orbit(spec, component_midpoint(alpha, j)).velocity - j // 2

        assert c(k + 2 * m) == c(k) == -c((1 - k) % (2 * m)), (spec, k)
        assert abs(c(k)) <= -(-n_beta // 2), (spec, k)


def test_velocity_x0_independent():
    spec = MediumSpec(alpha=1, beta=3, n_alpha=4, n_beta=1)
    for y in (Fraction(9, 8), Fraction(15, 8), Fraction(23, 8)):
        values = {run_orbit(spec, y, x0).velocity for x0 in range(spec.period)}
        assert len(values) == 1


def test_velocity_monotone_and_band():
    spec = MediumSpec(alpha=1, beta=2, n_alpha=3, n_beta=2)
    prev = None
    y = Fraction(1, 8)
    while y < 8:
        f = run_orbit(spec, y).velocity
        assert abs(f - 2 * spec.alpha * y) <= Fraction(2 * spec.n_beta + 1, 2)
        if prev is not None:
            assert f >= prev
        prev = f
        y += Fraction(1, 4)


def test_velocity_pinned_below_threshold():
    for spec in (SPEC11, SPEC21, MediumSpec(alpha=Fraction(1, 2), beta=1,
                                            n_alpha=2, n_beta=3)):
        thr_y = Fraction(spec.n_beta + 2, 4) / spec.alpha
        y = thr_y / 8
        while y < thr_y:
            if not is_singular(spec, y):
                assert run_orbit(spec, y).velocity == 0
            y += thr_y / 8


def test_velocity_beta_independent():
    a = MediumSpec(alpha=1, beta=2, n_alpha=3, n_beta=1)
    b = MediumSpec(alpha=1, beta=100, n_alpha=3, n_beta=1)
    y = Fraction(1, 8)
    while y < 6:
        assert run_orbit(a, y).velocity == run_orbit(b, y).velocity
        y += Fraction(1, 4)


def test_homogeneous_velocity_reduction():
    hom = homogeneous_medium(Fraction(3, 2))
    y = Fraction(1, 16)
    while y < 5:
        if not is_singular(hom, y):
            f = run_orbit(hom, y).velocity
            assert f == homogeneous_velocity(hom.alpha, y)
        y += Fraction(1, 8)


def test_random_draws_invariants():
    rng = random.Random(20260826)
    for _ in range(120):
        n_alpha = rng.randint(1, 6)
        n_beta = rng.randint(0, 3)
        alpha = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        beta = alpha + rng.randint(1, 3) if n_beta else None
        spec = MediumSpec(alpha=alpha, beta=beta, n_alpha=n_alpha, n_beta=n_beta)
        while True:
            y = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            if not is_singular(spec, y):
                break
        velocities = set()
        for x0 in range(spec.period):
            t = run_orbit(spec, y, x0)
            assert t.pre_period <= spec.n_alpha
            assert t.period_steps <= spec.n_alpha
            velocities.add(t.velocity)
        assert len(velocities) == 1
