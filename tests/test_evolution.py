"""Limit rectangle evolution: regimes and exact event-driven integration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectflow import evolution
from defectflow.evolution import (RectState, _next_change, classify_regime,
                                  integrate, velocity_of_length)
from defectflow.lattice import MediumSpec, homogeneous_medium
from defectflow.orbit import jump_component, pinning_threshold
from defectflow.rationals import rational_floor

SPEC11 = MediumSpec(alpha=1, beta=2, n_alpha=1, n_beta=1)


def test_classify_regime():
    # threshold is 4/3 here
    assert classify_regime(SPEC11, 1, 2, 2) == "pinned"
    assert classify_regime(SPEC11, 1, 1, 1) == "vanishing"
    assert classify_regime(SPEC11, 1, 1, 2) == "mixed"
    assert classify_regime(SPEC11, 1, Fraction(4, 3), Fraction(4, 3)) == "mixed"
    assert classify_regime(SPEC11, 1, 1, Fraction(4, 3)) == "vanishing"


def test_velocity_of_length_uses_component_above_at_jumps():
    # L = 1 gives y = 1, a grid point; the component above has f = 4
    assert velocity_of_length(SPEC11, 1, Fraction(4, 7)) == 4
    assert velocity_of_length(SPEC11, 1, 1) == 2


def _next_change_by_walk(spec, gamma, length):
    # unbounded walk up the jump grid, one step of 1/(4*alpha) at a time
    h = Fraction(1, 4) / spec.alpha
    current = velocity_of_length(spec, gamma, length)
    y_next = (rational_floor(gamma / length / h) + 1) * h
    while velocity_of_length(spec, gamma, gamma / y_next) == current:
        y_next += h
    return gamma / y_next


def test_next_change_length_matches_unbounded_walk():
    rng = random.Random(20)
    for n_beta in (0, 1, 2, 3):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            spec = MediumSpec(alpha=alpha, beta=2 * alpha if n_beta else None,
                              n_alpha=rng.randint(1, 4), n_beta=n_beta)
            for case in range(16):
                q = rng.randint(1, 4)
                gamma = Fraction(rng.randint(1, 100 * q), q)
                # y = gamma / length = j / (4 * alpha): on the grid for integer j
                if case % 2 == 0:
                    j = Fraction(rng.randint(1, 48))
                else:
                    j = rng.randint(0, 48) + Fraction(rng.randint(1, 6), 7)
                length = gamma * 4 * alpha / j
                f = evolution._component_velocities(spec, gamma)
                k = jump_component(alpha, gamma / length)[0]
                assert 4 * alpha * gamma / _next_change(spec, k, f) == \
                    _next_change_by_walk(spec, gamma, length)


def test_integrate_evaluates_each_component_once(monkeypatch):
    seen = []
    direct = evolution.velocity_of_length

    def counted(spec, gamma, length):
        seen.append(jump_component(spec.alpha, Fraction(gamma) / length)[0])
        return direct(spec, gamma, length)
    monkeypatch.setattr(evolution, "velocity_of_length", counted)
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=2)
    assert len(seen) == len(set(seen))
    for seg in traj.segments:
        assert jump_component(1, 1 / seg.l1_start)[0] in seen


@st.composite
def limit_flow_case(draw):
    # the regime bands of the bench's limit_flow evolve jobs
    n_beta = draw(st.integers(0, 3))
    alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    spec = MediumSpec(alpha=alpha, beta=2 * alpha if n_beta else None,
                      n_alpha=draw(st.integers(1, 8)), n_beta=n_beta)
    gamma = Fraction(draw(st.integers(4, 400)), 4)
    thr = pinning_threshold(spec, gamma)
    # each side below (16..63) or above (65..192) the threshold, in 64ths
    factor = st.one_of(st.integers(16, 63), st.integers(65, 192))
    l1, l2 = (thr * Fraction(draw(factor), 64) for _ in range(2))
    t_max = max(l1, l2) ** 2 / (8 * alpha) * Fraction(draw(st.integers(16, 128)), 64)
    return spec, gamma, l1, l2, t_max


@settings(derandomize=True, deadline=None, max_examples=40)
@given(limit_flow_case())
def test_integrate_events_match_direct_velocity_lookups(case):
    spec, gamma, l1, l2, t_max = case
    traj = integrate(spec, gamma, RectState(l1=l1, l2=l2), t_max=t_max)

    def f(length):
        return velocity_of_length(spec, gamma, length)
    for seg in traj.segments:
        assert (seg.slope1, seg.slope2) == (-2 * f(seg.l2_start) / gamma,
                                            -2 * f(seg.l1_start) / gamma)
        mid1, mid2 = seg.lengths_at((seg.t_start + seg.t_end) / 2)
        assert (f(mid1), f(mid2)) == (f(seg.l1_start), f(seg.l2_start))
    for seg, nxt in zip(traj.segments, traj.segments[1:]):
        assert seg.lengths_at(seg.t_end) == (nxt.l1_start, nxt.l2_start)
        assert (f(nxt.l1_start), f(nxt.l2_start)) != (f(seg.l1_start), f(seg.l2_start))


def test_unit_square_first_event():
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=2)
    assert traj.regime == "vanishing"
    first = traj.segments[0]
    assert (first.t_start, first.t_end) == (0, Fraction(3, 28))
    assert first.slope1 == first.slope2 == -4
    assert first.lengths_at(Fraction(3, 28)) == (Fraction(4, 7), Fraction(4, 7))
    second = traj.segments[1]
    assert second.slope1 == second.slope2 == -8


def test_unit_square_collapse_is_bracketed():
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=2)
    assert traj.stop_reason == "collapse"
    lo, hi = traj.extinction_window
    assert 0 < lo < hi < 2
    assert traj.t_end == lo


def test_square_stays_square_and_shrinks():
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=2)
    prev = None
    for seg in traj.segments:
        assert seg.l1_start == seg.l2_start
        assert seg.slope1 == seg.slope2 <= 0
        if prev is not None:
            assert seg.l1_start <= prev
        prev = seg.l1_start


def test_pinned_square():
    traj = integrate(SPEC11, 1, RectState(l1=10, l2=10), t_max=5)
    assert traj.regime == "pinned"
    assert traj.stop_reason == "pinned"
    assert traj.extinction_window is None
    assert len(traj.segments) == 1
    assert traj.segments[0].slope1 == traj.segments[0].slope2 == 0
    assert traj.lengths_at(5) == (10, 10)


def test_mixed_regime_larger_side_erodes():
    # smaller side below threshold keeps eroding the long pair
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=3), t_max=Fraction(1, 10))
    first = traj.segments[0]
    assert traj.regime == "mixed"
    assert first.slope1 == 0      # short pair has pinned opposite length
    assert first.slope2 < 0       # long pair driven by the short length


def test_prefix_reproducibility():
    traj = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=2)
    cut = traj.segments[1].t_start
    again = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=cut)
    assert again.segments == (traj.segments[0],)


def test_homogeneous_square_matches_direct_law():
    # without strong bonds the slopes follow -(2/gamma)*floor(2*alpha*gamma/L)
    hom = homogeneous_medium(1)
    traj = integrate(hom, 1, RectState(l1=Fraction(3, 2), l2=Fraction(3, 2)),
                     t_max=1)
    for seg in traj.segments:
        L = seg.l1_start
        y = Fraction(1) / L
        expected = (2 * y).__floor__()
        if (4 * y).denominator == 1:
            expected = (2 * (y + Fraction(1, 8))).__floor__()
        assert seg.slope1 == -2 * expected


def test_monotone_comparison_of_squares():
    # a square starting inside another stays inside (lengths stay ordered)
    small = integrate(SPEC11, 1, RectState(l1=Fraction(3, 4), l2=Fraction(3, 4)),
                      t_max=Fraction(1, 50))
    big = integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=Fraction(1, 50))
    for k in range(0, 21):
        t = Fraction(k, 1000)
        assert small.lengths_at(t)[0] <= big.lengths_at(t)[0]


def test_integrate_rejects_bad_t_max():
    with pytest.raises(ValueError):
        integrate(SPEC11, 1, RectState(l1=1, l2=1), t_max=0)
