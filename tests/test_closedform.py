"""Closed-form velocities against the orbit dynamics."""

import dataclasses
from fractions import Fraction

import pytest

from defectflow.closedform import closed_form_velocity, CASE_LABELS
from defectflow.lattice import MediumSpec
from defectflow.orbit import SingularInputError, run_orbit
from defectflow.validation import component_midpoints, oracle_equivalence_failures


def test_nb1_example_formula():
    # single weak row per period: f = 2*floor(alpha*y + 1/4)
    alpha = Fraction(1)
    y = Fraction(1, 8)
    while y <= 10:
        res = closed_form_velocity(1, 1, alpha, y)
        assert res.value == 2 * ((alpha * y + Fraction(1, 4)).__floor__())
        y += Fraction(1, 4)


def test_nb2_example_formula():
    # one weak row against two strong ones: f = 3*floor(2*alpha*y/3 + 1/3)
    alpha = Fraction(1)
    y = Fraction(1, 8)
    while y <= 10:
        res = closed_form_velocity(1, 2, alpha, y)
        assert res.value == 3 * ((2 * alpha * y / 3 + Fraction(1, 3)).__floor__())
        y += Fraction(1, 4)


def test_singular_input_with_agreeing_sides():
    # f is continuous across y=1 here, so the value is still returned
    res = closed_form_velocity(1, 1, Fraction(1), Fraction(1))
    assert res.value == 2


def test_singular_input_at_jump_raises():
    with pytest.raises(SingularInputError):
        closed_form_velocity(1, 1, Fraction(1), Fraction(3, 4))


def test_case_labels_are_known():
    for n_alpha in range(1, 7):
        for n_beta in range(7):
            for y in component_midpoints(Fraction(1), Fraction(8)):
                res = closed_form_velocity(n_alpha, n_beta, Fraction(1), y)
                assert res.case.label in CASE_LABELS


def test_case_labels_match_velocity_side():
    # within one row of N for the paper's n_beta <= 2; past that the label gives
    # the sign of f - N, and a deflection still moves a side at most n_beta rows
    for n_alpha in range(1, 9):
        for n_beta in range(1, 7):
            reach = 1 if n_beta <= 2 else n_beta
            for y in component_midpoints(Fraction(1), Fraction(10)):
                res = closed_form_velocity(n_alpha, n_beta, Fraction(1), y)
                hom = (2 * y).__floor__()
                if res.case.label == "a2_no_defect":
                    assert res.value == hom
                    continue
                assert res.case.n_bar == (res.value - hom).denominator
                if res.case.label == "a1_decel":
                    assert hom - reach <= res.value < hom
                elif res.case.label == "a1_accel":
                    assert hom < res.value <= hom + reach
                else:
                    assert res.value != hom or res.value == 0


def test_congruence_data_consistency():
    # the defect recurs every n_bar steps: the smallest n >= 1 with N*n = 1
    # (mod m) where the defect slows the side down, N*n = -1 where it speeds up
    branches = set()
    for n_alpha in range(1, 10):
        for n_beta in (1, 2):
            m = n_alpha + n_beta
            for y in component_midpoints(Fraction(1), Fraction(12)):
                res = closed_form_velocity(n_alpha, n_beta, Fraction(1), y)
                case = res.case
                if case.n_bar is None:
                    continue
                assert 1 <= case.n_bar < m
                big_n = (2 * y).__floor__()
                c = 1 if res.value < big_n else -1
                scan = next(n for n in range(1, m + 1) if (big_n * n - c) % m == 0)
                assert case.n_bar == scan
                branches.add((n_beta, c))
    assert branches == {(1, 1), (1, -1), (2, 1), (2, -1)}


def test_matches_orbit_small_grid():
    # one law for every n_beta, not only the paper's one and two strong rows
    for n_alpha in range(1, 7):
        for n_beta in range(7):
            spec = MediumSpec(alpha=Fraction(3, 2), beta=2 if n_beta else None,
                              n_alpha=n_alpha, n_beta=n_beta)
            for y in component_midpoints(spec.alpha, Fraction(8)):
                closed = closed_form_velocity(n_alpha, n_beta, spec.alpha, y)
                assert closed.value == run_orbit(spec, y).velocity


def test_rejects_negative_n_beta():
    with pytest.raises(ValueError):
        closed_form_velocity(1, -1, Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize("n_alpha, n_beta, y, steps, value, label", [
    (2, 2, Fraction(9, 8), (1, 3, 1), Fraction(2), "a2_no_defect"),
    (2, 3, Fraction(11, 8), (1, 4, 1), Fraction(5, 2), "a1_accel"),
    # N = 2 and both steps fall two rows short: a1_decel with n_bar 1 past n_beta = 2
    (1, 3, Fraction(9, 8), (0, 0), Fraction(0), "a1_decel"),
])
def test_two_deflections_per_period(n_alpha, n_beta, y, steps, value, label):
    # the orbit from 0 deflects down onto n_alpha - 1, then up onto 0: a period
    # can hold two deflections, which may even cancel
    spec = MediumSpec(alpha=1, beta=2, n_alpha=n_alpha, n_beta=n_beta)
    trace = run_orbit(spec, y)
    assert trace.steps == steps
    assert trace.velocity == value
    closed = closed_form_velocity(n_alpha, n_beta, 1, y)
    assert (closed.value, closed.case.label) == (value, label)
    big_n = (2 * y).__floor__()
    assert closed.case.n_bar == (None if value == big_n else (value - big_n).denominator)


def test_mismatch_injection_is_detected(monkeypatch):
    def off_by_one(*args):
        exact = closed_form_velocity(*args)
        return dataclasses.replace(exact, value=exact.value + 1)

    monkeypatch.setattr("defectflow.validation.closed_form_velocity", off_by_one)
    fails = oracle_equivalence_failures(n_alpha_max=1)
    assert fails and all(closed == orbit + 1 for *_, closed, orbit in fails)
