"""Closed-form velocities against the orbit dynamics."""

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
        for n_beta in (1, 2):
            for y in component_midpoints(Fraction(1), Fraction(8)):
                res = closed_form_velocity(n_alpha, n_beta, Fraction(1), y)
                assert res.case.label in CASE_LABELS


def test_case_labels_match_velocity_side():
    for n_alpha in range(1, 9):
        for n_beta in (1, 2):
            for y in component_midpoints(Fraction(1), Fraction(10)):
                res = closed_form_velocity(n_alpha, n_beta, Fraction(1), y)
                hom = (2 * y).__floor__()
                if res.case.label == "a2_no_defect":
                    assert res.value == hom
                elif res.case.label == "a1_decel":
                    assert hom - 1 <= res.value < hom
                elif res.case.label == "a1_accel":
                    assert hom < res.value <= hom + 1
                else:
                    assert res.value != hom or res.value == 0


def test_congruence_data_consistency():
    for n_alpha in range(1, 10):
        m1, m2 = n_alpha + 1, n_alpha + 2
        for y in component_midpoints(Fraction(1), Fraction(12)):
            r1 = closed_form_velocity(n_alpha, 1, Fraction(1), y)
            if r1.case.n_bar is not None:
                assert 1 <= r1.case.n_bar < m1
            r2 = closed_form_velocity(n_alpha, 2, Fraction(1), y)
            if r2.case.n_bar is not None:
                assert 1 <= r2.case.n_bar < m2


def test_matches_orbit_small_grid():
    for n_alpha in range(1, 7):
        for n_beta in (1, 2):
            spec = MediumSpec(alpha=Fraction(3, 2), beta=2, n_alpha=n_alpha,
                              n_beta=n_beta)
            for y in component_midpoints(spec.alpha, Fraction(8)):
                closed = closed_form_velocity(n_alpha, n_beta, spec.alpha, y)
                assert closed.value == run_orbit(spec, y).velocity


def test_rejects_unsupported_n_beta():
    with pytest.raises(ValueError):
        closed_form_velocity(1, 3, Fraction(1), Fraction(1, 2))


def test_mismatch_injection_is_detected():
    assert oracle_equivalence_failures(alphas=(Fraction(1),), n_alpha_max=2,
                                       inject_mismatch=True)
