"""Closed-form effective side velocities for one and two strong rows per period.

With N = floor(2*alpha*y) and m the period, the orbit either never meets a
strong row (f = N) or meets it periodically; in the coprime case the defect
recurs every n steps where n solves a congruence, giving f = N -/+ 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .orbit import SingularInputError, component_midpoint, jump_component
from .rationals import as_fraction, min_congruence_solution, rational_floor

CASE_LABELS = ("a1_decel", "a1_accel", "a2_no_defect", "b", "c")


@dataclass(frozen=True)
class CaseTag:
    """Which branch of the velocity formula applied, with its congruence data."""

    label: str
    n_bar: Optional[int] = None
    k_bar: Optional[int] = None
    k_min: Optional[int] = None


@dataclass(frozen=True)
class ClosedFormVelocity:
    y: Fraction
    value: Fraction
    case: CaseTag


def _component_nb1(n_alpha: int, alpha: Fraction, y: Fraction):
    """Velocity and branch on a component interior, one strong row per period."""
    m = n_alpha + 1
    big_n = rational_floor(2 * alpha * y)
    if gcd(big_n, m) != 1:
        return Fraction(big_n), CaseTag(label="a2_no_defect")
    k = big_n % m
    if jump_component(alpha, y)[0] % 2 == 0:
        # lower of the two jump components with this N: the defect slows the side down
        n_min = min_congruence_solution(big_n, 1, m)
        k_min = (n_min * big_n - 1) // m
        label = "b" if k == n_alpha else "a1_decel"
        return big_n - Fraction(1, n_min), CaseTag(label=label, k_min=k_min, n_bar=n_min)
    n_bar = min_congruence_solution(big_n, n_alpha, m)
    k_bar = (n_bar * big_n - n_alpha) // m
    label = "c" if k == n_alpha else "a1_accel"
    return big_n + Fraction(1, n_bar), CaseTag(label=label, n_bar=n_bar, k_bar=k_bar)


def _component_nb2(n_alpha: int, alpha: Fraction, y: Fraction):
    """Velocity and branch on a component interior, two strong rows per period."""
    m = n_alpha + 2
    big_n = rational_floor(2 * alpha * y)
    if gcd(big_n, m) != 1:
        return Fraction(big_n), CaseTag(label="a2_no_defect")
    k = big_n % m
    t = min_congruence_solution(big_n, 1, m)
    if 2 * t < m:
        # after slipping back one row the defect recurs every t steps
        k_min = (t * big_n - 1) // m
        label = "b" if k == n_alpha + 1 else "a1_decel"
        return big_n - Fraction(1, t), CaseTag(label=label, k_min=k_min, n_bar=t)
    # jumping the defect costs one extra row every m - t steps
    n_bar = m - t
    k_bar = (n_bar * big_n + 1) // m
    label = "b" if k == n_alpha + 1 else "a1_accel"
    return big_n + Fraction(1, n_bar), CaseTag(label=label, n_bar=n_bar, k_bar=k_bar)


def closed_form_velocity(n_alpha: int, n_beta: int, alpha, y) -> ClosedFormVelocity:
    """Closed-form velocity for media with one or two strong rows per period."""
    if n_beta not in (1, 2):
        raise ValueError("closed forms are available for n_beta in {1, 2} only")
    alpha = as_fraction(alpha)
    y = as_fraction(y)
    if alpha <= 0 or y <= 0:
        raise ValueError("alpha and y must be positive")
    if n_alpha < 1:
        raise ValueError("n_alpha must be positive")
    component = _component_nb1 if n_beta == 1 else _component_nb2
    k, on_grid = jump_component(alpha, y)
    if on_grid:
        below, _ = component(n_alpha, alpha, component_midpoint(alpha, k - 1))
        above, tag = component(n_alpha, alpha, component_midpoint(alpha, k))
        if below != above:
            raise SingularInputError(
                f"y = {y} is a jump point: velocity is {below} below and {above} above")
        return ClosedFormVelocity(y=y, value=above, case=tag)
    value, tag = component(n_alpha, alpha, y)
    return ClosedFormVelocity(y=y, value=value, case=tag)
