"""Closed-form effective side velocity for any number of strong rows per period.

With N = floor(2*alpha*y) and m the period, f depends only on (n_alpha, n_beta)
and the jump-grid component k of y: orbit.component_velocity gives it exactly as
N plus the deflections of one cycle through the resets 0 and n_alpha - 1, over
that cycle's steps.  For one or two strong rows this is the paper's N -/+ 1/n,
where the defect recurs every n steps; f = N when the orbit never meets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .orbit import SingularInputError, component_velocity, jump_component
from .rationals import as_fraction

CASE_LABELS = ("a1_decel", "a1_accel", "a2_no_defect", "b", "c")


@dataclass(frozen=True)
class CaseTag:
    """Which branch of the velocity formula applied; n_bar is the denominator
    of f - N, the recurrence of the defect.  The paper names the cases only for
    n_beta <= 2: past that, a1_accel and a1_decel give only the sign of f - N."""

    label: str
    n_bar: Optional[int] = None


@dataclass(frozen=True)
class ClosedFormVelocity:
    y: Fraction
    value: Fraction
    case: CaseTag


def case_tag(n_alpha: int, n_beta: int, big_n: int, value: Fraction) -> CaseTag:
    """The branch of the formula that the velocity value at natural step N = big_n falls in."""
    if value == big_n:
        return CaseTag(label="a2_no_defect")
    if (big_n + 1) % (n_alpha + n_beta) == 0:
        label = "c" if value > big_n and n_beta == 1 else "b"
    else:
        label = "a1_accel" if value > big_n else "a1_decel"
    return CaseTag(label=label, n_bar=(value - big_n).denominator)


def closed_form_velocity(n_alpha: int, n_beta: int, alpha, y) -> ClosedFormVelocity:
    """Closed-form velocity f(y) and the branch of the formula it falls in."""
    alpha = as_fraction(alpha)
    y = as_fraction(y)
    if alpha <= 0 or y <= 0:
        raise ValueError("alpha and y must be positive")
    if n_alpha < 1 or n_beta < 0:
        raise ValueError("n_alpha must be positive and n_beta nonnegative")
    k, on_grid = jump_component(alpha, y)
    value = component_velocity(n_alpha, n_beta, k)
    if on_grid and (below := component_velocity(n_alpha, n_beta, k - 1)) != value:
        raise SingularInputError(
            f"y = {y} is a jump point: velocity is {below} below and {value} above")
    return ClosedFormVelocity(y=y, value=value, case=case_tag(n_alpha, n_beta, k // 2, value))
