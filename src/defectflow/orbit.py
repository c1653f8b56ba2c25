"""One-dimensional side dynamics: orbits of the reduced minimization scheme.

A flat side of a shrinking set moves inward by an integer number of rows per
time step.  The admissible displacements are those landing on a weak row of
the medium, and the step chosen minimizes the one-dimensional energy balance
-2*alpha*N + N*(N+1)/(2*y), where y is the (rescaled) inverse side length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import MediumSpec
from .rationals import as_fraction, rational_floor


class SingularInputError(ValueError):
    """Raised when an operation requires y off the singular grid."""


def jump_component(alpha, y) -> tuple:
    """Index k = floor(4*alpha*y) of the component of the jump grid
    (1/(4*alpha))Z holding y, and whether y lies on the grid itself."""
    s = 4 * as_fraction(alpha) * as_fraction(y)
    return rational_floor(s), s.denominator == 1


def component_midpoint(alpha, k: int) -> Fraction:
    """Midpoint (2k+1)/(8*alpha) of component k of the jump grid."""
    return Fraction(2 * k + 1, 8) / as_fraction(alpha)


def is_singular(spec: MediumSpec, y) -> bool:
    """True when y lies on the grid of velocity jump points."""
    return jump_component(spec.alpha, y)[1]


def pinning_threshold(spec: MediumSpec, gamma) -> Fraction:
    """Critical side length: longer sides do not move at all."""
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 4 * gamma * spec.alpha / (spec.n_beta + 2)


def homogeneous_velocity(alpha, y) -> Fraction:
    """Side velocity in the medium without strong bonds: floor(2*alpha*y)."""
    return Fraction(rational_floor(2 * as_fraction(alpha) * as_fraction(y)))


def step_minimizer(spec: MediumSpec, y, x: int) -> list:
    """Admissible displacements minimizing the one-step energy from residue x.

    Returns the full argmin set (two elements exactly at singular y), sorted
    increasingly.  A displacement N is admissible when x + N lands on a weak
    residue, i.e. (x + N) mod period < n_alpha.
    """
    y = as_fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    m = spec.period
    vertex = 2 * spec.alpha * y - Fraction(1, 2)
    center = rational_floor(vertex)
    lo = max(0, center - m)
    hi = center + m
    if hi < m - 1:
        hi = m - 1
    best_d = None
    best = []
    for n in range(lo, hi + 1):
        if (x + n) % m >= spec.n_alpha:
            continue
        d = abs(Fraction(n) - vertex)
        if best_d is None or d < best_d:
            best_d = d
            best = [n]
        elif d == best_d:
            best.append(n)
    return best


@dataclass(frozen=True)
class OrbitTrace:
    """Orbit of the side scheme: positions, steps, and its eventual periodicity."""

    y: Fraction
    x0: int
    positions: tuple
    steps: tuple
    pre_period: int
    period_steps: int
    period_cells: int

    @property
    def velocity(self) -> Fraction:
        return Fraction(self.period_cells, self.period_steps)


def run_orbit(spec: MediumSpec, y, x0: int = 0) -> OrbitTrace:
    """Iterate the side scheme from residue x0 until the orbit closes up.

    Requires nonsingular y so every step has a unique minimizer.  The orbit
    modulo the period becomes periodic after at most n_alpha steps; iteration
    stops at the first repeated residue.
    """
    y = as_fraction(y)
    m = spec.period
    if not 0 <= x0 < m:
        raise ValueError(f"x0 must lie in [0, {m})")
    if is_singular(spec, y):
        raise SingularInputError(f"y = {y} lies on the singular grid")
    positions = [x0]
    steps = []
    first_seen = {}
    k = 0
    while True:
        k += 1
        if k > spec.n_alpha + 2:
            raise AssertionError("orbit failed to close within the pigeonhole bound")
        choices = step_minimizer(spec, y, positions[-1] % m)
        if len(choices) != 1:
            raise AssertionError(f"nonunique minimizer at nonsingular y = {y}")
        steps.append(choices[0])
        positions.append(positions[-1] + choices[0])
        r = positions[-1] % m
        if r in first_seen:
            j = first_seen[r]
            period_steps = k - j
            period_cells = positions[k] - positions[j]
            return OrbitTrace(y=y, x0=x0,
                              positions=tuple(positions), steps=tuple(steps),
                              pre_period=j, period_steps=period_steps,
                              period_cells=period_cells)
        first_seen[r] = k


@dataclass(frozen=True)
class VelocityResult:
    """Effective side velocity at a given y.

    At singular y the velocity may genuinely jump; lower and upper hold the
    one-sided values and value is set only when they agree.
    """

    y: Fraction
    value: Optional[Fraction]
    lower: Fraction
    upper: Fraction
    singular: bool
    period_steps: Optional[int] = None
    period_cells: Optional[int] = None


def effective_velocity(spec: MediumSpec, y) -> VelocityResult:
    """Average inward displacement per step, with one-sided values at jump points."""
    y = as_fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    k, on_grid = jump_component(spec.alpha, y)
    if on_grid:
        below = run_orbit(spec, component_midpoint(spec.alpha, k - 1)).velocity
        above = run_orbit(spec, component_midpoint(spec.alpha, k)).velocity
        value = below if below == above else None
        return VelocityResult(y=y, value=value, lower=below, upper=above, singular=True)
    trace = run_orbit(spec, y)
    f = trace.velocity
    return VelocityResult(y=y, value=f, lower=f, upper=f, singular=False,
                          period_steps=trace.period_steps,
                          period_cells=trace.period_cells)
