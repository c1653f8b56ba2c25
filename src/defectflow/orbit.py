"""One-dimensional side dynamics: orbits of the reduced minimization scheme.

A flat side of a shrinking set moves inward by an integer number of rows per
time step.  The admissible displacements are those landing on a weak row of
the medium, and the step chosen minimizes the one-dimensional energy balance
-2*alpha*N + N*(N+1)/(2*y), where y is the (rescaled) inverse side length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def component_cycle(n_alpha: int, n_beta: int, k: int) -> tuple:
    """run_orbit's (period_steps, period_cells) on jump-grid component k, in closed form.

    Each y of the component steps as its midpoint, where the vertex is (2k-1)/4,
    so the natural step N = k // 2 never ties.  A step blocked at band residue s
    deflects to the nearer band edge: down by s - n_alpha + 1 onto residue
    n_alpha - 1, or up by m - s onto 0.  Between deflections the residue advances
    by N, so from reset r the first blocked step is the least j >= 1 with r + j*N
    in the band (mod m), and the orbit from 0 cycles through the resets 0 and
    n_alpha - 1 only.  The period is the sum of j over that cycle, and its cells
    are N times that plus the deflections.  Alpha and beta do not enter.

    So f - k // 2 reads k only through N mod m and the parity of k, which fixes
    the sign of 2k - 1 - 4N: it is 2m-periodic in k (proved).  Its oddness about
    k = 1/2 and its range |f - k // 2| <= ceil(n_beta / 2) are only observed.
    """
    m, big_n, v4 = n_alpha + n_beta, k // 2, 2 * k - 1
    g = gcd(big_n, m)
    inv = pow(big_n // g, -1, m // g)
    first = {}  # reset -> (steps, cells) at its first visit
    r = steps = cells = 0
    while r not in first:
        first[r] = (steps, cells)
        j = min([(s - r) // g * inv % (m // g) for s in range(n_alpha, m) if (s - r) % g == 0],
                default=0)
        if not j:  # r is weak, so j = 0 only when no band residue is reachable
            return m // g, big_n * m // g
        s = (r + j * big_n) % m
        down, up = s - n_alpha + 1, m - s
        steps += j
        if v4 - 4 * (big_n - down) < 4 * (big_n + up) - v4:
            cells, r = cells + j * big_n - down, n_alpha - 1
        else:
            cells, r = cells + j * big_n + up, 0
    return steps - first[r][0], cells - first[r][1]


def component_velocity(n_alpha: int, n_beta: int, k: int) -> Fraction:
    """f on jump-grid component k: cells over steps of the cycle that gives M and n."""
    steps, cells = component_cycle(n_alpha, n_beta, k)
    return Fraction(cells, steps)


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
    """Average inward displacement per step, with one-sided values at jump points.

    Off the grid, f, M and n come from the one reset cycle of component_cycle."""
    y = as_fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    k, on_grid = jump_component(spec.alpha, y)
    if on_grid:
        below, above = (component_velocity(spec.n_alpha, spec.n_beta, j) for j in (k - 1, k))
        value = below if below == above else None
        return VelocityResult(y=y, value=value, lower=below, upper=above, singular=True)
    steps, cells = component_cycle(spec.n_alpha, spec.n_beta, k)
    f = Fraction(cells, steps)
    return VelocityResult(y=y, value=f, lower=f, upper=f, singular=False,
                          period_steps=steps, period_cells=cells)
