"""Periodic two-phase bond medium, lattice sets, and the driving functionals.

Cells are unit squares indexed by integer pairs (i, j); the cell's square is
centered at (i, j) before scaling by epsilon.  A bond between neighboring
cells carries a coefficient that depends on the position of its midpoint
inside the periodicity cell of the medium.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .rationals import as_fraction

Cell = tuple[int, int]


@dataclass(frozen=True)
class MediumSpec:
    """Bond medium: strong coefficient beta on a periodic grid of squares, alpha elsewhere.

    n_beta = 0 degenerates to the homogeneous alpha medium; beta may then be
    omitted.  The periodicity in each direction is n_alpha + n_beta.
    """

    alpha: Fraction
    beta: Optional[Fraction]
    n_alpha: int
    n_beta: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", as_fraction(self.beta))
        if not isinstance(self.n_alpha, int) or self.n_alpha < 1:
            raise ValueError("n_alpha must be a positive integer")
        if not isinstance(self.n_beta, int) or self.n_beta < 0:
            raise ValueError("n_beta must be a nonnegative integer")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.n_beta > 0:
            if self.beta is None:
                raise ValueError("beta is required when n_beta > 0")
            if self.beta <= self.alpha:
                raise ValueError("beta must exceed alpha")

    @property
    def period(self) -> int:
        return self.n_alpha + self.n_beta


def homogeneous_medium(alpha) -> MediumSpec:
    """The all-alpha medium (no strong bonds)."""
    return MediumSpec(alpha=as_fraction(alpha), beta=None, n_alpha=1, n_beta=0)


def bond_coefficient(spec: MediumSpec, i: Cell, j: Cell) -> Fraction:
    """Coefficient of the bond between neighboring cells i and j.

    The bond is strong (beta) exactly when its midpoint, reduced modulo the
    period, has both coordinates in [0, n_beta]: never when n_beta = 0, as
    one doubled coordinate of a midpoint is odd.
    """
    dx = abs(i[0] - j[0])
    dy = abs(i[1] - j[1])
    if dx + dy != 1:
        raise ValueError(f"cells {i} and {j} are not nearest neighbors")
    m2 = 2 * spec.period
    rx = (i[0] + j[0]) % m2
    ry = (i[1] + j[1]) % m2
    if rx <= 2 * spec.n_beta and ry <= 2 * spec.n_beta:
        return spec.beta
    return spec.alpha


@dataclass(frozen=True)
class LatticeSet:
    """A finite union of cells at a common lattice spacing epsilon."""

    epsilon: Fraction
    cells: frozenset

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "cells", frozenset((int(a), int(b)) for a, b in self.cells))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def lattice_set(epsilon, cells: Iterable[Cell]) -> LatticeSet:
    return LatticeSet(epsilon=as_fraction(epsilon), cells=frozenset(cells))


_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def perimeter_energy(spec: MediumSpec, s: LatticeSet) -> Fraction:
    """Weighted boundary length: epsilon times the sum of boundary bond coefficients."""
    total = Fraction(0)
    cells = s.cells
    for (x, y) in cells:
        for dx, dy in _NEIGHBOR_STEPS:
            n = (x + dx, y + dy)
            if n not in cells:
                total += bond_coefficient(spec, (x, y), n)
    return s.epsilon * total


def dissipation(reference: LatticeSet, candidate: LatticeSet, tau) -> Fraction:
    """Movement cost of candidate relative to reference.

    Each cell of the symmetric difference pays area times r, the smallest
    r >= 1 such that the square ring of cells at sup-norm distance r around
    it holds a cell on the other side of the reference set, all divided by
    the time step tau.
    """
    tau = as_fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if reference.epsilon != candidate.epsilon:
        raise ValueError("reference and candidate must share the same epsilon")
    ref = reference.cells
    diff = ref ^ candidate.cells
    if diff and not ref:
        raise ValueError("reference set is empty but the candidate differs from it")
    total = 0
    for x, y in diff:
        inside = (x, y) in ref
        r = 1
        while all(((x + i, y + j) in ref) == inside for i in range(-r, r + 1)
                  for j in (range(-r, r + 1) if abs(i) == r else (-r, r))):
            r += 1
        total += r
    return total * reference.epsilon ** 3 / tau


def total_functional(spec: MediumSpec, candidate: LatticeSet, previous: LatticeSet, tau) -> Fraction:
    """Perimeter energy of the candidate plus its dissipation relative to the previous set."""
    return perimeter_energy(spec, candidate) + dissipation(previous, candidate, tau)


@dataclass(frozen=True)
class AlphaRectangle:
    """Axis-aligned cell rectangle [x_min..x_max] x [y_min..y_max], inclusive."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("degenerate rectangle")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1

    def cells(self):
        return frozenset((x, y)
                         for x in range(self.x_min, self.x_max + 1)
                         for y in range(self.y_min, self.y_max + 1))

    def to_lattice_set(self, epsilon) -> LatticeSet:
        return LatticeSet(epsilon=as_fraction(epsilon), cells=self.cells())

    def contains(self, other: "AlphaRectangle") -> bool:
        return (self.x_min <= other.x_min and other.x_max <= self.x_max
                and self.y_min <= other.y_min and other.y_max <= self.y_max)

    def disjoint(self, other: "AlphaRectangle") -> bool:
        return (self.x_max < other.x_min or other.x_max < self.x_min
                or self.y_max < other.y_min or other.y_max < self.y_min)


def _strong_line(spec: MediumSpec, c: int) -> bool:
    """Whether strong bonds cross the line between cells c and c + 1, in either axis."""
    return c % spec.period < spec.n_beta


def is_alpha_type(spec: MediumSpec, rect: AlphaRectangle) -> bool:
    """True when no side lies on a strong line, so every boundary bond is weak (alpha)."""
    return not (_strong_line(spec, rect.x_min - 1) or _strong_line(spec, rect.x_max)
                or _strong_line(spec, rect.y_min - 1) or _strong_line(spec, rect.y_max))


def _count_residues_upto(lo: int, hi: int, m: int, limit: int) -> int:
    """Number of integers t in [lo, hi] with t mod m <= limit, for 0 <= limit < m."""

    def upto(n):  # the count over t <= n, offset by a constant
        return (n + 1) // m * (limit + 1) + min((n + 1) % m, limit + 1)

    return max(0, upto(hi) - upto(lo - 1))


def _side_terms(spec: MediumSpec, lo: int, hi: int, top: int) -> tuple:
    """For each inward move k in 0..top of the side at lo and of the side at hi:
    whether strong bonds cross the moved side, and its share of the strong bond
    positions along a side spanning the moved axis (a low and a high share add
    up to that count)."""
    m, n_beta = spec.period, spec.n_beta
    low = [(_strong_line(spec, lo + k - 1), -_count_residues_upto(lo, lo + k - 1, m, n_beta))
           for k in range(top + 1)]
    high = [(_strong_line(spec, hi - k), _count_residues_upto(lo, hi - k, m, n_beta))
            for k in range(top + 1)]
    return low, high


def rect_perimeter_energy(spec: MediumSpec, rect: AlphaRectangle, epsilon) -> Fraction:
    """Perimeter energy of a full rectangle, via residue counting."""
    epsilon = as_fraction(epsilon)
    # strong vertical sides span the y range, strong horizontal sides the x range
    strong = ((_strong_line(spec, rect.x_min - 1) + _strong_line(spec, rect.x_max))
              * _count_residues_upto(rect.y_min, rect.y_max, spec.period, spec.n_beta)
              + (_strong_line(spec, rect.y_min - 1) + _strong_line(spec, rect.y_max))
              * _count_residues_upto(rect.x_min, rect.x_max, spec.period, spec.n_beta))
    energy = spec.alpha * 2 * (rect.width + rect.height)
    if strong:
        energy += (spec.beta - spec.alpha) * strong
    return epsilon * energy


def _sum_min_depth(width: int, height: int, dl: int, dr: int, db: int, dt: int) -> int:
    """Sum of the depth min(i - a, b - i, j - c, d - j) over a window of [a..b] x [c..d].

    The rectangle has the given width and height, and the window is it with
    its sides moved inward by dl, dr, db, dt >= 0 (dl + dr = width leaves it
    empty).  The window cells of depth at least v form a product of two
    widths, each linear in v between the breakpoints dl, dr (db, dt), so the
    sum over the levels v = 1..top is a few exact power sums.
    """
    top = min(width - 1 - max(dl, dr), (width - 1) // 2,
              height - 1 - max(db, dt), (height - 1) // 2)
    w, h = width - dl - dr, height - db - dt
    total = w * h * top
    # minus the sums over v <= top of (v - t)+ times the other width, plus
    # those of (v - t)+ (v - u)+ for one breakpoint per axis
    for t, other in ((dl, h), (dr, h), (db, w), (dt, w)):
        n = top - t
        if n > 0:
            total -= other * n * (n + 1) // 2
    for t in (dl, dr):
        for u in (db, dt):
            n = top - max(t, u)
            if n > 0:
                total += n * (n + 1) * (2 * n + 1 + 3 * abs(t - u)) // 6
    return total


def rect_dissipation(reference: AlphaRectangle, inner: Optional[AlphaRectangle],
                     epsilon, tau) -> Fraction:
    """Dissipation of a nested rectangle (or the empty set) relative to reference.

    By the rule of `dissipation` a removed cell at depth v pays v + 1: the
    cell count plus `_sum_min_depth`, in closed form.
    """
    epsilon = as_fraction(epsilon)
    tau = as_fraction(tau)
    if inner is not None and not reference.contains(inner):
        raise ValueError("inner rectangle must be nested in the reference")
    width, height = reference.width, reference.height
    ref_total = width * height + _sum_min_depth(width, height, 0, 0, 0, 0)
    if inner is None:
        in_total = 0
    else:
        in_total = inner.width * inner.height + _sum_min_depth(
            width, height, inner.x_min - reference.x_min, reference.x_max - inner.x_max,
            inner.y_min - reference.y_min, reference.y_max - inner.y_max)
    return (ref_total - in_total) * epsilon ** 3 / tau
