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
    period, has both coordinates in [0, n_beta].
    """
    dx = abs(i[0] - j[0])
    dy = abs(i[1] - j[1])
    if dx + dy != 1:
        raise ValueError(f"cells {i} and {j} are not nearest neighbors")
    if spec.n_beta == 0:
        return spec.alpha
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

    def area(self) -> Fraction:
        return self.epsilon ** 2 * len(self.cells)


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


def boundary_segments(cells) -> list:
    """Boundary edges of a cell union, in doubled coordinates.

    Each entry is (axis, fixed2, lo2, hi2): axis 0 means a vertical edge at
    x = fixed2 / 2 spanning y in [lo2, hi2] / 2; axis 1 the transpose.
    """
    segs = []
    for (x, y) in cells:
        if (x + 1, y) not in cells:
            segs.append((0, 2 * x + 1, 2 * y - 1, 2 * y + 1))
        if (x - 1, y) not in cells:
            segs.append((0, 2 * x - 1, 2 * y - 1, 2 * y + 1))
        if (x, y + 1) not in cells:
            segs.append((1, 2 * y + 1, 2 * x - 1, 2 * x + 1))
        if (x, y - 1) not in cells:
            segs.append((1, 2 * y - 1, 2 * x - 1, 2 * x + 1))
    return segs


def _cell_boundary_distance2(cell: Cell, segs) -> int:
    """Doubled sup-norm distance from a cell center to the nearest boundary edge."""
    px, py = 2 * cell[0], 2 * cell[1]
    best = None
    for axis, fixed2, lo2, hi2 in segs:
        if axis == 0:
            d_perp = px - fixed2
            q = py
        else:
            d_perp = py - fixed2
            q = px
        if d_perp < 0:
            d_perp = -d_perp
        if q < lo2:
            d_par = lo2 - q
        elif q > hi2:
            d_par = q - hi2
        else:
            d_par = 0
        d = d_perp if d_perp >= d_par else d_par
        if best is None or d < best:
            best = d
            if best == 1:
                break
    return best


def dissipation(reference: LatticeSet, candidate: LatticeSet, tau) -> Fraction:
    """Movement cost of candidate relative to reference.

    Each cell of the symmetric difference pays area times its sup-norm
    distance to the boundary of the reference set, offset inward by half a
    cell, all divided by the time step tau.
    """
    tau = as_fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if reference.epsilon != candidate.epsilon:
        raise ValueError("reference and candidate must share the same epsilon")
    diff = reference.cells ^ candidate.cells
    if not diff:
        return Fraction(0)
    if not reference.cells:
        raise ValueError("reference set is empty but the candidate differs from it")
    segs = boundary_segments(reference.cells)
    total = 0
    for cell in diff:
        total += _cell_boundary_distance2(cell, segs) + 1
    eps = reference.epsilon
    return Fraction(total, 2) * eps ** 3 / tau


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


def rectangle_from_cells(cells) -> Optional[AlphaRectangle]:
    """The bounding rectangle if the cell set fills it exactly, else None."""
    if not cells:
        return None
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    rect = AlphaRectangle(min(xs), max(xs), min(ys), max(ys))
    if rect.width * rect.height != len(cells):
        return None
    return rect


def _low_side_alpha(spec: MediumSpec, coord: int) -> bool:
    # boundary line just below/left of `coord`; strong bonds can cross it
    # only when the residue falls inside the strong band
    if spec.n_beta == 0:
        return True
    r = coord % spec.period
    return not (1 <= r <= spec.n_beta)


def _high_side_alpha(spec: MediumSpec, coord: int) -> bool:
    if spec.n_beta == 0:
        return True
    r = coord % spec.period
    return r >= spec.n_beta


def is_alpha_type(spec: MediumSpec, rect: AlphaRectangle) -> bool:
    """True when every boundary bond of the rectangle is weak (alpha)."""
    return (_low_side_alpha(spec, rect.x_min) and _high_side_alpha(spec, rect.x_max)
            and _low_side_alpha(spec, rect.y_min) and _high_side_alpha(spec, rect.y_max))


def _count_residues_upto(lo: int, hi: int, m: int, limit: int) -> int:
    """Number of integers t in [lo, hi] with t mod m <= limit."""
    if lo > hi:
        return 0
    if lo < 0:
        shift = (-lo + m - 1) // m * m
        lo += shift
        hi += shift

    def upto(n):
        if n < 0:
            return 0
        return (n + 1) // m * (limit + 1) + min((n + 1) % m, limit + 1)

    return upto(hi) - upto(lo - 1)


def rect_perimeter_energy(spec: MediumSpec, rect: AlphaRectangle, epsilon) -> Fraction:
    """Perimeter energy of a full rectangle, via residue counting."""
    epsilon = as_fraction(epsilon)
    bonds = 2 * (rect.width + rect.height)
    strong = 0
    if spec.n_beta > 0:
        m, nb = spec.period, spec.n_beta
        if not _low_side_alpha(spec, rect.x_min):
            strong += _count_residues_upto(rect.y_min, rect.y_max, m, nb)
        if not _high_side_alpha(spec, rect.x_max):
            strong += _count_residues_upto(rect.y_min, rect.y_max, m, nb)
        if not _low_side_alpha(spec, rect.y_min):
            strong += _count_residues_upto(rect.x_min, rect.x_max, m, nb)
        if not _high_side_alpha(spec, rect.y_max):
            strong += _count_residues_upto(rect.x_min, rect.x_max, m, nb)
    energy = spec.alpha * bonds
    if strong:
        energy += (spec.beta - spec.alpha) * strong
    return epsilon * energy


def _sum_min_depth(rect: AlphaRectangle, window: AlphaRectangle) -> int:
    """Sum over window cells of the depth min(i - a, b - i, j - c, d - j) inside rect."""
    total = 0
    v = 1
    while True:
        x_lo = max(window.x_min, rect.x_min + v)
        x_hi = min(window.x_max, rect.x_max - v)
        y_lo = max(window.y_min, rect.y_min + v)
        y_hi = min(window.y_max, rect.y_max - v)
        if x_lo > x_hi or y_lo > y_hi:
            break
        total += (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
        v += 1
    return total


def rect_dissipation(reference: AlphaRectangle, inner: Optional[AlphaRectangle],
                     epsilon, tau) -> Fraction:
    """Dissipation of a nested rectangle (or the empty set) relative to reference."""
    epsilon = as_fraction(epsilon)
    tau = as_fraction(tau)
    if inner is not None and not reference.contains(inner):
        raise ValueError("inner rectangle must be nested in the reference")
    ref_total = reference.width * reference.height + _sum_min_depth(reference, reference)
    if inner is None:
        in_total = 0
    else:
        in_total = inner.width * inner.height + _sum_min_depth(reference, inner)
    return (ref_total - in_total) * epsilon ** 3 / tau
