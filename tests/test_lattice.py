"""Bond medium, lattice sets, and the perimeter/dissipation functionals."""

import random
from fractions import Fraction

import pytest

from defectflow.lattice import (AlphaRectangle, MediumSpec, _sum_min_depth,
                                bond_coefficient, dissipation, homogeneous_medium,
                                is_alpha_type, lattice_set, perimeter_energy,
                                rect_dissipation, rect_perimeter_energy,
                                total_functional)

SPEC = MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=1)


def test_medium_validation():
    with pytest.raises(ValueError):
        MediumSpec(alpha=1, beta=1, n_alpha=1, n_beta=1)  # beta must exceed alpha
    with pytest.raises(ValueError):
        MediumSpec(alpha=0, beta=2, n_alpha=1, n_beta=1)
    with pytest.raises(ValueError):
        MediumSpec(alpha=1, beta=None, n_alpha=1, n_beta=1)
    with pytest.raises(ValueError):
        MediumSpec(alpha=1, beta=2, n_alpha=0, n_beta=1)
    hom = homogeneous_medium(Fraction(3, 2))
    assert hom.n_beta == 0 and hom.period == 1


def test_bond_coefficient_examples():
    # midpoint of the bond, reduced mod the period, must land in [0, n_beta]^2
    assert bond_coefficient(SPEC, (0, 0), (1, 0)) == 2
    assert bond_coefficient(SPEC, (1, 0), (2, 0)) == 1
    assert bond_coefficient(SPEC, (0, 0), (0, 1)) == 2
    assert bond_coefficient(SPEC, (0, 1), (0, 2)) == 1


def test_bond_coefficient_periodicity():
    m = SPEC.period
    for base in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]:
        for step in [(1, 0), (0, 1)]:
            i = base
            j = (base[0] + step[0], base[1] + step[1])
            shifted = bond_coefficient(SPEC, (i[0] + 5 * m, i[1] - 3 * m),
                                       (j[0] + 5 * m, j[1] - 3 * m))
            assert bond_coefficient(SPEC, i, j) == shifted


def test_bond_coefficient_rejects_non_neighbors():
    with pytest.raises(ValueError):
        bond_coefficient(SPEC, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        bond_coefficient(SPEC, (0, 0), (0, 0))


def test_homogeneous_bond_is_alpha_everywhere():
    hom = homogeneous_medium(Fraction(3, 2))
    for i in [(0, 0), (5, -3), (2, 7)]:
        assert bond_coefficient(hom, i, (i[0] + 1, i[1])) == Fraction(3, 2)


def test_perimeter_single_cell():
    s = lattice_set(1, [(0, 0)])
    # bonds: right and top cross the strong square, left and bottom do not
    assert perimeter_energy(SPEC, s) == 6


def test_perimeter_homogeneous_is_alpha_times_length():
    hom = homogeneous_medium(Fraction(3, 2))
    rect = AlphaRectangle(0, 4, 0, 2)
    s = rect.to_lattice_set(Fraction(1, 5))
    # boundary length = 2*(w+h)*eps = 16/5
    assert perimeter_energy(hom, s) == Fraction(3, 2) * Fraction(16, 5)


def _drawn_rectangles(seed, count):
    """Seeded media (n_alpha 1-4, n_beta 0-3) with a rectangle whose bounds lie in [-2m, 3m]."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
        n_beta = rng.randint(0, 3)
        spec = MediumSpec(alpha=alpha, beta=alpha + rng.choice((alpha, Fraction(1, 3))),
                          n_alpha=rng.randint(1, 4), n_beta=n_beta)
        m = spec.period
        x_min, x_max, y_min, y_max = (*sorted(rng.randint(-2 * m, 3 * m) for _ in "xx"),
                                      *sorted(rng.randint(-2 * m, 3 * m) for _ in "yy"))
        yield spec, AlphaRectangle(x_min, x_max, y_min, y_max)


def test_rect_perimeter_matches_bond_loop():
    eps = Fraction(1, 7)
    for spec in (SPEC, MediumSpec(alpha=Fraction(1, 2), beta=3, n_alpha=1, n_beta=2),
                 homogeneous_medium(1)):
        for bounds in [(0, 5, 0, 3), (1, 9, 2, 4), (3, 3, 5, 11), (2, 8, 1, 7),
                       (-7, -2, -5, 3), (-13, -13, -4, -1)]:
            rect = AlphaRectangle(*bounds)
            fast = rect_perimeter_energy(spec, rect, eps)
            slow = perimeter_energy(spec, rect.to_lattice_set(eps))
            assert fast == slow
    for spec, rect in _drawn_rectangles(23, 120):
        assert rect_perimeter_energy(spec, rect, eps) == \
            perimeter_energy(spec, rect.to_lattice_set(eps)), (spec, rect)


def test_is_alpha_type_matches_bond_coefficients():
    # alpha-type: no side lies on a line that carries strong bonds, so the
    # bonds across each side's line are weak over a whole period along it.
    # A side shorter than n_alpha can dodge the strong bonds of its line, so
    # there "every boundary bond is weak" does not give alpha-type back.
    def all_weak(spec, r, xs, ys):
        # the bonds across the four side lines of r at the given positions along them
        bonds = ([((x, r.y_min), (x, r.y_min - 1)) for x in xs]
                 + [((x, r.y_max), (x, r.y_max + 1)) for x in xs]
                 + [((r.x_min, y), (r.x_min - 1, y)) for y in ys]
                 + [((r.x_max, y), (r.x_max + 1, y)) for y in ys])
        return all(bond_coefficient(spec, *bond) == spec.alpha for bond in bonds)

    outcomes = set()
    for spec, r in _drawn_rectangles(23, 400):
        weak = all_weak(spec, r, range(r.x_min, r.x_max + 1), range(r.y_min, r.y_max + 1))
        alpha_type = is_alpha_type(spec, r)
        assert alpha_type == all_weak(spec, r, range(spec.period), range(spec.period))
        if min(r.width, r.height) >= spec.n_alpha:
            assert alpha_type == weak, (spec, r)
            outcomes.add(weak)
        else:
            assert weak or not alpha_type, (spec, r)
    assert outcomes == {True, False}
    # the y range 4..6 misses the strong residues 0..3 of the line at x = 15
    spec = MediumSpec(alpha=1, beta=2, n_alpha=4, n_beta=3)
    assert not is_alpha_type(spec, AlphaRectangle(-9, 15, 4, 6))
    assert rect_perimeter_energy(spec, AlphaRectangle(-9, 15, 4, 6), 1) == 2 * (25 + 3)


def test_perimeter_bounds():
    # always between the alpha and beta multiples of the boundary length
    spec = MediumSpec(alpha=Fraction(1, 2), beta=Fraction(5, 2), n_alpha=3, n_beta=2)
    eps = Fraction(1, 4)
    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (5, 5)]
    s = lattice_set(eps, cells)
    boundary_bonds = 4 * len(cells) - 2 * 4  # four interior adjacencies
    length = boundary_bonds * eps
    p = perimeter_energy(spec, s)
    assert spec.alpha * length <= p <= spec.beta * length


def test_dissipation_zero_iff_equal():
    s = lattice_set(1, [(0, 0), (1, 0)])
    assert dissipation(s, s, 1) == 0
    assert dissipation(s, lattice_set(1, [(0, 0)]), 1) > 0


def test_dissipation_single_cell_removal():
    # the first removed row sits one cell from the boundary of the old set
    s = lattice_set(1, [(0, 0)])
    assert dissipation(s, lattice_set(1, []), 1) == 1


def test_dissipation_row_removal():
    eps, gamma = Fraction(1, 6), Fraction(1)
    tau = gamma * eps
    rect = AlphaRectangle(0, 11, 0, 7)
    shrunk = AlphaRectangle(0, 11, 0, 6)
    d = dissipation(rect.to_lattice_set(eps), shrunk.to_lattice_set(eps), tau)
    # 12 cells, each paying eps: 12 * eps^3 / tau = 12 * eps^2 / gamma
    assert d == 12 * eps ** 2 / gamma


def test_dissipation_two_row_removal():
    eps, gamma = Fraction(1, 5), Fraction(2)
    tau = gamma * eps
    rect = AlphaRectangle(0, 9, 0, 9)
    shrunk = AlphaRectangle(0, 9, 2, 9)
    d = dissipation(rect.to_lattice_set(eps), shrunk.to_lattice_set(eps), tau)
    # rows pay eps and 2*eps, except the second-row corner cells, which are
    # closer to the side walls and pay eps
    assert d == (10 * 1 + 2 * 1 + 8 * 2) * eps ** 2 / gamma


def test_dissipation_outside_cell():
    s = lattice_set(1, [(0, 0)])
    grown = lattice_set(1, [(0, 0), (3, 0)])
    # added cell: sup distance 5/2 to the boundary, plus the half-cell offset
    assert dissipation(s, grown, 1) == 3


def test_dissipation_is_asymmetric_in_its_arguments():
    cell = lattice_set(1, [(0, 0)])
    row = lattice_set(1, [(0, 0), (1, 0), (2, 0)])
    # growing pays distances to the small set, shrinking to the large one
    assert dissipation(cell, row, 1) == 3
    assert dissipation(row, cell, 1) == 2


def test_dissipation_requires_matching_epsilon():
    with pytest.raises(ValueError):
        dissipation(lattice_set(1, [(0, 0)]), lattice_set(Fraction(1, 2), []), 1)


def test_dissipation_empty_reference():
    with pytest.raises(ValueError):
        dissipation(lattice_set(1, []), lattice_set(1, [(0, 0)]), 1)
    assert dissipation(lattice_set(1, []), lattice_set(1, []), 1) == 0


def _box(x0, x1, y0, y1):
    return {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


_HOLED = _box(0, 6, 0, 6) - _box(2, 4, 2, 4)
_BLOCKS = _box(0, 2, 0, 2) | _box(6, 8, 0, 2)
_ELL = _box(0, 6, 0, 2) | _box(0, 2, 0, 6)


@pytest.mark.parametrize("reference, candidate, eps, tau, expected", [
    # the filled hole: eight cells touch the old set, its center is one ring further
    (_HOLED, _box(0, 6, 0, 6), 1, 1, 10),
    # every cell of the holed square touches the outside or the hole
    (_HOLED, set(), 1, 1, 40),
    (_BLOCKS, set(), 1, 1, 20),
    # the middle column of the gap is two rings from either block
    (_BLOCKS, _box(0, 8, 0, 2), 1, 1, 12),
    # the nine cells with all eight neighbors in the L pay 2
    (_ELL, set(), 1, 1, 42),
    # the added corner pays 1, 2, 3, 4 on its 7, 5, 3, 1 cells
    (_ELL, _box(0, 6, 0, 6), 1, 1, 30),
    (_ELL, _box(0, 6, 0, 6), Fraction(1, 2), Fraction(1, 3), Fraction(45, 4)),
])
def test_dissipation_beyond_rectangles(reference, candidate, eps, tau, expected):
    assert dissipation(lattice_set(eps, reference), lattice_set(eps, candidate), tau) == expected


def test_rect_dissipation_matches_generic():
    eps = Fraction(1, 9)
    tau = Fraction(1, 9)
    for outer, inners in (
            (AlphaRectangle(0, 14, 0, 10),
             (AlphaRectangle(2, 12, 1, 9), AlphaRectangle(0, 14, 0, 10),
              AlphaRectangle(5, 7, 3, 4), AlphaRectangle(0, 0, 10, 10))),
            (AlphaRectangle(3, 3, -2, 6), (AlphaRectangle(3, 3, 4, 6),)),
            (AlphaRectangle(-1, 0, 4, 4), ()),
            (AlphaRectangle(0, 7, 0, 8), (AlphaRectangle(0, 6, 5, 8),))):
        for inner in inners + (None,):
            fast = rect_dissipation(outer, inner, eps, tau)
            cand = lattice_set(eps, []) if inner is None else inner.to_lattice_set(eps)
            slow = dissipation(outer.to_lattice_set(eps), cand, tau)
            assert fast == slow, (outer, inner)


def _sum_min_depth_by_levels(rect, window):
    """Level-by-level depth sum: count the window cells of depth >= v, v = 1, 2, ..."""
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


def _check_depth_sum(rect, dl, dr, db, dt):
    window = AlphaRectangle(rect.x_min + dl, rect.x_max - dr, rect.y_min + db, rect.y_max - dt)
    assert (_sum_min_depth(rect.width, rect.height, dl, dr, db, dt)
            == _sum_min_depth_by_levels(rect, window)), (rect, dl, dr, db, dt)


def test_sum_min_depth_matches_levels_exhaustively():
    # every nested window of every rectangle up to 8 x 8: windows equal to the
    # rectangle, one-cell-wide rectangles, windows touching any subset of the
    # edges and offsets beyond half the width all occur
    for width in range(1, 9):
        for height in range(1, 9):
            rect = AlphaRectangle(-3, width - 4, 2, height + 1)
            # an empty window (dl + dr = width or db + dt = height) sums to 0
            for cut in range(width + 1):
                assert _sum_min_depth(width, height, cut, width - cut, 0, height // 2) == 0
            for cut in range(height + 1):
                assert _sum_min_depth(width, height, 0, 0, height - cut, cut) == 0
            for dl in range(width):
                for dr in range(width - dl):
                    for db in range(height):
                        for dt in range(height - db):
                            _check_depth_sum(rect, dl, dr, db, dt)


def test_sum_min_depth_matches_levels_seeded():
    rng = random.Random(20100)
    for _ in range(400):
        width, height = rng.randint(1, 90), rng.randint(1, 90)
        x0, y0 = rng.randint(-50, 50), rng.randint(-50, 50)
        rect = AlphaRectangle(x0, x0 + width - 1, y0, y0 + height - 1)
        # offsets small, up to half the width, or anywhere
        dl = rng.randint(0, rng.choice((min(3, width - 1), (width - 1) // 2, width - 1)))
        dr = rng.randint(0, width - 1 - dl)
        db = rng.randint(0, rng.choice((min(3, height - 1), (height - 1) // 2, height - 1)))
        dt = rng.randint(0, height - 1 - db)
        _check_depth_sum(rect, dl, dr, db, dt)
        _check_depth_sum(rect, 0, 0, 0, 0)


def test_total_functional_translation_invariance():
    # shifting both sets by a full period leaves the functional unchanged
    m = SPEC.period
    prev = AlphaRectangle(0, 8, 0, 8).to_lattice_set(Fraction(1, 4))
    cand = AlphaRectangle(1, 7, 2, 8).to_lattice_set(Fraction(1, 4))
    val = total_functional(SPEC, cand, prev, Fraction(1, 4))

    def shift(s, dx, dy):
        return lattice_set(s.epsilon, [(x + dx, y + dy) for x, y in s.cells])

    assert total_functional(SPEC, shift(cand, 2 * m, -m),
                            shift(prev, 2 * m, -m), Fraction(1, 4)) == val


def test_total_functional_one_side_move():
    # moving one side in by one row: perimeter drops 2*alpha*eps, cost rows*eps^2/gamma
    hom = homogeneous_medium(1)
    eps, gamma = Fraction(1, 8), Fraction(1)
    tau = gamma * eps
    prev = AlphaRectangle(0, 7, 0, 7)
    cand = AlphaRectangle(0, 7, 1, 7)
    delta = (total_functional(hom, cand.to_lattice_set(eps), prev.to_lattice_set(eps), tau)
             - perimeter_energy(hom, prev.to_lattice_set(eps)))
    assert delta == -2 * eps + 8 * eps ** 2 / gamma


def test_alpha_rectangle_helpers():
    rect = AlphaRectangle(2, 11, 2, 11)
    assert rect.width == rect.height == 10
    assert is_alpha_type(SPEC, rect)
    assert not is_alpha_type(SPEC, AlphaRectangle(1, 11, 2, 11))
    with pytest.raises(ValueError):
        AlphaRectangle(3, 2, 0, 0)


def test_alpha_type_homogeneous_always():
    hom = homogeneous_medium(1)
    assert is_alpha_type(hom, AlphaRectangle(3, 17, -2, 5))
