"""Bond medium, lattice sets, and the perimeter/dissipation functionals."""

from fractions import Fraction

import pytest

from defectflow.lattice import (AlphaRectangle, MediumSpec,
                                bond_coefficient, dissipation, homogeneous_medium,
                                is_alpha_type, lattice_set, perimeter_energy,
                                rect_dissipation, rect_perimeter_energy,
                                rectangle_from_cells, total_functional)

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


def test_rect_perimeter_matches_bond_loop():
    eps = Fraction(1, 7)
    for spec in (SPEC, MediumSpec(alpha=Fraction(1, 2), beta=3, n_alpha=1, n_beta=2),
                 homogeneous_medium(1)):
        for bounds in [(0, 5, 0, 3), (1, 9, 2, 4), (3, 3, 5, 11), (2, 8, 1, 7)]:
            rect = AlphaRectangle(*bounds)
            fast = rect_perimeter_energy(spec, rect, eps)
            slow = perimeter_energy(spec, rect.to_lattice_set(eps))
            assert fast == slow


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


def test_rect_dissipation_matches_generic():
    eps = Fraction(1, 9)
    tau = Fraction(1, 9)
    outer = AlphaRectangle(0, 14, 0, 10)
    for inner in (AlphaRectangle(2, 12, 1, 9), AlphaRectangle(0, 14, 0, 10),
                  AlphaRectangle(5, 7, 3, 4), None):
        fast = rect_dissipation(outer, inner, eps, tau)
        cand = lattice_set(eps, []) if inner is None else inner.to_lattice_set(eps)
        slow = dissipation(outer.to_lattice_set(eps), cand, tau)
        assert fast == slow


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
    assert rectangle_from_cells(rect.cells()) == rect
    assert rectangle_from_cells(rect.cells() - {(5, 5)}) is None
    with pytest.raises(ValueError):
        AlphaRectangle(3, 2, 0, 0)


def test_alpha_type_homogeneous_always():
    hom = homogeneous_medium(1)
    assert is_alpha_type(hom, AlphaRectangle(3, 17, -2, 5))
