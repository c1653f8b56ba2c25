"""Two-dimensional rectangle flow: steppers, runs, comparison principle."""

import random
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectflow import flow
from defectflow.flow import (_FLOOR_CELLS, CandidateFamily,
                             FlowConfig, brute_force_step, comparison_check,
                             default_family, max_displacement_bound, per_side_step,
                             run_flow, side_displacements)
from defectflow.lattice import (AlphaRectangle, MediumSpec, homogeneous_medium,
                                is_alpha_type, rect_dissipation,
                                rect_perimeter_energy)

SPEC21 = MediumSpec(alpha=1, beta=2, n_alpha=2, n_beta=1)


def alpha_square(spec, n, base=None):
    """An alpha-type square of roughly n cells with scheme residue 0 on all sides."""
    m = spec.period
    lo = spec.n_beta + 1 if base is None else base
    hi = lo + n - 1
    hi -= (hi - (m - 1)) % m
    return AlphaRectangle(lo, hi, lo, hi)


def test_side_residues_track_displacements():
    # each side enters the scheme at its residue, so every displacement lands
    # it on a weak row, whichever of its residues the side starts from
    spec = MediumSpec(alpha=1, beta=2, n_alpha=3, n_beta=2)
    eps = Fraction(1, 10)
    rect = alpha_square(spec, 30)
    for shift in range(spec.n_alpha):
        moved = AlphaRectangle(rect.x_min + shift, rect.x_max - shift,
                               rect.y_min + shift, rect.y_max - shift)
        assert is_alpha_type(spec, moved)
        for gamma in (Fraction(5, 2), Fraction(4), Fraction(6)):
            d = side_displacements(spec, gamma, eps, moved)
            nxt = AlphaRectangle(moved.x_min + d["left"][0], moved.x_max - d["right"][0],
                                 moved.y_min + d["bottom"][0], moved.y_max - d["top"][0])
            assert is_alpha_type(spec, nxt), (shift, gamma, d)


def test_per_side_step_example():
    # square with y = gamma / L = 11/10 moves every side by one cell
    rect = alpha_square(SPEC21, 10)
    assert rect.width == 10
    cfg = FlowConfig(spec=SPEC21, gamma=1, epsilon=Fraction(1, 11),
                     initial=rect, steps=1)
    nxt = per_side_step(cfg, rect)
    assert nxt == AlphaRectangle(rect.x_min + 1, rect.x_max - 1,
                                 rect.y_min + 1, rect.y_max - 1)
    assert is_alpha_type(SPEC21, nxt)


def test_per_side_step_preserves_alpha_type():
    spec = MediumSpec(alpha=1, beta=2, n_alpha=3, n_beta=2)
    rect = alpha_square(spec, 30)
    cfg = FlowConfig(spec=spec, gamma=Fraction(5, 2), epsilon=Fraction(1, 10),
                     initial=rect, steps=1)
    cur = rect
    for _ in range(5):
        cur = per_side_step(cfg, cur)
        assert cur is None or is_alpha_type(spec, cur)
        if cur is None:
            break


def test_per_side_step_extinction():
    hom = homogeneous_medium(1)
    rect = AlphaRectangle(0, 1, 0, 1)
    # tiny square, huge gamma: displacements exceed the width
    cfg = FlowConfig(spec=hom, gamma=10, epsilon=1, initial=rect, steps=1)
    assert per_side_step(cfg, rect) is None


def test_homogeneous_displacement_law():
    # each side moves floor(2*alpha*gamma/L) cells
    hom = homogeneous_medium(1)
    eps = Fraction(1, 20)
    for n in (20, 30, 50):
        rect = AlphaRectangle(0, n - 1, 0, n - 1)
        for gamma in (Fraction(7, 8) * n * eps, Fraction(5, 3) * n * eps):
            cfg = FlowConfig(spec=hom, gamma=gamma, epsilon=eps,
                             initial=rect, steps=1)
            L = n * eps
            expected = (2 * gamma / L).__floor__()
            d = side_displacements(hom, gamma, eps, rect)
            assert all(d[s][0] == expected for s in d)


def test_max_displacement_bound_contains_actual_steps():
    spec = SPEC21
    rect = alpha_square(spec, 40)
    eps = Fraction(1, 20)
    gamma = Fraction(25, 24) * rect.height * eps
    bound = max_displacement_bound(spec, gamma, rect, eps)
    d = side_displacements(spec, gamma, eps, rect)
    assert all(d[s][0] <= bound for s in d)


@pytest.mark.parametrize("n_beta", [0, 1, 2, 3])
@pytest.mark.parametrize("rhs", [Fraction(1, 3), Fraction(2, 3), Fraction(1),
                                 Fraction(3, 2), Fraction(5), Fraction(37, 4)])
def test_max_displacement_bound_is_largest_paying_displacement(n_beta, rhs):
    # a 10-cell side at epsilon 1/10 has L = 1, so R = 4*alpha*gamma = rhs
    spec = MediumSpec(alpha=1, beta=2 if n_beta else None, n_alpha=2, n_beta=n_beta)
    rect = AlphaRectangle(0, 9, 0, 14)
    bound = max_displacement_bound(spec, rhs / 4, rect, Fraction(1, 10))
    paying = [n for n in range(201) if (n - n_beta) ** 2 <= rhs * n]
    assert bound == max(paying)


def test_brute_force_matches_per_side_in_good_regime():
    rect = alpha_square(SPEC21, 40)
    eps = Fraction(1, 20)
    gamma = Fraction(7, 8) * rect.height * eps
    cfg = FlowConfig(spec=SPEC21, gamma=gamma, epsilon=eps, initial=rect,
                     steps=1, mode="brute_force")
    assert brute_force_step(cfg, rect) == per_side_step(cfg, rect)


def test_brute_force_descends_energy():
    rect = alpha_square(SPEC21, 40)
    eps = Fraction(1, 20)
    gamma = Fraction(25, 24) * rect.height * eps
    cfg = FlowConfig(spec=SPEC21, gamma=gamma, epsilon=eps, initial=rect,
                     steps=1, mode="brute_force")
    nxt = brute_force_step(cfg, rect)
    value = (rect_perimeter_energy(SPEC21, nxt, eps)
             + rect_dissipation(rect, nxt, eps, cfg.tau))
    assert value <= rect_perimeter_energy(SPEC21, rect, eps)


def test_per_side_descends_energy():
    # exact dissipation never exceeds the per-side estimate, so the
    # functional decreases along per-side steps as well
    spec = MediumSpec(alpha=1, beta=2, n_alpha=1, n_beta=2)
    rect = alpha_square(spec, 50)
    eps = Fraction(1, 25)
    gamma = Fraction(13, 12) * rect.height * eps
    cfg = FlowConfig(spec=spec, gamma=gamma, epsilon=eps, initial=rect, steps=6)
    result = run_flow(cfg)
    prev = rect
    for rec in result.records:
        assert (rec.perimeter + rec.dissipation
                <= rect_perimeter_energy(spec, prev, eps))
        prev = rec.rect


def _searching(family):
    """Make brute_force_step search the given family instead of the default one."""
    return patch.object(flow, "default_family", lambda config, current: family)


def _scan_step(config, current, family):
    """The exact Fraction functional over the empty set (None, of area 0) and
    every candidate, ranked by (value, area, offsets)."""
    best = ((rect_dissipation(current, None, config.epsilon, config.tau), 0, ()), None)
    for offsets, cand in family.candidates():
        value = (rect_perimeter_energy(config.spec, cand, config.epsilon)
                 + rect_dissipation(current, cand, config.epsilon, config.tau))
        key = (value, cand.width * cand.height, offsets)
        if key < best[0]:
            best = (key, cand)
    (_, _, offsets), winner = best
    if winner is not None and family.max_offset in offsets:
        return ("family too small", offsets)
    return winner


@st.composite
def step_problems(draw):
    n_beta = draw(st.integers(0, 3))
    alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    if n_beta:
        # beta = 2 alpha is the common test medium; the others are not
        beta = alpha + draw(st.sampled_from([alpha, Fraction(1, 3), Fraction(5, 7)]))
        spec = MediumSpec(alpha=alpha, beta=beta, n_alpha=draw(st.integers(1, 4)),
                          n_beta=n_beta)
    else:
        spec = homogeneous_medium(alpha)
    m = spec.period
    width = draw(st.integers(4, 18))
    height = width if draw(st.booleans()) else draw(st.integers(4, 18))
    x0 = spec.n_beta + 1 + m * draw(st.integers(-3, 3))
    y0 = spec.n_beta + 1 + m * draw(st.integers(-3, 3))
    x1 = x0 + width - 1 - (x0 + width - 1 - (m - 1)) % m
    y1 = y0 + height - 1 - (y0 + height - 1 - (m - 1)) % m
    rect = AlphaRectangle(x0, max(x1, x0 + m - 1), y0, max(y1, y0 + m - 1))
    # y = gamma / (height * epsilon) with a large denominator, so epsilon/gamma has one too
    den = draw(st.integers(97, 9973))
    y = Fraction(draw(st.integers(den // 4, 3 * den)), den)
    eps = Fraction(1, draw(st.integers(5, 60)))
    config = FlowConfig(spec=spec, gamma=y * rect.height * eps, epsilon=eps,
                        initial=rect, steps=1, mode="brute_force")
    family = default_family(config, rect)
    if family.max_offset > 5 or draw(st.booleans()):
        family = CandidateFamily(base=rect, max_offset=draw(st.integers(2, 5)))
    return config, rect, family


_BOUND_BREACH_RECT = alpha_square(SPEC21, 30)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(step_problems())
# no drawn example puts the winner on the family bound; this one does, at (1, 1, 1, 1)
@example((FlowConfig(spec=SPEC21, gamma=Fraction(49, 60), epsilon=Fraction(1, 30),
                     initial=_BOUND_BREACH_RECT, steps=1, mode="brute_force"),
          _BOUND_BREACH_RECT, CandidateFamily(base=_BOUND_BREACH_RECT, max_offset=1)))
def test_brute_force_matches_fraction_scan(problem):
    config, rect, family = problem
    expected = _scan_step(config, rect, family)
    try:
        with _searching(family):  # a function-scoped monkeypatch fails hypothesis's health check
            got = brute_force_step(config, rect)
    except AssertionError as exc:
        assert expected[0] == "family too small", (expected, exc)
        assert str(expected[1]) in str(exc)
    else:
        assert got == expected


def test_brute_force_breaks_value_ties_by_area_then_offsets():
    hom = homogeneous_medium(1)
    # at gamma = 9/10 the shifts by one and by two cells tie in value: area decides
    rect = AlphaRectangle(0, 29, 0, 29)
    eps = Fraction(1, 30)
    for gamma in (Fraction(3, 4), Fraction(9, 10), Fraction(7, 5)):
        config = FlowConfig(spec=hom, gamma=gamma, epsilon=eps, initial=rect,
                            steps=1, mode="brute_force")
        family = CandidateFamily(base=rect, max_offset=4)
        with _searching(family):
            assert brute_force_step(config, rect) == _scan_step(config, rect, family)
    # a 2 x 2 square at gamma = epsilon/2 costs exactly what removing it does
    # (its perimeter 8*alpha*epsilon): the empty set, of measure 0, wins the tie
    rect = AlphaRectangle(0, 1, 0, 1)
    family = CandidateFamily(base=rect, max_offset=2)
    eps = Fraction(1, 10)
    for gamma, winner in ((eps / 2, None), (eps / 3, rect)):
        config = FlowConfig(spec=hom, gamma=gamma, epsilon=eps, initial=rect,
                            steps=1, mode="brute_force")
        with _searching(family):
            assert brute_force_step(config, rect) == winner == _scan_step(config, rect, family)
    assert rect_perimeter_energy(hom, rect, eps) == rect_dissipation(rect, None, eps, eps * eps / 2)


def test_brute_force_area_tie_through_the_dt_pass():
    # moving the bottom and the top side in by one ties in value with moving
    # only one of them; the smaller measure wins, so the least G over dt <= t
    # must keep the larger dt
    hom = homogeneous_medium(1)
    gamma, eps = Fraction(1, 5), Fraction(1, 10)
    for rect, winner, ties in (
            (AlphaRectangle(1, 4, 1, 11), AlphaRectangle(1, 4, 2, 10),
             (AlphaRectangle(1, 4, 2, 11), AlphaRectangle(1, 4, 1, 10))),
            (AlphaRectangle(1, 11, 1, 4), AlphaRectangle(2, 10, 1, 4),
             (AlphaRectangle(2, 11, 1, 4), AlphaRectangle(1, 10, 1, 4)))):
        config = FlowConfig(spec=hom, gamma=gamma, epsilon=eps, initial=rect,
                            steps=1, mode="brute_force")
        values = {rect_perimeter_energy(hom, r, eps) + rect_dissipation(rect, r, eps, config.tau)
                  for r in (winner, *ties)}
        assert len(values) == 1
        assert winner.width * winner.height == 36
        assert {r.width * r.height for r in ties} == {40}
        assert brute_force_step(config, rect) == winner == _scan_step(
            config, rect, default_family(config, rect))


def test_brute_force_large_y_step_is_fast():
    # at Y = 20 the family bound is 82: the K^4 offset search took about 11 s
    spec = MediumSpec(alpha=1, beta=2, n_alpha=3, n_beta=1)
    rect = AlphaRectangle(2, 202, 2, 202)
    eps = Fraction(1, 20)
    start = time.perf_counter()
    got = [brute_force_step(FlowConfig(spec=spec, gamma=y * rect.height * eps, epsilon=eps,
                                       initial=rect, steps=1, mode="brute_force"), rect)
           for y in (5, 20)]
    elapsed = time.perf_counter() - start
    assert got == [AlphaRectangle(12, 191, 12, 191), None]
    assert elapsed < 1.0


def test_brute_force_matches_full_enumeration():
    # the default family plus the empty set holds the exact minimizer over
    # every nested rectangle, alpha-type or not; a family of offsets up to the
    # longer side enumerates all of them.  At 7-10 cells per side a step moves
    # a side only for 2*alpha*Y near 1, and a larger Y empties the rectangle,
    # so Y is drawn from 2*alpha*Y in [3/4, 5/4].
    rng = random.Random(6)
    eps = Fraction(1, 20)
    outcomes = set()
    for _ in range(40):
        n_beta, alpha = rng.randint(0, 3), rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        spec = MediumSpec(alpha=alpha, beta=alpha * rng.choice([2, 3, 6]) if n_beta else None,
                          n_alpha=rng.randint(1, 4), n_beta=n_beta)
        rect = None
        while rect is None or not is_alpha_type(spec, rect):
            x0, y0 = rng.randrange(12), rng.randrange(12)
            rect = AlphaRectangle(x0, x0 + rng.randint(6, 9), y0, y0 + rng.randint(6, 9))
        y = Fraction(rng.randint(12, 20), 32) / alpha
        config = FlowConfig(spec=spec, gamma=y * rect.height * eps, epsilon=eps,
                            initial=rect, steps=1, mode="brute_force")
        every = CandidateFamily(base=rect, max_offset=max(rect.width, rect.height))
        got = brute_force_step(config, rect)
        assert got == _scan_step(config, rect, every), (spec, rect, y)
        outcomes.add("empty" if got is None else "kept" if got == rect else "moved")
    assert outcomes == {"empty", "kept", "moved"}
    # the default family against the same search over offsets up to the
    # longer side, on larger rectangles and 2*alpha*Y in [1/2, 5]
    rng = random.Random(7)
    outcomes = set()
    for _ in range(100):
        n_beta, alpha = rng.randint(0, 3), rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        spec = MediumSpec(alpha=alpha, beta=alpha * rng.choice([2, 3, 6]) if n_beta else None,
                          n_alpha=rng.randint(1, 4), n_beta=n_beta)
        rect = None
        while rect is None or not is_alpha_type(spec, rect):
            x0, y0 = rng.randrange(12), rng.randrange(12)
            rect = AlphaRectangle(x0, x0 + rng.randint(6, 24), y0, y0 + rng.randint(6, 24))
        y = Fraction(rng.randint(8, 80), 16) / (2 * alpha)
        config = FlowConfig(spec=spec, gamma=y * rect.height * eps, epsilon=eps,
                            initial=rect, steps=1, mode="brute_force")
        got = brute_force_step(config, rect)
        with _searching(CandidateFamily(base=rect, max_offset=max(rect.width, rect.height))):
            assert got == brute_force_step(config, rect), (spec, rect, y)
        outcomes.add("empty" if got is None else "kept" if got == rect else "moved")
    assert outcomes == {"empty", "kept", "moved"}


def test_family_too_small_raises():
    rect = alpha_square(SPEC21, 30)
    cfg = FlowConfig(spec=SPEC21, gamma=Fraction(49, 60), epsilon=Fraction(1, 30),
                     initial=rect, steps=1, mode="brute_force")
    # every side moves one cell, onto the edge of a family of offsets 0..1
    assert brute_force_step(cfg, rect) == per_side_step(cfg, rect) == AlphaRectangle(
        rect.x_min + 1, rect.x_max - 1, rect.y_min + 1, rect.y_max - 1)
    with _searching(CandidateFamily(base=rect, max_offset=1)), \
            pytest.raises(AssertionError, match=r"\(1, 1, 1, 1\)"):
        brute_force_step(cfg, rect)
    # no certificate: a winner off the family bound may still be wrong, since
    # a side must jump a whole strong band before moving pays.  At offsets
    # 0..1 the first step returns the empty set, the second the unchanged
    # rectangle, both with no error
    eps = Fraction(1, 20)
    for spec, rect, gamma, winner, kept in (
            (MediumSpec(alpha=Fraction(1, 2), beta=Fraction(3, 2), n_alpha=1, n_beta=1),
             AlphaRectangle(10, 39, 8, 25), Fraction(189, 80), AlphaRectangle(12, 37, 10, 23), False),
            (MediumSpec(alpha=Fraction(3, 2), beta=3, n_alpha=1, n_beta=3),
             AlphaRectangle(4, 27, 8, 27), Fraction(35, 48), AlphaRectangle(8, 23, 12, 23), True)):
        cfg = FlowConfig(spec=spec, gamma=gamma, epsilon=eps, initial=rect, steps=1,
                         mode="brute_force")
        assert brute_force_step(cfg, rect) == winner
        with _searching(CandidateFamily(base=rect, max_offset=max(rect.width, rect.height))):
            assert brute_force_step(cfg, rect) == winner
        with _searching(CandidateFamily(base=rect, max_offset=1)):
            assert brute_force_step(cfg, rect) == (rect if kept else None)


def test_brute_force_step_picks_the_empty_set():
    # each rectangle is cheaper to remove than to keep in any nested form; for
    # the 10 x 10 square the empty set costs 11/5, the family's best rectangle 51/20
    hom = homogeneous_medium(1)
    for rect, gamma, eps in ((AlphaRectangle(0, 9, 0, 9), 1, Fraction(1, 10)),
                             (AlphaRectangle(1, 15, 1, 11), Fraction(77, 160),
                              Fraction(1, 20))):
        cfg = FlowConfig(spec=hom, gamma=gamma, epsilon=eps, initial=rect, steps=2,
                         mode="brute_force")
        assert brute_force_step(cfg, rect) is None
        assert _scan_step(cfg, rect, default_family(cfg, rect)) is None
        result = run_flow(cfg)
        assert (result.stop_reason, result.records) == ("extinction", ())


def test_run_flow_stops_at_floor():
    rect = alpha_square(SPEC21, 12)
    eps = Fraction(1, 12)
    gamma = Fraction(7, 8) * rect.height * eps
    cfg = FlowConfig(spec=SPEC21, gamma=gamma, epsilon=eps, initial=rect,
                     steps=50)
    result = run_flow(cfg)
    assert result.stop_reason == "floor"
    assert min(result.rectangles[-1].width, result.rectangles[-1].height) \
        <= _FLOOR_CELLS + 2 * max_displacement_bound(
            SPEC21, gamma, result.rectangles[-2], eps)


def test_run_flow_records_are_consistent():
    rect = alpha_square(SPEC21, 30)
    eps = Fraction(1, 15)
    gamma = Fraction(7, 8) * rect.height * eps
    cfg = FlowConfig(spec=SPEC21, gamma=gamma, epsilon=eps, initial=rect, steps=3)
    result = run_flow(cfg)
    assert result.rectangles[0] == rect
    for rec, cur, nxt in zip(result.records, result.rectangles, result.rectangles[1:]):
        assert rec.rect == nxt
        assert rec.displacements["left"] == nxt.x_min - cur.x_min
        assert rec.dissipation == rect_dissipation(cur, nxt, eps, cfg.tau)


def test_comparison_check_nested():
    outer = alpha_square(SPEC21, 56)
    inner = AlphaRectangle(outer.x_min + 10, outer.x_max - 10,
                           outer.y_min + 10, outer.y_max - 10)
    eps = Fraction(1, 20)
    gamma = Fraction(25, 24) * outer.height * eps
    assert comparison_check(SPEC21, gamma, eps, inner, outer, steps=3)


def test_comparison_check_when_the_outer_flow_vanishes():
    # the exhaustive step removes this rectangle in one step, while the
    # per-side step of the inner flow keeps a smaller one
    hom = homogeneous_medium(1)
    gamma, eps = Fraction(77, 160), Fraction(1, 20)
    outer = AlphaRectangle(1, 15, 1, 11)
    cfg = FlowConfig(spec=hom, gamma=gamma, epsilon=eps, initial=outer, steps=1,
                     mode="brute_force")
    assert brute_force_step(cfg, outer) is None
    assert per_side_step(cfg, outer) is not None
    assert not comparison_check(hom, gamma, eps, outer, outer, steps=1)
    beside = AlphaRectangle(30, 44, 1, 11)
    assert comparison_check(hom, gamma, eps, beside, outer, steps=2, mode="disjoint")


def test_comparison_check_not_nested_fails_fast():
    outer = alpha_square(SPEC21, 20)
    inner = AlphaRectangle(outer.x_min - 1, outer.x_max, outer.y_min, outer.y_max)
    assert not comparison_check(SPEC21, 1, Fraction(1, 20), inner, outer, steps=1)


def test_comparison_check_disjoint_mode():
    obstacle = alpha_square(SPEC21, 40)
    inner = AlphaRectangle(obstacle.x_max + 4, obstacle.x_max + 24,
                           obstacle.y_min, obstacle.y_min + 20)
    eps = Fraction(1, 20)
    gamma = Fraction(25, 24) * obstacle.height * eps
    assert comparison_check(SPEC21, gamma, eps, inner, obstacle, steps=3,
                            mode="disjoint")


def test_flow_config_validation():
    rect = alpha_square(SPEC21, 10)
    with pytest.raises(ValueError):
        FlowConfig(spec=SPEC21, gamma=0, epsilon=1, initial=rect, steps=1)
    with pytest.raises(ValueError):
        FlowConfig(spec=SPEC21, gamma=1, epsilon=1, initial=rect, steps=1,
                   mode="exhaustive")
    bad = AlphaRectangle(1, 11, 2, 11)
    with pytest.raises(ValueError):
        FlowConfig(spec=SPEC21, gamma=1, epsilon=1, initial=bad, steps=1)
