"""Discrete flow of rectangles under the perimeter-plus-dissipation scheme.

Two steppers are provided: a per-side stepper that moves each of the four
sides by the one-dimensional minimizer, and a brute-force stepper that
minimizes the exact functional over a family of nested rectangles and the
empty set.  Both act on rectangles whose boundary bonds are all weak
(alpha-type); the per-side stepper preserves that class by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Optional

from .lattice import (AlphaRectangle, MediumSpec, _side_terms, _sum_min_depth,
                      homogeneous_medium, is_alpha_type, rect_dissipation,
                      rect_perimeter_energy)
from .orbit import step_minimizer
from .rationals import as_fraction

# run_flow stops once the shorter side has at most this many cells
_FLOOR_CELLS = 4


@dataclass
class FlowConfig:
    """Parameters of a discrete flow run.

    tie_break selects the displacement kept when the one-dimensional
    minimizer is not unique: 'small' keeps the smaller displacement, 'large'
    the larger one (the smallest-measure convention).
    """

    spec: MediumSpec
    gamma: Fraction
    epsilon: Fraction
    initial: AlphaRectangle
    steps: int
    mode: str = "per_side"
    tie_break: str = "small"

    def __post_init__(self):
        self.gamma = as_fraction(self.gamma)
        self.epsilon = as_fraction(self.epsilon)
        if self.gamma <= 0 or self.epsilon <= 0:
            raise ValueError("gamma and epsilon must be positive")
        if self.mode not in ("per_side", "brute_force"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tie_break not in ("small", "large"):
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not is_alpha_type(self.spec, self.initial):
            raise ValueError("initial rectangle must be alpha-type")

    @property
    def tau(self) -> Fraction:
        return self.gamma * self.epsilon


def side_displacements(spec: MediumSpec, gamma, epsilon, rect: AlphaRectangle,
                       tie_break: str = "small") -> dict:
    """One-dimensional minimizing displacement for each side of the rectangle.

    Vertical sides see y = gamma / height, horizontal sides y = gamma / width
    (physical lengths).  A side at residue r may move by d when r + d lands in
    [0, n_alpha) modulo the period.  Each side maps to (displacement, tie): the
    step_minimizer choice picked by tie_break, and whether it had a choice.
    """
    gamma = as_fraction(gamma)
    epsilon = as_fraction(epsilon)
    m, off = spec.period, spec.n_beta + 1
    y_vertical = gamma / (rect.height * epsilon)
    y_horizontal = gamma / (rect.width * epsilon)
    pick = min if tie_break == "small" else max
    out = {}
    for side, y, residue in (("left", y_vertical, rect.x_min - off),
                             ("right", y_vertical, m - 1 - rect.x_max),
                             ("bottom", y_horizontal, rect.y_min - off),
                             ("top", y_horizontal, m - 1 - rect.y_max)):
        choices = step_minimizer(spec, y, residue % m)
        out[side] = (pick(choices), len(choices) > 1)
    return out


def _per_side(config: FlowConfig, current: AlphaRectangle) -> Optional[AlphaRectangle]:
    d = side_displacements(config.spec, config.gamma, config.epsilon,
                           current, config.tie_break)
    x_min, x_max = current.x_min + d["left"][0], current.x_max - d["right"][0]
    y_min, y_max = current.y_min + d["bottom"][0], current.y_max - d["top"][0]
    if x_min > x_max or y_min > y_max:
        return None
    return AlphaRectangle(x_min, x_max, y_min, y_max)


def per_side_step(config: FlowConfig, current: AlphaRectangle) -> Optional[AlphaRectangle]:
    """Advance one step moving each side independently; None signals extinction."""
    # run_flow calls _per_side, so a wrapper of this name counts no run_flow step
    return _per_side(config, current)


def max_displacement_bound(spec: MediumSpec, gamma, rect: AlphaRectangle, epsilon) -> int:
    """The farthest any side moves in one step, as the exhaustive step assumes.

    A displacement N only pays off when (N - n_beta)^2 <= 4*alpha*gamma*N/L
    with L the shorter physical side length.  Those N form an interval
    holding n_beta, so the walk to its upper end starts there.  It is not a
    proven bound: a side may pay to jump a whole strong band past it.
    """
    gamma = as_fraction(gamma)
    epsilon = as_fraction(epsilon)
    length = min(rect.width, rect.height) * epsilon
    rhs_scale = 4 * spec.alpha * gamma / length
    n = spec.n_beta
    while (n + 1 - spec.n_beta) ** 2 <= rhs_scale * (n + 1):
        n += 1
    return n


@dataclass(frozen=True)
class CandidateFamily:
    """Nested rectangles obtained by moving each side of base inward by 0..max_offset."""

    base: AlphaRectangle
    max_offset: int

    def candidates(self):
        b = self.base
        top = self.max_offset
        for dl in range(top + 1):
            for dr in range(top + 1):
                if b.x_min + dl > b.x_max - dr:
                    continue
                for db in range(top + 1):
                    for dt in range(top + 1):
                        if b.y_min + db > b.y_max - dt:
                            continue
                        yield ((dl, dr, db, dt),
                               AlphaRectangle(b.x_min + dl, b.x_max - dr,
                                              b.y_min + db, b.y_max - dt))


def default_family(config: FlowConfig, current: AlphaRectangle) -> CandidateFamily:
    bound = max_displacement_bound(config.spec, config.gamma, current, config.epsilon)
    return CandidateFamily(base=current, max_offset=bound + 1)


def brute_force_step(config: FlowConfig, current: AlphaRectangle) -> Optional[AlphaRectangle]:
    """Minimize the exact functional over the default family and the empty set.

    Ties go to the candidate of smallest measure, then lexicographic offsets
    (dl, dr, db, dt); None means the empty set won.  A winner on the family
    bound breaks the assumption of max_displacement_bound and raises
    AssertionError; an interior winner or the empty set does not show it held.

    For fixed (dl, dr) the value splits as F(db) + G(dt): the bond count, the
    strong bond count and the kept sum each add a part of the bottom side to a
    part of the top side.  One pass over dt keeps the least G over dt <= t,
    ties going to the larger dt (the smaller measure), and one pass over db
    reads it at the largest dt that db leaves, so the search costs O(K^3) for
    K = max_offset rather than K^4.
    """
    spec, top = config.spec, default_family(config, current).max_offset
    # value / epsilon = alpha*bonds + (beta - alpha)*strong + (epsilon/gamma)*(const - kept),
    # kept being the candidate's area plus depth sum; times the lcm of the
    # denominators and less the constant, it ranks as an exact integer; the empty set scores 0
    weights = (spec.alpha, spec.beta - spec.alpha if spec.n_beta else Fraction(0),
               config.epsilon / config.gamma)
    scale = math.lcm(*(w.denominator for w in weights))
    bond, strong, kept = (int(w * scale) for w in weights)
    width, height = current.width, current.height
    tx, ty = min(top, width - 1), min(top, height - 1)
    # corner[i][j]: area plus depth over an i x j corner block of current, the
    # same at all four corners since the depth is symmetric under reflection
    corner = [[0] * (ty + 1)]
    for p in range(1, tx + 1):
        column = (min(p, width + 1 - p, q, height + 1 - q) for q in range(1, ty + 1))
        corner.append(list(map(add, corner[-1], accumulate(column, initial=0))))
    # a candidate keeps all of current less the strip each side cuts off, plus
    # the corner blocks cut off twice; the parts of one side: its strip and bonds
    x_part = [kept * (k * height + _sum_min_depth(width, height, 0, width - k, 0, 0)) - 2 * bond * k
              for k in range(tx + 1)]
    y_part = [kept * (k * width + _sum_min_depth(width, height, 0, 0, 0, height - k)) - 2 * bond * k
              for k in range(ty + 1)]
    x_low, x_high = _side_terms(spec, current.x_min, current.x_max, tx)
    y_low, y_high = _side_terms(spec, current.y_min, current.y_max, ty)

    def corner_terms(xs, ys, extra):
        # an x side and a y side meet at a corner: the strong bonds that each
        # crosses along the other, less the kept of the corner block
        return [[strong * (sx * ny + sy * nx) - kept * c + e
                 for (sy, ny), c, e in zip(ys, row, extra)]
                for (sx, nx), row in zip(xs, corner)]

    no_part = [0] * (ty + 1)
    f_left, f_right = corner_terms(x_low, y_low, y_part), corner_terms(x_high, y_low, no_part)
    g_left, g_right = corner_terms(x_low, y_high, y_part), corner_terms(x_high, y_high, no_part)
    base = 2 * bond * (width + height) - kept * (width * height
                                                 + _sum_min_depth(width, height, 0, 0, 0, 0))
    # db leaves dt <= caps[db]; g_least[i] is the least G over dt <= tight + i
    caps = [min(ty, height - 1 - db) for db in range(ty + 1)]
    tight = caps[-1]
    cap_index = [t - tight for t in caps]
    best = (0, 0, None)  # the empty set, of measure 0, wins ties
    for dl in range(tx + 1):
        for dr in range(min(tx, width - 1 - dl) + 1):
            g = list(map(add, g_left[dl], g_right[dr]))
            g_least = list(accumulate(g[tight + 1:], min, initial=min(g[:tight + 1])))
            values = list(map(add, map(add, f_left[dl], f_right[dr]),
                              map(g_least.__getitem__, cap_index)))
            least = min(values)
            value = base + x_part[dl] + x_part[dr] + least
            if value > best[0]:
                continue
            w = width - dl - dr
            for db, v in enumerate(values):
                if v == least:
                    t = caps[db]
                    dt = max(j for j in range(t + 1) if g[j] == g_least[t - tight])
                    key = (value, w * (height - db - dt), (dl, dr, db, dt))
                    if key < best:
                        best = key
    if best[2] is None:
        return None
    offsets = dl, dr, db, dt = best[2]
    if top in offsets:
        raise AssertionError(f"minimizer at offsets {offsets} touches the family bound {top}")
    return AlphaRectangle(current.x_min + dl, current.x_max - dr,
                          current.y_min + db, current.y_max - dt)


@dataclass(frozen=True)
class StepRecord:
    """One accepted step of a flow run."""

    step: int
    rect: AlphaRectangle
    displacements: dict
    perimeter: Fraction
    dissipation: Fraction


@dataclass(frozen=True)
class FlowResult:
    rectangles: tuple
    records: tuple
    stop_reason: str


def run_flow(config: FlowConfig) -> FlowResult:
    """Run the configured number of steps, stopping at extinction or the size floor."""
    step = _per_side if config.mode == "per_side" else brute_force_step
    current = config.initial
    rects = [current]
    records = []
    stop_reason = "steps"
    for k in range(config.steps):
        if min(current.width, current.height) <= _FLOOR_CELLS:
            stop_reason = "floor"
            break
        nxt = step(config, current)
        if nxt is None:
            stop_reason = "extinction"
            break
        moved = {
            "left": nxt.x_min - current.x_min,
            "right": current.x_max - nxt.x_max,
            "bottom": nxt.y_min - current.y_min,
            "top": current.y_max - nxt.y_max,
        }
        records.append(StepRecord(
            step=k + 1,
            rect=nxt,
            displacements=moved,
            perimeter=rect_perimeter_energy(config.spec, nxt, config.epsilon),
            dissipation=rect_dissipation(current, nxt, config.epsilon, config.tau),
        ))
        rects.append(nxt)
        current = nxt
    return FlowResult(rectangles=tuple(rects), records=tuple(records),
                      stop_reason=stop_reason)


def comparison_check(spec: MediumSpec, gamma, epsilon, inner: AlphaRectangle,
                     outer: AlphaRectangle, steps: int, mode: str = "contains") -> bool:
    """Weak comparison between a homogeneous inner flow and the exact outer flow.

    The inner rectangle evolves in the all-alpha medium with the
    smallest-measure tie break; the outer one by exact minimization in the
    given medium.  mode 'contains' checks inner stays inside outer; mode
    'disjoint' checks a shrinking obstacle never touches the inner rectangle.
    A vanished outer set is disjoint from everything and contains nothing.
    """
    gamma = as_fraction(gamma)
    epsilon = as_fraction(epsilon)
    if mode not in ("contains", "disjoint"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    check = (lambda i, o: o.contains(i)) if mode == "contains" else \
        (lambda i, o: o.disjoint(i))
    if not check(inner, outer):
        return False
    homog = homogeneous_medium(spec.alpha)
    inner_cfg = FlowConfig(spec=homog, gamma=gamma, epsilon=epsilon, initial=inner,
                           steps=0, tie_break="large")
    outer_cfg = FlowConfig(spec=spec, gamma=gamma, epsilon=epsilon, initial=outer,
                           steps=0, mode="brute_force")
    cur_in, cur_out = inner, outer
    for _ in range(steps):
        cur_in = per_side_step(inner_cfg, cur_in)
        if cur_in is None:
            return True
        cur_out = brute_force_step(outer_cfg, cur_out)
        if cur_out is None:  # the outer flow vanished while the inner one lives
            return mode == "disjoint"
        if not check(cur_in, cur_out):
            return False
    return True
