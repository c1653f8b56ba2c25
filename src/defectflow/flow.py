"""Discrete flow of rectangles under the perimeter-plus-dissipation scheme.

Two steppers are provided: a per-side stepper that moves each of the four
sides by the one-dimensional minimizer, and a brute-force stepper that
minimizes the exact functional over a family of nested rectangles.  Both act
on rectangles whose boundary bonds are all weak (alpha-type); the per-side
stepper preserves that class by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import (AlphaRectangle, MediumSpec, homogeneous_medium, is_alpha_type,
                      rect_dissipation, rect_perimeter_energy)
from .orbit import step_minimizer
from .rationals import as_fraction

SIDES = ("left", "right", "bottom", "top")


class FamilyTooSmallError(RuntimeError):
    """The brute-force minimizer landed on the family boundary; widen the family."""


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
    delta_floor_cells: int = 4
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


def side_residues(spec: MediumSpec, rect: AlphaRectangle) -> dict:
    """Residue of each side in the coordinates of the one-dimensional scheme.

    A displacement d of a side is admissible exactly when residue + d lands
    in [0, n_alpha) modulo the period, matching step_minimizer.
    """
    m = spec.period
    off = spec.n_beta + 1
    return {
        "left": (rect.x_min - off) % m,
        "right": (m - 1 - rect.x_max) % m,
        "bottom": (rect.y_min - off) % m,
        "top": (m - 1 - rect.y_max) % m,
    }


def side_displacements(spec: MediumSpec, gamma, epsilon, rect: AlphaRectangle,
                       tie_break: str = "small") -> dict:
    """One-dimensional minimizing displacement for each side of the rectangle.

    Vertical sides see y = gamma / height, horizontal sides y = gamma / width
    (physical lengths).  Ties are resolved by tie_break.
    """
    gamma = as_fraction(gamma)
    epsilon = as_fraction(epsilon)
    residues = side_residues(spec, rect)
    y_vertical = gamma / (rect.height * epsilon)
    y_horizontal = gamma / (rect.width * epsilon)
    pick = min if tie_break == "small" else max
    out = {}
    for side in SIDES:
        y = y_vertical if side in ("left", "right") else y_horizontal
        choices = step_minimizer(spec, y, residues[side])
        out[side] = (pick(choices), len(choices) > 1)
    return out


def _shift(rect: AlphaRectangle, d: dict) -> Optional[AlphaRectangle]:
    x_min = rect.x_min + d["left"]
    x_max = rect.x_max - d["right"]
    y_min = rect.y_min + d["bottom"]
    y_max = rect.y_max - d["top"]
    if x_min > x_max or y_min > y_max:
        return None
    return AlphaRectangle(x_min, x_max, y_min, y_max)


def per_side_step(config: FlowConfig, current: AlphaRectangle) -> Optional[AlphaRectangle]:
    """Advance one step moving each side independently; None signals extinction."""
    disp = side_displacements(config.spec, config.gamma, config.epsilon,
                              current, config.tie_break)
    return _shift(current, {s: disp[s][0] for s in SIDES})


def max_displacement_bound(spec: MediumSpec, gamma, rect: AlphaRectangle, epsilon) -> int:
    """A priori bound on how far any side can move in one step.

    A displacement N only pays off when (N - n_beta)^2 <= 4*alpha*gamma*N/L
    with L the shorter physical side length.
    """
    gamma = as_fraction(gamma)
    epsilon = as_fraction(epsilon)
    length = min(rect.width, rect.height) * epsilon
    rhs_scale = 4 * spec.alpha * gamma / length
    n = 0
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


def brute_force_step(config: FlowConfig, current: AlphaRectangle,
                     family: Optional[CandidateFamily] = None) -> AlphaRectangle:
    """Minimize the exact functional over the candidate family.

    Ties go to the candidate of smallest measure, then lexicographic offsets.
    If the winner touches the family boundary the family was too small.
    """
    if family is None:
        family = default_family(config, current)
    eps, tau, spec = config.epsilon, config.tau, config.spec
    best = None
    for offsets, cand in family.candidates():
        value = (rect_perimeter_energy(spec, cand, eps)
                 + rect_dissipation(current, cand, eps, tau))
        area = cand.width * cand.height
        key = (value, area, offsets)
        if best is None or key < best[0]:
            best = (key, offsets, cand)
    if best is None:
        raise ValueError("empty candidate family")
    _, offsets, winner = best
    if any(off == family.max_offset for off in offsets):
        raise FamilyTooSmallError(
            f"minimizer at offsets {offsets} touches the family bound {family.max_offset}")
    return winner


@dataclass(frozen=True)
class StepRecord:
    """One accepted step of a flow run."""

    step: int
    rect: AlphaRectangle
    displacements: dict
    perimeter: Fraction
    dissipation: Fraction
    tie_sides: tuple


@dataclass(frozen=True)
class FlowResult:
    rectangles: tuple
    records: tuple
    stop_reason: str


def run_flow(config: FlowConfig) -> FlowResult:
    """Run the configured number of steps, stopping at extinction or the size floor."""
    current = config.initial
    rects = [current]
    records = []
    stop_reason = "steps"
    for k in range(config.steps):
        if min(current.width, current.height) <= config.delta_floor_cells:
            stop_reason = "floor"
            break
        disp = side_displacements(config.spec, config.gamma, config.epsilon,
                                  current, config.tie_break)
        if config.mode == "per_side":
            nxt = _shift(current, {s: disp[s][0] for s in SIDES})
        else:
            nxt = brute_force_step(config, current)
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
            tie_sides=tuple(s for s in SIDES if disp[s][1]),
        ))
        rects.append(nxt)
        current = nxt
    return FlowResult(rectangles=tuple(rects), records=tuple(records),
                      stop_reason=stop_reason)


def comparison_check(spec: MediumSpec, gamma, epsilon, inner: AlphaRectangle,
                     outer: AlphaRectangle, steps: int, mode: str = "contains",
                     delta_floor_cells: int = 1) -> bool:
    """Weak comparison between a homogeneous inner flow and the exact outer flow.

    The inner rectangle evolves in the all-alpha medium with the
    smallest-measure tie break; the outer one by exact minimization in the
    given medium.  mode 'contains' checks inner stays inside outer; mode
    'disjoint' checks a shrinking obstacle never touches the inner rectangle.
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
                           steps=0, tie_break="large",
                           delta_floor_cells=delta_floor_cells)
    outer_cfg = FlowConfig(spec=spec, gamma=gamma, epsilon=epsilon, initial=outer,
                           steps=0, mode="brute_force",
                           delta_floor_cells=delta_floor_cells)
    cur_in, cur_out = inner, outer
    for _ in range(steps):
        cur_in = per_side_step(inner_cfg, cur_in)
        if cur_in is None:
            return True
        cur_out = brute_force_step(outer_cfg, cur_out)
        if not check(cur_in, cur_out):
            return False
    return True
