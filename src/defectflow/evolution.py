"""Limit evolution of rectangles: each side moves at a velocity set by the
opposite pair's length through the effective velocity law.

Lengths solve dL1/dt = -(2/gamma) f(gamma/L2), dL2/dt = -(2/gamma) f(gamma/L1),
where f is piecewise constant; the trajectory is integrated exactly, event by
event.  At a jump point of f the velocity of the component just crossed into
is used.  f is read once per jump-grid component, from component_velocity's
closed form in (n_alpha, n_beta, k); run_orbit's Fraction scan is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import MediumSpec
from .orbit import component_midpoint, component_velocity, jump_component, pinning_threshold
from .rationals import as_fraction, rational_floor

# integration gives up (stop_reason "max_events") after this many segments
_MAX_EVENTS = 100000


def classify_regime(spec: MediumSpec, gamma, l1, l2) -> str:
    """Pinned when both sides exceed the critical length, vanishing when the
    smaller side is below it and the larger at most at it, mixed otherwise."""
    l1, l2 = as_fraction(l1), as_fraction(l2)
    if l1 <= 0 or l2 <= 0:
        raise ValueError("side lengths must be positive")
    thr = pinning_threshold(spec, gamma)
    lo, hi = min(l1, l2), max(l1, l2)
    if lo > thr:
        return "pinned"
    if lo < thr and hi <= thr:
        return "vanishing"
    return "mixed"


def velocity_of_length(spec: MediumSpec, gamma, length) -> Fraction:
    """Effective f at y = gamma / length, taking the component above at jump points."""
    k, _ = jump_component(spec.alpha, as_fraction(gamma) / as_fraction(length))
    return component_velocity(spec.n_alpha, spec.n_beta, k)


def _component_velocities(spec: MediumSpec, gamma: Fraction):
    """Lookup k -> f on jump-grid component k, evaluating each component once."""
    table = {}

    def f(k: int) -> Fraction:
        if k not in table:
            table[k] = velocity_of_length(spec, gamma, gamma / component_midpoint(spec.alpha, k))
        return table[k]
    return f


def _next_change(spec: MediumSpec, k: int, f) -> int:
    """First jump-grid component above k on which f changes value.

    `f` maps a component to its velocity; component j starts at length 4*alpha*gamma / j.
    Every step lands within (n_beta+1)/2 of its vertex 2*alpha*y - 1/2, so
    on component j, at its midpoint, f >= (2j+1)/4 - (n_beta+2)/2: f must
    have changed by component floor(2*f + 1/2) + n_beta + 2.
    """
    current = f(k)
    for j in range(k + 1, rational_floor(2 * current + Fraction(1, 2)) + spec.n_beta + 3):
        if f(j) != current:
            return j
    raise AssertionError(f"f = {current} failed to change within its band bound")


@dataclass(frozen=True)
class RectState:
    l1: Fraction
    l2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l1", as_fraction(self.l1))
        object.__setattr__(self, "l2", as_fraction(self.l2))
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("side lengths must be positive")


@dataclass(frozen=True)
class Segment:
    """Linear piece of the trajectory: lengths at t_start plus constant slopes."""

    t_start: Fraction
    t_end: Fraction
    l1_start: Fraction
    l2_start: Fraction
    slope1: Fraction
    slope2: Fraction

    def lengths_at(self, t) -> tuple:
        t = as_fraction(t)
        dt = t - self.t_start
        return (self.l1_start + self.slope1 * dt, self.l2_start + self.slope2 * dt)


@dataclass(frozen=True)
class RectTrajectory:
    """Piecewise-linear rectangle evolution with an extinction-time bracket.

    The number of velocity events is infinite as a vanishing rectangle
    collapses, so integration stops once the remaining lifetime admits an
    exact bound; extinction_window then brackets the extinction time.
    """

    regime: str
    segments: tuple
    extinction_window: Optional[tuple]
    stop_reason: str

    @property
    def t_end(self) -> Fraction:
        return self.segments[-1].t_end

    def lengths_at(self, t):
        t = as_fraction(t)
        for seg in self.segments:
            if seg.t_start <= t <= seg.t_end:
                return seg.lengths_at(t)
        raise ValueError(f"t = {t} is outside the integrated range")


def _tail_window(spec: MediumSpec, gamma, t, l1, l2) -> Optional[tuple]:
    """Extinction bracket from time t once the longer side is so short that the velocity
    dominates a multiple of 1/L, an integrable bound on the remaining lifetime; else None."""
    s = max(l1, l2)
    if s > spec.alpha * gamma / (spec.n_beta + 1):
        return None
    return t, t + s * s * (spec.n_beta + 2) / (2 * spec.alpha * (2 * spec.n_beta + 3))


def integrate(spec: MediumSpec, gamma, initial: RectState, t_max) -> RectTrajectory:
    """Integrate the rectangle law exactly from t = 0 until t_max, pinning, or collapse."""
    gamma = as_fraction(gamma)
    t_max = as_fraction(t_max)
    regime = classify_regime(spec, gamma, initial.l1, initial.l2)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    t, l1, l2 = Fraction(0), initial.l1, initial.l2
    segments = []
    extinction_window = None
    stop_reason = "t_max"
    f = _component_velocities(spec, gamma)
    for _ in range(_MAX_EVENTS):
        k1 = jump_component(spec.alpha, gamma / l1)[0]
        k2 = jump_component(spec.alpha, gamma / l2)[0]
        s1 = -2 * f(k2) / gamma  # each side is driven by the other's length
        s2 = -2 * f(k1) / gamma
        if s1 == 0 and s2 == 0:
            segments.append(Segment(t, t_max, l1, l2, s1, s2))
            stop_reason = "pinned"
            break
        dt = None
        for length, k, slope in ((l1, k1, s1), (l2, k2, s2)):
            if slope < 0:
                target = 4 * spec.alpha * gamma / _next_change(spec, k, f)
                cand = (length - target) / (-slope)
                if dt is None or cand < dt:
                    dt = cand
        if t + dt >= t_max:
            segments.append(Segment(t, t_max, l1, l2, s1, s2))
            stop_reason = "t_max"
            break
        t_end = t + dt
        segments.append(Segment(t, t_end, l1, l2, s1, s2))
        l1 = l1 + s1 * dt
        l2 = l2 + s2 * dt
        t = t_end
        if s1 < 0 and s2 < 0 and (extinction_window := _tail_window(spec, gamma, t, l1, l2)):
            stop_reason = "collapse"
            break
    else:
        stop_reason = "max_events"
    return RectTrajectory(regime=regime, segments=tuple(segments),
                          extinction_window=extinction_window,
                          stop_reason=stop_reason)
