"""The paper's convergence claim: as epsilon -> 0 the discrete rectangle flows
follow the homogenized rectangle law, and in the pinned regime they stop."""

from fractions import Fraction

import pytest

from defectflow.evolution import RectState, integrate
from defectflow.flow import FlowConfig, brute_force_step, per_side_step
from defectflow.lattice import AlphaRectangle, MediumSpec
from defectflow.orbit import pinning_threshold

# the steppers read neither config.mode nor config.steps
STEPPERS = {"per_side": per_side_step, "exact": brute_force_step}


def alpha_type_span(spec, cells):
    """The cells [lo, hi] of an alpha-type side of length about `cells`: lo
    starts past the strong band, and hi is pulled in off it."""
    lo = spec.n_beta + 1
    hi = lo + cells - 1
    while hi % spec.period < spec.n_beta:
        hi -= 1
    return lo, hi


def start(spec, gamma, eps, l1, l2):
    rect = AlphaRectangle(*alpha_type_span(spec, round(l1 / eps)),
                          *alpha_type_span(spec, round(l2 / eps)))
    return FlowConfig(spec=spec, gamma=gamma, epsilon=eps, initial=rect, steps=0,
                      tie_break="large")


@pytest.mark.parametrize("n_alpha, n_beta, gamma", [
    (2, 1, 2), (1, 2, Fraction(3, 2)), (3, 2, Fraction(5, 2)), (2, 0, 1)])
def test_flows_follow_the_limit_law_until_extinction(n_alpha, n_beta, gamma):
    # both flows step until the empty set (run_flow's size floor stops short
    # of it); the ODE's extinction time lies in [t_lo, t_hi]
    spec = MediumSpec(alpha=1, beta=2 if n_beta else None, n_alpha=n_alpha, n_beta=n_beta)
    l1, l2 = Fraction(1), Fraction(3, 2)
    traj = integrate(spec, gamma, RectState(l1=l1, l2=l2), t_max=100)
    t_lo, t_hi = traj.extinction_window
    for eps in (Fraction(1, 80), Fraction(1, 160), Fraction(1, 320)):
        for mode, step in STEPPERS.items():
            config = start(spec, gamma, eps, l1, l2)
            rect, k, error = config.initial, 0, Fraction(0)
            while rect is not None:
                assert k * config.tau <= 2 * t_hi, (mode, eps)  # a stalled flow fails
                if k * config.tau <= Fraction(7, 10) * t_lo:
                    ode = traj.lengths_at(k * config.tau)
                    error = max(error, abs(rect.width * eps - ode[0]),
                                abs(rect.height * eps - ode[1]))
                rect, k = step(config, rect), k + 1
            assert error <= 16 * eps, (mode, eps, error / eps)
            if mode == "exact":
                assert k * config.tau <= t_hi, (mode, eps)
            else:
                assert k * config.tau >= t_lo - config.tau, (mode, eps)


def test_pinned_flows_stop_after_a_transient():
    # far above the pinning threshold the limit law does not move; the
    # discrete flows still move sides during the orbit's transient, but by
    # at most n_beta cells each, and not after step n_alpha + 1.  Nearer the
    # threshold (3/2 or 2 times it) some runs break one of these bounds.
    for n_alpha in range(1, 5):
        for n_beta in range(4):
            spec = MediumSpec(alpha=1, beta=2 if n_beta else None, n_alpha=n_alpha,
                              n_beta=n_beta)
            for gamma in (Fraction(1), Fraction(3, 2), Fraction(5, 2)):
                thr = pinning_threshold(spec, gamma)
                for eps in (Fraction(1, 80), Fraction(1, 160)):
                    for mode, step in STEPPERS.items():
                        config = start(spec, gamma, eps, 3 * thr, Fraction(15, 4) * thr)
                        rects = [config.initial]
                        for _ in range(n_alpha + 1):
                            rects.append(step(config, rects[-1]))
                        case = (n_alpha, n_beta, gamma, eps, mode)
                        assert rects[-1] == rects[-2], case
                        first, last = rects[0], rects[-1]
                        assert max(last.x_min - first.x_min, first.x_max - last.x_max,
                                   last.y_min - first.y_min,
                                   first.y_max - last.y_max) <= n_beta, case
