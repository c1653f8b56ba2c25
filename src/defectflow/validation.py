"""Cross-checks between the closed-form velocities and the orbit dynamics.

These routines back the `validate` CLI subcommand; the test suite reuses them
for the acceptance gate.
"""

from __future__ import annotations

from fractions import Fraction

from .closedform import closed_form_velocity
from .lattice import MediumSpec
from .orbit import (component_midpoint, effective_velocity, jump_component,
                    run_orbit)
from .rationals import as_fraction


def component_midpoints(alpha, y_max):
    """Midpoints of the components cut out by the jump grid, up to y_max."""
    return [mid for k in range(jump_component(alpha, y_max)[0] + 1)
            if (mid := component_midpoint(alpha, k)) <= as_fraction(y_max)]


def oracle_equivalence_failures(n_alpha_max=12):
    """Compare closed forms against orbit velocities on the midpoint grid.

    Returns a list of (n_alpha, n_beta, alpha, y, closed, orbit) mismatches.
    """
    fails = []
    for n_beta in (1, 2):
        for n_alpha in range(1, n_alpha_max + 1):
            for alpha in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
                spec = MediumSpec(alpha=alpha, beta=2 * alpha,
                                  n_alpha=n_alpha, n_beta=n_beta)
                for y in component_midpoints(alpha, 20 / alpha):
                    closed = closed_form_velocity(n_alpha, n_beta, alpha, y).value
                    orbit = run_orbit(spec, y).velocity
                    if closed != orbit:
                        fails.append((n_alpha, n_beta, alpha, y, closed, orbit))
    return fails


def invariant_failures():
    """A light sweep of structural invariants of the side dynamics."""
    fails = []
    alpha = Fraction(1)
    for n_alpha, n_beta in ((1, 1), (2, 1), (3, 2), (4, 3)):
        spec = MediumSpec(alpha=alpha, beta=Fraction(3), n_alpha=n_alpha, n_beta=n_beta)
        thr_y = Fraction(n_beta + 2, 4) / alpha
        prev = None
        for y in component_midpoints(alpha, 8):
            res = effective_velocity(spec, y)
            if abs(res.value - 2 * alpha * y) > Fraction(2 * n_beta + 1, 2):
                fails.append(("band", n_alpha, n_beta, y, res.value))
            if y < thr_y and res.value != 0:
                fails.append(("pinning", n_alpha, n_beta, y, res.value))
            if prev is not None and res.value < prev:
                fails.append(("monotone", n_alpha, n_beta, y, res.value))
            prev = res.value
            for x0 in range(spec.period):
                if run_orbit(spec, y, x0).velocity != res.value:
                    fails.append(("x0_independence", n_alpha, n_beta, y, x0))
    return fails
