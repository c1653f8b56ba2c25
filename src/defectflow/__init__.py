"""Discrete interface motion in a periodic two-phase lattice medium.

Exact-arithmetic tools for the minimizing-movement flow of lattice sets with
a periodic strong/weak bond pattern: the reduced one-dimensional side
dynamics, its closed-form effective velocities, the limiting rectangle
evolution, and a direct two-dimensional flow simulator.
"""

from .closedform import CaseTag, ClosedFormVelocity, closed_form_velocity
from .evolution import (RectState, RectTrajectory, Segment, classify_regime,
                        integrate, velocity_of_length)
from .flow import (CandidateFamily, FamilyTooSmallError, FlowConfig, FlowResult,
                   StepRecord, brute_force_step, comparison_check,
                   max_displacement_bound, per_side_step, run_flow,
                   side_displacements, side_residues)
from .lattice import (AlphaRectangle, LatticeSet, MediumSpec, bond_coefficient,
                      dissipation, homogeneous_medium, is_alpha_type, lattice_set,
                      perimeter_energy, rect_dissipation, rect_perimeter_energy,
                      rectangle_from_cells, total_functional)
from .orbit import (OrbitTrace, SingularInputError, VelocityResult,
                    effective_velocity, homogeneous_velocity, is_singular,
                    pinning_threshold, run_orbit, step_minimizer)
from .rationals import (as_fraction, extended_gcd, format_rational,
                        min_congruence_solution, mod_inverse, parse_rational,
                        rational_floor)

__version__ = "0.1.0"
