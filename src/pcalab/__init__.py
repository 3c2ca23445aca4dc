"""Simulation and exact verification of four one-dimensional probabilistic
cellular automata: a binary keep/switch rule, annihilating and coalescing
particle walks, and a two-color coalescing coupling, all driven by a shared
field of fair up/right arrows."""

from .cylinder import (CylinderMeasure, TransitionFunction,
                       alternating_pair_measure, evolve_measure,
                       invariance_residual, lift_model, load_rule_file,
                       load_rule_text, marginal, model_a_rule, pushforward,
                       total_variation)
from .density import (BoundsReport, DensityReport, WalkSpec, asymptotic_ratio,
                      check_proposition_bounds, density_log, exact_density,
                      hitting_time_oracle, interface_walk_oracle, mc_density,
                      mc_pair_statistic_A)
from .lattice import (BLUE, EMPTY, GREEN, PARTICLE, Configuration,
                      MergeEvent, MergeForest, Model, Trajectory, evolve,
                      evolve_with_rows, particle_count, phi, pi_b, pi_c,
                      step_a, step_b, step_c, step_d, trace_merges)
from .render import DiagramStyle, render, style_for
from .stream import RIGHT, UP, UpdateRow, UpdateStream
from .verify import (CaseReport, run_all, verify_color_uniformity,
                     verify_commutation, verify_domination,
                     verify_monotonicity, verify_periodic_orbit,
                     verify_projection)

__version__ = "0.1.0"
