"""Simulation and exact verification of four one-dimensional probabilistic
cellular automata: a binary keep/switch rule, annihilating and coalescing
particle walks, and a two-color coalescing coupling, all driven by a shared
field of fair up/right arrows."""

from .cylinder import (CylinderMeasure, TransitionFunction,
                       alternating_pair_measure, evolve_measure, fair_rule,
                       invariance_residual, load_rule_file, load_rule_text,
                       marginal, total_variation)
from .density import (DensityReport, asymptotic_ratio, density_log,
                      exact_density, hitting_time_oracle,
                      interface_walk_oracle, mc_density, mc_pair_statistic_A)
from .lattice import (BLUE, EMPTY, GREEN, PARTICLE, Configuration, Model,
                      Trajectory, lineage, particle_count)
from .packed import evolve_trajectory as evolve
from .render import render
from .stream import RIGHT, UP, UpdateStream
from .verify import (CaseReport, run_all, verify_color_uniformity,
                     verify_commutation, verify_domination,
                     verify_monotonicity, verify_periodic_orbit,
                     verify_projection, verify_proposition_bounds)

__version__ = "0.1.0"
