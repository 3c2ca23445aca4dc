"""The package's public names, pinned.

A name added to or dropped from ``pcalab/__init__.py`` fails this test, so
the change is seen in review: export only what the CLI or the library's
own code runs, and keep helpers that only tests call under ``tests/``.
"""

import types

import pcalab

PUBLIC = {
    # lattice and stream
    "BLUE", "EMPTY", "GREEN", "PARTICLE", "RIGHT", "UP", "Configuration",
    "MergeEvent", "MergeForest", "Model", "Trajectory", "UpdateStream",
    "evolve", "evolve_with_rows", "particle_count", "trace_merges",
    "render",
    # cylinder
    "CylinderMeasure", "TransitionFunction", "alternating_pair_measure",
    "evolve_measure", "invariance_residual", "lift_model", "load_rule_file",
    "load_rule_text", "marginal", "model_a_rule", "total_variation",
    # density
    "DensityReport", "asymptotic_ratio", "density_log", "exact_density",
    "hitting_time_oracle", "interface_walk_oracle", "mc_density",
    "mc_pair_statistic_A",
    # verify
    "CaseReport", "run_all", "verify_color_uniformity", "verify_commutation",
    "verify_domination", "verify_monotonicity", "verify_periodic_orbit",
    "verify_projection", "verify_proposition_bounds",
}


def test_public_names_are_pinned():
    # submodules are attributes too once imported, whichever test did so
    names = {name for name, value in vars(pcalab).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
