"""The package's public names, pinned.

A name added to or dropped from ``pcalab/__init__.py`` fails this test, so
the change is seen in review: export only what the CLI or the library's
own code runs, and keep helpers that only tests call under ``tests/``.
The second test checks the first half of that rule: every public name is
read somewhere in the package's own modules.  The public ``evolve`` is the
one the CLI runs, not the scalar reference ``lattice.evolve``, which the
tests keep and no package code calls.
"""

import ast
import pathlib
import types

import pcalab
import pcalab.cli

PUBLIC = {
    # lattice and stream
    "BLUE", "EMPTY", "GREEN", "PARTICLE", "RIGHT", "UP", "Configuration",
    "Model", "Trajectory", "UpdateStream", "evolve", "lineage",
    "particle_count",
    "render",
    # cylinder
    "CylinderMeasure", "TransitionFunction", "alternating_pair_measure",
    "evolve_measure", "fair_rule", "invariance_residual", "load_rule_file",
    "load_rule_text", "marginal", "total_variation",
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


def _names_read(tree) -> set[str]:
    """Names a module reads: a ``Name``, an ``Attribute`` or a string
    constant, which is how ``verify.STATISTICAL`` names its suites."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_is_read_by_the_package():
    package = pathlib.Path(pcalab.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(PUBLIC - read) == []


def test_the_public_evolve_is_the_one_the_cli_runs():
    assert pcalab.evolve is pcalab.cli.evolve
