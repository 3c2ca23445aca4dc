"""The two density DPs stay independent routes to d(n).

Read from the source by AST: ``hitting_time_oracle`` and
``interface_walk_oracle`` are path-counting DPs that check the closed form
``exact_density``, so neither names ``comb``, ``exact_density``,
``density_log`` or the other oracle, in its own body or in any function
of ``density`` that it reaches.  An oracle rebuilt on the closed form, or
on the other oracle, fails this test, so it is seen in review.
"""

import ast
import pathlib

import pytest

import pcalab

ORACLES = ("hitting_time_oracle", "interface_walk_oracle")
CLOSED_FORM = {"comb", "exact_density", "density_log"}


def _density_source() -> str:
    package = pathlib.Path(pcalab.__file__).parent
    return (package / "density.py").read_text(encoding="utf-8")


def names_reached(source: str, name: str) -> set[str]:
    """Every name and attribute named in the body of the top-level
    function ``name``, and in the top-level functions it names, at any
    depth."""
    functions = {top.name: top for top in ast.parse(source).body
                 if isinstance(top, ast.FunctionDef)}
    seen, todo, names = {name}, [name], set()
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named = node.id if isinstance(node, ast.Name) else node.attr
                names.add(named)
                if named in functions and named not in seen:
                    seen.add(named)
                    todo.append(named)
    return names


def forbidden(source: str, oracle: str) -> set[str]:
    """The closed-form names and other oracles that ``oracle`` reaches."""
    others = set(ORACLES) - {oracle}
    return names_reached(source, oracle) & (CLOSED_FORM | others)


@pytest.mark.parametrize("oracle", ORACLES)
def test_each_oracle_is_its_own_route(oracle):
    assert forbidden(_density_source(), oracle) == set()


@pytest.mark.parametrize("old, new, oracle, names", [
    ("Fraction(_total(counts), 4 ** n)", "exact_density(n)",
     "hitting_time_oracle", {"exact_density", "comb"}),
    ("Fraction(_total(weights), 4 ** n)", "hitting_time_oracle(n)",
     "interface_walk_oracle", {"hitting_time_oracle"}),
    ("    _carry(limbs)\n", "    _carry(limbs)\n    math.comb(2, 1)\n",
     "interface_walk_oracle", {"comb"})])
def test_the_guard_sees_a_shortcut(old, new, oracle, names):
    source = _density_source()
    assert source.count(old) == 1
    assert forbidden(source.replace(old, new), oracle) == names
