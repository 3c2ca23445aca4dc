"""The package has one arrow draw path and one bit-plane stepping loop.

Read from the source by AST: ``stream.block_bits_vec`` is called only by
the functions that turn its words into rows or planes, and
``packed.step_planes`` only by ``packed.run_planes``.  A second draw path
or a second stepping loop fails this test, so it is seen in review.  So
does a call of the scalar reference ``lattice.evolve``, which the package
keeps for the tests alone: every run steps bit planes.  The counter RNG's
mixer is one finalizer too: each of its two multipliers is written once.
"""

import ast
import pathlib

import numpy as np
import pytest

import pcalab
from pcalab import density, packed, stream

DRAWERS = {"stream.bits_range", "packed.batch_arrow_words",
           "packed.batch_cell_words", "density._iid_plane"}
STEPPERS = {"packed.run_planes"}


def _functions(tree):
    """``(qualified name, node)`` of each top-level function and method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{top.name}.{item.name}", item


def callers(sources: dict[str, str], name: str) -> set[str]:
    """``module.function`` of every top-level function or method whose
    body calls ``name``, bare or as an attribute, at any depth."""
    return {f"{module}.{qualified}"
            for module, text in sources.items()
            for qualified, func in _functions(ast.parse(text))
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))}


def scalar_evolve_callers(sources: dict[str, str]) -> set[str]:
    """``module.function`` of every function that calls ``lattice.evolve``:
    as ``lattice.evolve``, under a name imported from ``.lattice``, or by
    its own name inside ``lattice``."""
    out = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "lattice"
                 for alias in node.names if alias.name == "evolve"}
        if module == "lattice":
            names.add("evolve")
        out |= {f"{module}.{qualified}"
                for qualified, func in _functions(tree)
                for node in ast.walk(func) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) in names
                     or ast.unparse(node.func) == "lattice.evolve")}
    return out


def _package_sources() -> dict[str, str]:
    package = pathlib.Path(pcalab.__file__).parent
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(package.glob("*.py"))}


def test_one_draw_path_and_one_stepping_loop():
    sources = _package_sources()
    assert callers(sources, "block_bits_vec") == DRAWERS
    assert callers(sources, "step_planes") == STEPPERS


def test_the_guard_sees_a_second_loop():
    second = ("def twin(model, planes, rows):\n"
              "    for u in rows:\n"
              "        planes = packed.step_planes(model, planes, u)\n"
              "    return planes\n")
    sources = _package_sources()
    sources["density"] += "\n\n" + second
    assert callers(sources, "step_planes") == STEPPERS | {"density.twin"}


def test_no_run_falls_back_to_the_scalar_reference():
    assert scalar_evolve_callers(_package_sources()) == set()


@pytest.mark.parametrize("fallback", [
    "from .lattice import evolve as scalar\n\n\n"
    "def twin(args):\n    return scalar(*args)\n",
    "from . import lattice\n\n\n"
    "def twin(args):\n    return lattice.evolve(*args)\n"])
def test_the_guard_sees_a_scalar_fallback(fallback):
    sources = _package_sources()
    sources["cli"] += "\n\n" + fallback
    assert scalar_evolve_callers(sources) == {"cli.twin"}


def test_a_chunk_hashes_its_trial_prefix_once(monkeypatch):
    # two chunks, of 32 and 8 trials, drawing 10 and 3 times; the trial
    # stage is the only mix of a one-dimensional array
    want = density.mc_density("c", "full", 10, 40, 3)
    monkeypatch.setattr(packed, "CHUNK_WORDS", 64)
    monkeypatch.setattr(stream, "_memo", [None, None, None])
    mix, prefixes = stream._mix, []

    def spy(z):
        if np.ndim(z) == 1:
            prefixes.append(z.shape)
        return mix(z)

    monkeypatch.setattr(stream, "_mix", spy)
    assert density.mc_density("c", "full", 10, 40, 3) == want
    assert prefixes == [(32,), (8,)]


@pytest.mark.parametrize("factor", ["0xBF58476D1CE4E5B9", "0x94D049BB133111EB"])
def test_the_mixer_multipliers_are_written_once(factor):
    # one finalizer: a second copy of the mixer would repeat its multipliers
    text = "\n".join(_package_sources().values()).upper()
    assert text.count(factor[2:].upper()) == 1
