"""``render._svg`` builds each SVG row by C-level calls: read by AST.

Each row loop of ``_svg`` (every ``for`` statement in it) holds no list
display, no comprehension and no slice subscript, and yields one ``join``
a row.  A comprehension or a per-cell expression makes a Python-level
string a cell, and a list of the row's exact length, built once a row,
left glibc's heap pinned 4-7 MB higher under a caller that keeps every
chunk, as ``io.StringIO`` does (``BENCH_render_rows.json``).  A row built
either way fails this test, so it is seen in review.
"""

import ast
import pathlib

import pytest

import pcalab

_SOURCE = (pathlib.Path(pcalab.__file__).parent / "render.py").read_text(
    encoding="utf-8")

_DISPLAYS = (ast.List, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)


def row_loop_faults(source: str) -> list[str]:
    """What breaks the rule in each ``for`` loop of ``_svg`` in ``source``;
    an empty list when every row loop keeps it."""
    svg = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef) and node.name == "_svg")
    loops = [node for node in ast.walk(svg) if isinstance(node, ast.For)]
    faults = [] if loops else ["no row loop"]
    for loop in loops:
        body = [node for stmt in loop.body for node in ast.walk(stmt)]
        faults += [f"line {node.lineno}: {type(node).__name__}"
                   for node in body if isinstance(node, _DISPLAYS)
                   or isinstance(node, ast.Subscript)
                   and isinstance(node.slice, ast.Slice)]
        yields = [node for node in body if isinstance(node, ast.Yield)]
        joins = [node for y in yields for node in ast.walk(y)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "join"]
        if len(yields) != 1 or len(joins) != 1:
            faults.append(f"line {loop.lineno}: {len(yields)} yields and "
                          f"{len(joins)} joins a row")
    return faults


def test_every_row_is_one_join_over_pieces():
    assert row_loop_faults(_SOURCE) == []


@pytest.mark.parametrize("part, mutant", [
    ("itertools.islice(pieces, x0, last)", "pieces[x0:last]"),
    ("(heads[x0],)", "[heads[x0]]"),
    ("map(\n            operator.getitem, itertools.islice(pieces, x0, last), "
     "codes)",
     "(p[c] for p, c in zip(itertools.islice(pieces, x0, last), codes))"),
    ("x0s.append(x0 := offset - lo)",
     "x0s.append(x0 := offset - lo)\n        yield ''"),
])
def test_the_guard_sees_a_row_built_cell_by_cell(part, mutant):
    assert part in _SOURCE
    assert row_loop_faults(_SOURCE.replace(part, mutant, 1))
