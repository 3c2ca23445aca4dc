"""Space-time diagram rendering, plain text and static SVG.

One row per time step, time increasing downward.  The update arrows can be
overlaid (vertical stroke for UP, north-east stroke for RIGHT), and any set
of ``(step, index)`` cells can be highlighted; for models ``c`` and ``d``
that is usually a particle's ancestry, :func:`~pcalab.lattice.lineage`.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .lattice import GLYPHS, Model, Trajectory
from .stream import RIGHT, UP

CELL = 14  # pixel pitch of one lattice cell in SVG output
HIGHLIGHT_COLOR = "#ff8c00"  # highlighted cell fill in SVG output
HIGHLIGHT_GLYPH = "*"  # highlighted cell glyph in text output

#: Per model, the SVG fill of each symbol, by its value.
_GREYS = ("#f4f4f4", "#222222")
COLORS = {Model.A: _GREYS, Model.B: _GREYS, Model.C: _GREYS,
          Model.D: ("#f4f4f4", "#1f5fd6", "#2e9e4f")}


def _codes(traj: Trajectory, marked) -> Iterator[tuple[int, ...] | list[int]]:
    """Per step, its cell values, each marked cell set to the highlight
    code, one past the last symbol; pairs naming no cell are ignored."""
    steps = {}
    for step, j in marked:
        steps.setdefault(step, []).append(j)
    mark = len(GLYPHS[traj.model])
    for step, cfg in enumerate(traj.configs):
        codes = cfg.cells
        if step in steps:
            codes = list(codes)
            for j in steps[step]:
                if 0 <= j < len(codes):
                    codes[j] = mark
        yield codes


def _text(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    # one byte per cell, its code, translated to its glyph in one call
    table = (GLYPHS[traj.model] + HIGHLIGHT_GLYPH).encode("ascii").ljust(256)
    base = traj.configs[0].offset
    for step, codes in enumerate(_codes(traj, marked)):
        pad = " " * (traj.configs[step].offset - base)
        yield pad + bytes(codes).translate(table).decode("ascii") + "\n"
        if arrows and step < len(traj.rows):
            yield (pad + bytes(traj.rows[step]).decode("latin-1")
                   .replace(chr(UP), "↑").replace(chr(RIGHT), "↗") + "\n")


def _svg(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    base = traj.configs[0].offset
    lo = min(cfg.offset for cfg in traj.configs)  # columns from lo - base
    width = max(cfg.end for cfg in traj.configs) - base
    height = len(traj.configs)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width * CELL}" height="{height * CELL}" '
           f'viewBox="0 0 {width * CELL} {height * CELL}">\n'
           f'<rect width="{width * CELL}" height="{height * CELL}" '
           f'fill="#ffffff"/>\n')
    # a cell is its column's head, formatted once per diagram, plus its
    # row's tail for its fill, formatted once per row (the last fill is the
    # highlight).  A row is one join over a map, with no list of the row's
    # exact length: under a caller that keeps every chunk, as io.StringIO
    # does, such lists left glibc's heap pinned 4-7 MB higher.
    heads = [f'<rect x="{x * CELL}' for x in range(lo - base, width)]
    fills = (*COLORS[traj.model], HIGHLIGHT_COLOR)
    for step, codes in enumerate(_codes(traj, marked)):
        tails = [f'" y="{step * CELL}" width="{CELL}" height="{CELL}" '
                 f'fill="{fill}" stroke="#cccccc" stroke-width="1"/>\n'
                 for fill in fills]
        x0 = traj.configs[step].offset - lo
        yield "".join(map(operator.add, itertools.islice(heads, x0, None),
                          map(tails.__getitem__, codes)))
    if arrows:
        xs = [x * CELL + CELL // 2 for x in range(lo - base, width)]
        heads = [f'<line x1="{x}" y1="' for x in xs]
        # each column's x2 for an UP (0) and for a RIGHT (1) arrow
        pairs = [(f"{x}", f"{x + CELL // 3}") for x in xs]
        for step, (cfg, row) in enumerate(zip(traj.configs, traj.rows)):
            y = step * CELL + CELL // 2
            x0 = cfg.offset - lo
            yield "".join(map("".join, zip(
                itertools.islice(heads, x0, None),
                itertools.repeat(f'{y}" x2="'),
                map(operator.getitem, itertools.islice(pairs, x0, None), row),
                itertools.repeat(f'" y2="{y - CELL // 3}" stroke="#d04030" '
                                 f'stroke-width="1"/>\n'))))
    yield "</svg>\n"


def render(traj: Trajectory, fmt: str = "text", arrows: bool = False,
           marked=frozenset()) -> Iterator[str]:
    """Render a trajectory as ``text`` or ``svg``, with its update arrows
    if ``arrows``, drawing each ``(step, index)`` cell in ``marked`` in the
    highlight glyph or colour; ``index`` counts from the left end of the
    step's window.  The checks run at the call; the result is an iterator
    of text chunks, each ending in a newline, drawn as they are taken."""
    if not traj.configs:
        raise ValueError("cannot render an empty trajectory")
    if fmt not in ("text", "svg"):
        raise ValueError(f"unknown render format {fmt!r}")
    model = Model(traj.model)
    cells = set().union(*(cfg.cells for cfg in traj.configs))
    if not cells <= set(range(len(model.alphabet))):
        raise ValueError(f"trajectory holds symbols outside the alphabet "
                         f"of model {model.value}")
    if arrows and (any(len(row) != len(cfg)
                       for cfg, row in zip(traj.configs, traj.rows))
                   or not set().union(*traj.rows) <= {UP, RIGHT}):
        raise ValueError("each arrow row must hold one UP or RIGHT arrow "
                         "per cell of its step's window")
    return (_text if fmt == "text" else _svg)(traj, arrows, marked)
