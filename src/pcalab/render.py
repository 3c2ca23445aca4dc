"""Space-time diagram rendering, plain text and static SVG.

One row per time step, time increasing downward.  The update arrows can be
overlaid (vertical stroke for UP, north-east stroke for RIGHT), and any set
of ``(step, index)`` cells can be highlighted; for models ``c`` and ``d``
that is usually a particle's ancestry,
:meth:`~pcalab.lattice.MergeForest.lineage`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .lattice import Model, Trajectory
from .stream import RIGHT

CELL = 14  # pixel pitch of one lattice cell in SVG output
HIGHLIGHT_COLOR = "#ff8c00"  # highlighted cell fill in SVG output
HIGHLIGHT_GLYPH = "*"  # highlighted cell glyph in text output

#: Per model, the text glyph and the SVG fill of each symbol, by its value.
GLYPHS = {Model.A: "01", Model.B: ".#", Model.C: ".#", Model.D: ".BG"}
_GREYS = ("#f4f4f4", "#222222")
COLORS = {Model.A: _GREYS, Model.B: _GREYS, Model.C: _GREYS,
          Model.D: ("#f4f4f4", "#1f5fd6", "#2e9e4f")}


def _text(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    glyphs = GLYPHS[traj.model]
    base = traj.configs[0].offset
    for step, cfg in enumerate(traj.configs):
        pad = " " * (cfg.offset - base)
        yield pad + "".join(HIGHLIGHT_GLYPH if (step, j) in marked
                            else glyphs[c]
                            for j, c in enumerate(cfg.cells)) + "\n"
        if arrows and step < len(traj.rows):
            yield pad + "".join("↗" if a == RIGHT else "↑"
                                for a in traj.rows[step]) + "\n"


def _svg(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    base = traj.configs[0].offset
    width = max(cfg.end for cfg in traj.configs) - base
    height = len(traj.configs)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width * CELL}" height="{height * CELL}" '
           f'viewBox="0 0 {width * CELL} {height * CELL}">\n'
           f'<rect width="{width * CELL}" height="{height * CELL}" '
           f'fill="#ffffff"/>\n')
    # each row formats its constant attribute text once per fill, not per
    # cell, and is one chunk; the last fill is the highlight
    fills = (*COLORS[traj.model], HIGHLIGHT_COLOR)
    for step, cfg in enumerate(traj.configs):
        tail = [f'" y="{step * CELL}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#cccccc" stroke-width="1"/>\n'
                for fill in fills]
        x0 = cfg.offset - base
        yield "".join([f'<rect x="{(x0 + j) * CELL}'
                       f'{tail[-1 if (step, j) in marked else c]}'
                       for j, c in enumerate(cfg.cells)])
    if arrows:
        for step, (cfg, up) in enumerate(zip(traj.configs, traj.rows)):
            y = step * CELL + CELL // 2
            mid = f'" y1="{y}" x2="'
            end = (f'" y2="{y - CELL // 3}" stroke="#d04030" '
                   f'stroke-width="1"/>\n')
            x0 = (cfg.offset - base) * CELL + CELL // 2
            yield "".join([f'<line x1="{x}{mid}'
                           f'{x + CELL // 3 if a == RIGHT else x}{end}'
                           for x, a in zip(range(x0, x0 + len(up) * CELL,
                                                 CELL), up)])
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
    return (_text if fmt == "text" else _svg)(traj, arrows, marked)
