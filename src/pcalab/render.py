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
from .packed import PlaneRows
from .stream import RIGHT, UP

CELL = 14  # pixel pitch of one lattice cell in SVG output
HIGHLIGHT_COLOR = "#ff8c00"  # highlighted cell fill in SVG output
HIGHLIGHT_GLYPH = "*"  # highlighted cell glyph in text output

#: Per model, the SVG fill of each symbol, by its value.
_GREYS = ("#f4f4f4", "#222222")
COLORS = {Model.A: _GREYS, Model.B: _GREYS, Model.C: _GREYS,
          Model.D: ("#f4f4f4", "#1f5fd6", "#2e9e4f")}


def _codes(traj: Trajectory, marked) -> Iterator[tuple]:
    """Per step, its offset and cells, each marked cell set to the highlight
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
        yield cfg.offset, codes


def _text(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    # one byte per cell, its code, translated to its glyph in one call
    table = (GLYPHS[traj.model] + HIGHLIGHT_GLYPH).encode("ascii").ljust(256)
    base = traj.configs[0].offset
    for step, (offset, codes) in enumerate(_codes(traj, marked)):
        pad = " " * (offset - base)
        yield pad + bytes(codes).translate(table).decode("ascii") + "\n"
        if arrows and step < len(traj.rows):
            yield (pad + bytes(traj.rows[step]).decode("latin-1")
                   .replace(chr(UP), "↑").replace(chr(RIGHT), "↗") + "\n")


def _svg(traj: Trajectory, arrows: bool, marked) -> Iterator[str]:
    # a bit-plane run's first window spans every later one
    spans = traj.configs[:1 if isinstance(traj.configs, PlaneRows) else None]
    base = traj.configs[0].offset
    lo = min(cfg.offset for cfg in spans)  # columns from lo - base
    width = max(cfg.end for cfg in spans) - base
    height = len(traj.configs)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width * CELL}" height="{height * CELL}" '
           f'viewBox="0 0 {width * CELL} {height * CELL}">\n'
           f'<rect width="{width * CELL}" height="{height * CELL}" '
           f'fill="#ffffff"/>\n')
    # a row is one join on its y over per-diagram pieces: its first
    # column's head, then per cell but the last the rest of its element,
    # by its code, with the next column's head, then the last rest bare.
    # Taken by islice and map, a row makes no string a cell and no list of
    # the row's exact length: under a caller that keeps every chunk, as
    # io.StringIO does, such lists left glibc's heap pinned 4-7 MB higher.
    heads = [f'<rect x="{x * CELL}" y="' for x in range(lo - base, width)]
    ends = [f'" width="{CELL}" height="{CELL}" fill="{fill}" '
            f'stroke="#cccccc" stroke-width="1"/>\n'
            for fill in (*COLORS[traj.model], HIGHLIGHT_COLOR)]
    pieces = [[end + head for end in ends] for head in heads[1:]]
    x0s = []  # each row's first column, kept for its arrows
    for step, (offset, codes) in enumerate(_codes(traj, marked)):
        x0s.append(x0 := offset - lo)
        last = x0 + len(codes) - 1
        yield f"{step * CELL}".join(itertools.chain((heads[x0],), map(
            operator.getitem, itertools.islice(pieces, x0, last), codes),
            (ends[codes[-1]],)))
    if arrows:  # y2 put in by one replace a row, faster on bytes than str
        xs = [x * CELL + CELL // 2 for x in range(lo - base, width)]
        heads = [b'<line x1="%d" y1="' % x for x in xs]
        # each column's rest of a line for an UP (0) and a RIGHT (1) arrow
        ends = [[b'" x2="%d" y2="@" stroke="#d04030" stroke-width="1"/>\n'
                 % (x + dx) for dx in (0, CELL // 3)] for x in xs]
        pieces = [[end + head for end in pair]
                  for pair, head in zip(ends, heads[1:])]
        for step, (x0, row) in enumerate(zip(x0s, traj.rows)):
            y, last = step * CELL + CELL // 2, x0 + len(row) - 1
            yield (b"%d" % y).join(itertools.chain((heads[x0],), map(
                operator.getitem, itertools.islice(pieces, x0, last), row),
                (ends[last][row[-1]],))).replace(
                    b"@", b"%d" % (y - CELL // 3)).decode("ascii")
    yield "</svg>\n"


def render(traj: Trajectory, fmt: str = "text", arrows: bool = False,
           marked=frozenset()) -> Iterator[str]:
    """Render a trajectory as ``text`` or ``svg``, with its update arrows
    if ``arrows``, drawing each ``(step, index)`` cell in ``marked`` in the
    highlight glyph or colour; ``index`` counts from the left end of the
    step's window.  The result is an iterator of text chunks, each ending
    in a newline, drawn as they are taken.  The checks run at the call: a
    hand-built trajectory is refused a symbol outside its model's alphabet
    and, with ``arrows``, a row that is not one ``UP`` or ``RIGHT`` a cell;
    :class:`~pcalab.packed.PlaneRows` hold a bit-plane run, valid as built."""
    if not traj.configs:
        raise ValueError("cannot render an empty trajectory")
    if fmt not in ("text", "svg"):
        raise ValueError(f"unknown render format {fmt!r}")
    if not isinstance(traj.configs, PlaneRows):
        model = Model(traj.model)
        cells = set().union(*(cfg.cells for cfg in traj.configs))
        if not cells <= set(range(len(model.alphabet))):
            raise ValueError(f"trajectory holds symbols outside the "
                             f"alphabet of model {model.value}")
        if arrows and (any(len(row) != len(cfg)
                           for cfg, row in zip(traj.configs, traj.rows))
                       or not set().union(*traj.rows) <= {UP, RIGHT}):
            raise ValueError("each arrow row must hold one UP or RIGHT "
                             "arrow per cell of its step's window")
    return (_text if fmt == "text" else _svg)(traj, arrows, marked)
