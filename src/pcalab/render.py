"""Space-time diagram rendering, plain text and static SVG.

One row per time step, time increasing downward.  The update arrows can be
overlaid (vertical stroke for UP, north-east stroke for RIGHT), and for
models ``c`` and ``d`` the full ancestry of a chosen particle, replayed by
:func:`~pcalab.lattice.trace_merges`, can be highlighted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lattice import BLUE, EMPTY, GREEN, Model, Trajectory, trace_merges
from .stream import RIGHT

CELL = 14  # pixel pitch of one lattice cell in SVG output
HIGHLIGHT_COLOR = "#ff8c00"  # ancestry overlay fill in SVG output
HIGHLIGHT_GLYPH = "*"  # ancestry overlay glyph in text output


@dataclass(frozen=True)
class DiagramStyle:
    glyphs: dict
    colors: dict
    show_arrows: bool = False

    def glyph(self, symbol: int) -> str:
        return self.glyphs[symbol]


_STYLES = {
    Model.A: DiagramStyle({0: "0", 1: "1"},
                          {0: "#f4f4f4", 1: "#222222"}),
    Model.B: DiagramStyle({EMPTY: ".", 1: "#"},
                          {EMPTY: "#f4f4f4", 1: "#222222"}),
    Model.C: DiagramStyle({EMPTY: ".", 1: "#"},
                          {EMPTY: "#f4f4f4", 1: "#222222"}),
    Model.D: DiagramStyle({EMPTY: ".", BLUE: "B", GREEN: "G"},
                          {EMPTY: "#f4f4f4", BLUE: "#1f5fd6",
                           GREEN: "#2e9e4f"}),
}


def style_for(model: Model, show_arrows: bool = False) -> DiagramStyle:
    style = _STYLES[Model(model)]
    return replace(style, show_arrows=show_arrows) if show_arrows else style


def _highlight_cells(traj: Trajectory, particle: int) -> set[tuple[int, int]]:
    forest = trace_merges(traj)  # raises for models without a merge log
    keep = forest.ancestors(particle)  # raises for an id naming no particle
    cells = set()
    for step, ids in enumerate(forest.id_rows):
        offset = traj.configs[step].offset
        for j, pid in enumerate(ids):
            if pid in keep:
                cells.add((step, offset + j))
    return cells


def _check(traj: Trajectory) -> None:
    if not traj.configs:
        raise ValueError("cannot render an empty trajectory")


def render_text(traj: Trajectory, style: DiagramStyle | None = None,
                highlight_particle: int | None = None) -> str:
    _check(traj)
    style = style or style_for(traj.model)
    marked = (_highlight_cells(traj, highlight_particle)
              if highlight_particle is not None else set())
    base = traj.configs[0].offset
    lines = []
    for step, cfg in enumerate(traj.configs):
        pad = " " * (cfg.offset - base)
        row = "".join(
            HIGHLIGHT_GLYPH if (step, cfg.offset + j) in marked
            else style.glyph(c)
            for j, c in enumerate(cfg.cells))
        lines.append(pad + row)
        if style.show_arrows and step < len(traj.rows):
            arrows = traj.rows[step]
            pad_u = " " * (arrows.offset - base)
            lines.append(pad_u + "".join(
                "↗" if a == RIGHT else "↑" for a in arrows.arrows))
    return "\n".join(lines) + "\n"


def render_svg(traj: Trajectory, style: DiagramStyle | None = None,
               highlight_particle: int | None = None) -> str:
    _check(traj)
    style = style or style_for(traj.model)
    marked = (_highlight_cells(traj, highlight_particle)
              if highlight_particle is not None else set())
    base = traj.configs[0].offset
    width = max(cfg.end for cfg in traj.configs) - base
    height = len(traj.configs)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width * CELL}" height="{height * CELL}" '
        f'viewBox="0 0 {width * CELL} {height * CELL}">',
        f'<rect width="{width * CELL}" height="{height * CELL}" '
        f'fill="#ffffff"/>',
    ]
    # each row formats its constant attribute text once per fill, not per cell
    fills = {**style.colors, None: HIGHLIGHT_COLOR}
    for step, cfg in enumerate(traj.configs):
        tail = {c: f'" y="{step * CELL}" width="{CELL}" height="{CELL}" '
                   f'fill="{fill}" stroke="#cccccc" stroke-width="1"/>'
                for c, fill in fills.items()}
        x0 = cfg.offset - base
        parts += [f'<rect x="{(x0 + j) * CELL}'
                  f'{tail[None if (step, cfg.offset + j) in marked else c]}'
                  for j, c in enumerate(cfg.cells)]
    if style.show_arrows:
        for step, arrows in enumerate(traj.rows):
            y = step * CELL + CELL // 2
            mid = f'" y1="{y}" x2="'
            end = f'" y2="{y - CELL // 3}" stroke="#d04030" stroke-width="1"/>'
            x0 = (arrows.offset - base) * CELL + CELL // 2
            parts += [f'<line x1="{x}{mid}'
                      f'{x + CELL // 3 if a == RIGHT else x}{end}'
                      for x, a in zip(range(x0, x0 + len(arrows.arrows) * CELL,
                                            CELL), arrows.arrows)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(traj: Trajectory, style: DiagramStyle | None = None,
           fmt: str = "text", highlight_particle: int | None = None) -> str:
    """Render a trajectory as ``text`` or ``svg``."""
    if fmt == "text":
        return render_text(traj, style, highlight_particle)
    if fmt == "svg":
        return render_svg(traj, style, highlight_particle)
    raise ValueError(f"unknown render format {fmt!r}")
