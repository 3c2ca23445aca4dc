"""Reference form of the diagram writers: one Python expression per cell.

``pcalab.render`` builds each row from per-column text with one
``str.join`` (SVG) or one ``bytes.translate`` (text).  These writers
format every cell on its own and test ``(step, j) in marked`` per cell, as
the renderer once did; the tests require the two forms to agree byte for
byte.
"""

from pcalab.render import (CELL, COLORS, GLYPHS, HIGHLIGHT_COLOR,
                           HIGHLIGHT_GLYPH)
from pcalab.stream import RIGHT


def text(traj, arrows: bool, marked):
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


def svg(traj, arrows: bool, marked):
    base = traj.configs[0].offset
    width = max(cfg.end for cfg in traj.configs) - base
    height = len(traj.configs)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width * CELL}" height="{height * CELL}" '
           f'viewBox="0 0 {width * CELL} {height * CELL}">\n'
           f'<rect width="{width * CELL}" height="{height * CELL}" '
           f'fill="#ffffff"/>\n')
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
