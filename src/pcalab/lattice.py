"""Configurations and reference step kernels for the four lattice models.

All four models read the pair ``(cell i-1, cell i)`` to produce the new
cell ``i``, so one site of validity is lost on the left per step in line
mode.  The models:

* model ``a`` — binary cells; an unequal pair copies its left cell, an
  equal pair keeps or switches according to the arrow at its own site.
* model ``b`` — particles hold (UP) or hop right (RIGHT); two particles
  landing on the same site annihilate.
* model ``c`` — same motion, but colliding particles merge into one.
* model ``d`` — model ``c`` occupancy with a blue/green color attached;
  a merged particle is blue iff exactly one of its parents was blue.

Everything here is scalar and pure, and serves as the auditable reference
for the word-parallel kernels in :mod:`pcalab.packed`.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .stream import RIGHT, UP, UpdateStream

EMPTY = 0
PARTICLE = 1
BLUE = 1
GREEN = 2


class Model(str, Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"

    @property
    def alphabet(self) -> tuple[int, ...]:
        return tuple(range(len(GLYPHS[self])))


#: Per model, the glyph of each symbol, by its value.
GLYPHS = {Model.A: "01", Model.B: ".#", Model.C: ".#", Model.D: ".BG"}


@dataclass(frozen=True)
class Configuration:
    """A finite window of lattice symbols with an absolute site offset.

    ``cells[j]`` is the symbol at site ``offset + j``, a small int that the
    consuming model must accept; a tuple, or ``bytes`` in a bit-plane run.
    """

    offset: int
    cells: Sequence[int]

    def __post_init__(self):
        if len(self.cells) < 1:
            raise ValueError("configuration must contain at least one cell")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def end(self) -> int:
        return self.offset + len(self.cells)


# Local rules.  Each returns the new cell at the right site of the pair.

def a_local(left: int, cell: int, arrow: int) -> int:
    if left != cell:
        return left
    return cell if arrow == RIGHT else 1 - cell


def _moves(left: int, cell: int, left_arrow: int,
           arrow: int) -> tuple[bool, bool]:
    """``(arrive, stay)``: the left particle hops in; this one stays put."""
    return (left != EMPTY and left_arrow == RIGHT,
            cell != EMPTY and arrow == UP)


def b_local(left: int, cell: int, left_arrow: int, arrow: int) -> int:
    arrive, stay = _moves(left, cell, left_arrow, arrow)
    return PARTICLE if arrive != stay else EMPTY


def c_local(left: int, cell: int, left_arrow: int, arrow: int) -> int:
    arrive, stay = _moves(left, cell, left_arrow, arrow)
    return PARTICLE if arrive or stay else EMPTY


def d_local(left: int, cell: int, left_arrow: int, arrow: int) -> int:
    arrive, stay = _moves(left, cell, left_arrow, arrow)
    if arrive and stay:
        return BLUE if (left == BLUE) != (cell == BLUE) else GREEN
    if arrive:
        return left
    if stay:
        return cell
    return EMPTY


_LOCALS = {Model.A: a_local, Model.B: b_local, Model.C: c_local,
           Model.D: d_local}


def _pairs(seq, cycle: bool) -> tuple:
    """``(left, here)``: the left neighbours and the sites themselves,
    aligned, over every site of a cycle, where the first site's left
    neighbour is the last, and over sites ``1 .. w-1`` of a line."""
    return (seq[-1:] + seq[:-1], seq) if cycle else (seq[:-1], seq[1:])


def _walk(local, cells, arrows, cycle: bool) -> tuple:
    """``local(left, cell, *arrows)`` over the neighbour pairs of ``cells``;
    ``arrows`` are sequences aligned with the sites, as :func:`_pairs`
    gives them."""
    return tuple(map(local, *_pairs(cells, cycle), *arrows))


def _step(model: Model, cfg: Configuration, row: tuple[int, ...],
          cycle: bool) -> Configuration:
    left_arrows, arrows = _pairs(row, cycle)
    # model a's rule reads its own arrow only, the particle rules both
    reads = (arrows,) if model is Model.A else (left_arrows, arrows)
    cells = _walk(_LOCALS[model], cfg.cells, reads, cycle)
    return Configuration(cfg.offset + (0 if cycle else 1), cells)


def pair_cell(a: int, b: int) -> int:
    return PARTICLE if a == b else EMPTY


def blue_cell(c: int) -> int:
    return PARTICLE if c == BLUE else EMPTY


def occupied_cell(c: int) -> int:
    return PARTICLE if c != EMPTY else EMPTY


@dataclass
class Trajectory:
    """``rows[k]`` aligns an arrow with each cell of ``configs[k]`` for the
    step to ``configs[k+1]``; lists, or a bit-plane run's ``PlaneRows``."""

    model: Model
    boundary: str
    configs: Sequence[Configuration]
    rows: Sequence[Sequence[int]] = field(default_factory=list)

    @property
    def final(self) -> Configuration:
        return self.configs[-1]


def check_run(model: Model, init: Configuration, steps: int,
              boundary: str) -> tuple[Model, bool]:
    """:func:`evolve`'s checks: the model, and whether it runs on a cycle."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    model = Model(model)
    # each local rule maps its alphabet into itself, so no step checks
    if not (0 <= min(init.cells) and max(init.cells) < len(model.alphabet)):
        raise ValueError(f"configuration contains symbols outside the "
                         f"alphabet of model {model.value}")
    if boundary == "line":
        if len(init) < steps + 1:
            raise ValueError(f"window of width {len(init)} is exhausted "
                             f"before {steps} steps")
    elif boundary == "cycle":
        if len(init) < 2:
            raise ValueError("cycle boundary needs width >= 2")
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return model, boundary == "cycle"


def evolve(model: Model, init: Configuration, stream: UpdateStream,
           steps: int, *, boundary: str = "line") -> Trajectory:
    """Iterate a model ``steps`` times with rows drawn from the stream.

    ``stream.rows(steps, offset, width, shed)`` must return one tuple of
    ``UP``/``RIGHT`` arrows per step, aligned with that step's window: row
    ``k`` covers ``width - shed*k`` sites from ``offset + shed*k``.
    :class:`UpdateStream` builds them so, and they are stepped unchecked.
    Line boundary sheds one site on the left per step; cycle boundary wraps
    index arithmetic modulo the width.  :func:`lineage` walks the merge
    genealogy of models ``c`` and ``d`` back through the trajectory.
    """
    model, cycle = check_run(model, init, steps, boundary)
    rows = stream.rows(steps, init.offset, len(init), 0 if cycle else 1)
    configs = [init]
    for row in rows:
        configs.append(_step(model, configs[-1], row, cycle))
    return Trajectory(model, boundary, configs, rows)


#: A byte per symbol: 1 for a particle of either colour, 0 for an empty cell.
_OCCUPIED = bytes([EMPTY, PARTICLE, PARTICLE]).ljust(256, b"\0")


def _births(traj: Trajectory):
    """Per step, one byte per cell of its window, 1 where a particle is
    born: each particle of step 0, then each cell where a particle hops
    onto one that stays.  Cell ``j`` of a row is byte ``j`` of an int, so
    a step is a few C-level operations."""
    yield bytes(traj.configs[0].cells).translate(_OCCUPIED)
    for (cfg, nxt), row in zip(itertools.pairwise(traj.configs), traj.rows):
        occupied = int.from_bytes(bytes(cfg.cells).translate(_OCCUPIED),
                                  "little")
        hop = occupied & int.from_bytes(bytes(row), "little")  # RIGHT is 1
        stay = occupied ^ hop
        merged = ((hop << 8 | hop >> 8 * len(cfg) - 8) & stay
                  if traj.boundary == "cycle" else hop & stay >> 8)
        yield merged.to_bytes(len(nxt), "little")


def lineage(traj: Trajectory, particle: int | None = None,
            site: int | None = None) -> set[tuple[int, int]]:
    """The ``(step, index)`` cells that a particle of a model ``c`` or ``d``
    run and every particle merged into it occupy, ``index`` counted from
    the left end of that step's window.  The particle is named by its id
    (the initial particles from the left, then the merges in (step, index)
    order) or by its ``site`` in the final window.

    A particle at site ``x`` moves to ``x + arrow`` (``RIGHT`` is 1), a map
    that never lets two particles cross, so the sites it maps into a run of
    sites ``[lo, hi]`` form a run again, at most the ring on a cycle.  The
    particle's ancestors are the occupied cells of such a run in each row,
    walked back from the particle's last cell."""
    if traj.model not in (Model.C, Model.D):
        raise ValueError(f"model {traj.model.value} trajectories carry no "
                         "merge log; use model c or d")
    if (particle is None) == (site is None):
        raise ValueError("lineage needs exactly one of particle and site")
    cycle = traj.boundary == "cycle"

    def index(cfg: Configuration, x: int) -> int:
        return (x - cfg.offset) % len(cfg) if cycle else x - cfg.offset

    step, x, births = len(traj.rows), site, _births(traj)
    if site is None:  # its birth cell, then on until it merges or leaves
        rank = particle
        for step, born in enumerate(births if rank >= 0 else ()):
            if rank < born.count(1):
                cfg = traj.configs[step]
                x = cfg.offset + next(itertools.islice(
                    itertools.compress(itertools.count(), born), rank, None))
                break
            rank -= born.count(1)
        else:
            raise ValueError(f"no particle has id {particle}")
        for born, nxt in zip(births, map(traj.configs.__getitem__,
                                         range(step + 1, len(traj.configs)))):
            on = x + traj.rows[step][index(cfg, x)]
            k = index(nxt, on)
            if not (cycle or 0 <= k < len(nxt)) or born[k]:  # gone or merged
                break
            step, x, cfg = step + 1, on, nxt
    elif not ((final := traj.final).offset <= site < final.end
              and final.cells[site - final.offset]):
        raise ValueError(f"no surviving particle at site {site}")
    out, lo, hi = set(), x, x
    for t in reversed(range(step + 1)):  # its ancestors, one run a row
        cfg = traj.configs[t]
        if t < step:  # the sites whose arrows step into [lo, hi]
            row = traj.rows[t]
            lo, hi = lo - row[index(cfg, lo - 1)], hi - row[index(cfg, hi)]
        a, n, w = index(cfg, lo), hi - lo + 1, len(cfg)
        for start, stop in ((a, min(a + n, w)), (0, a + n - w)):
            out.update(zip(itertools.repeat(t), itertools.compress(
                range(start, stop), cfg.cells[start:stop])))
    return out


def particle_count(cfg: Configuration) -> int:
    return sum(1 for c in cfg.cells if c != EMPTY)
