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

    ``cells[j]`` is the symbol at site ``offset + j``.  Symbols are small
    ints; which values are legal depends on the model consuming them.
    """

    offset: int
    cells: tuple[int, ...]

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


@dataclass(frozen=True)
class MergeEvent:
    """A collision: ``left_parent`` hopped onto ``right_parent`` at
    (step, site), producing particle ``child``."""

    step: int
    site: int
    left_parent: int
    right_parent: int
    child: int


@dataclass
class Trajectory:
    """``rows[k]`` holds one arrow per cell of ``configs[k]``, aligned
    with its window, and drives the step to ``configs[k+1]``."""

    model: Model
    boundary: str
    configs: list[Configuration]
    rows: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def final(self) -> Configuration:
        return self.configs[-1]


def _initial_ids(cfg: Configuration) -> tuple[tuple[int, ...], int]:
    ids, nxt = [], 0
    for c in cfg.cells:
        if c != EMPTY:
            ids.append(nxt)
            nxt += 1
        else:
            ids.append(-1)
    return tuple(ids), nxt


def _advance_ids(cfg: Configuration, ids: tuple[int, ...], row: tuple,
                 step_index: int, next_id: int, events: list[MergeEvent],
                 cycle: bool):
    """Particle ids one step on: a particle that hops in or stays keeps its
    id; a collision logs a :class:`MergeEvent` and takes the next fresh id."""
    def local(left, here, left_arrow, arrow):
        nonlocal next_id
        (left_cell, left_id, _), (cell, cell_id, site) = left, here
        arrive, stay = _moves(left_cell, cell, left_arrow, arrow)
        if arrive and stay:
            events.append(MergeEvent(step_index, site, left_id, cell_id,
                                     next_id))
            next_id += 1
            return next_id - 1
        return left_id if arrive else cell_id if stay else -1

    sites = tuple(zip(cfg.cells, ids, range(cfg.offset, cfg.end)))
    out = _walk(local, sites, _pairs(row, cycle), cycle)
    return out, next_id


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
    index arithmetic modulo the width.  :func:`trace_merges` replays the
    merge genealogy of models ``c`` and ``d`` from the trajectory on demand.
    """
    model, cycle = check_run(model, init, steps, boundary)
    rows = stream.rows(steps, init.offset, len(init), 0 if cycle else 1)
    configs = [init]
    for row in rows:
        configs.append(_step(model, configs[-1], row, cycle))
    return Trajectory(model, boundary, configs, rows)


@dataclass(frozen=True)
class MergeForest:
    """Genealogy of particle merges.

    ``id_rows[t]`` holds each cell's particle id at step ``t``, -1 for an
    empty cell.  The ``k`` initial particles, ids ``0 .. k-1``, are leaves;
    each collision adds one internal node, so ``k - len(merges)`` lines of
    descent stay alive: on a cycle, the particles of ``id_rows[-1]``.
    """

    merges: tuple[MergeEvent, ...]
    id_rows: tuple[tuple[int, ...], ...]

    def ancestors(self, particle: int) -> set[int]:
        """The particle itself plus every particle that merged into it."""
        leaves = sum(pid >= 0 for pid in self.id_rows[0])
        if not 0 <= particle < leaves + len(self.merges):
            raise ValueError(f"no particle has id {particle}")
        parents = {ev.child: (ev.left_parent, ev.right_parent)
                   for ev in self.merges}
        out, stack = set(), [particle]
        while stack:
            p = stack.pop()
            if p in out:
                continue
            out.add(p)
            stack.extend(parents.get(p, ()))
        return out

    def lineage(self, particle: int) -> set[tuple[int, int]]:
        """The ``(step, index)`` cells the particle's ancestors occupy,
        ``index`` counted from the left end of that step's window."""
        keep = self.ancestors(particle)
        return {(step, j) for step, ids in enumerate(self.id_rows)
                for j, pid in enumerate(ids) if pid in keep}


def trace_merges(traj: Trajectory) -> MergeForest:
    """The merge forest of a model ``c`` or ``d`` trajectory, replayed."""
    if traj.model not in (Model.C, Model.D):
        raise ValueError(f"model {traj.model.value} trajectories carry no "
                         "merge log; use model c or d")
    ids, next_id = _initial_ids(traj.configs[0])
    id_rows, events = [ids], []
    for n, (cfg, row) in enumerate(zip(traj.configs, traj.rows)):
        ids, next_id = _advance_ids(cfg, ids, row, n + 1, next_id, events,
                                    traj.boundary == "cycle")
        id_rows.append(ids)
    merged = set()
    for ev in events:
        for parent in (ev.left_parent, ev.right_parent):
            if parent in merged:
                raise ValueError(f"particle {parent} merges twice")
            merged.add(parent)
    return MergeForest(tuple(events), tuple(id_rows))


def particle_count(cfg: Configuration) -> int:
    return sum(1 for c in cfg.cells if c != EMPTY)
