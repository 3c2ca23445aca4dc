"""Reference form of the scalar steppers: one index loop over the sites.

``pcalab.lattice`` maps each local rule over aligned neighbour sequences;
this module walks the same neighbour pairs ``((j - 1) % w, j)`` one index
at a time, and the tests require the two forms to agree exactly.
:func:`trace_merges` replays every particle id of every cell with that
walk: the merge forest that ``lattice.lineage``'s backward walk over runs
of sites is checked against.  :class:`FixedRows` stands in for the stream
where a test fixes the arrows.
"""

from dataclasses import dataclass

from pcalab.lattice import (EMPTY, Configuration, Model, Trajectory, _moves,
                            a_local, b_local, c_local, d_local)

LOCALS = {
    Model.A: lambda left, cell, left_arrow, arrow: a_local(left, cell, arrow),
    Model.B: b_local,
    Model.C: c_local,
    Model.D: d_local,
}


def walk(local, cells, arrows, cycle: bool) -> tuple:
    """``local(left, cell, left_arrow, arrow)`` over every site on a cycle,
    where index ``-1`` wraps to the last site, and sites ``1 .. w-1`` on a
    line."""
    return tuple(local(cells[j - 1], cells[j], arrows[j - 1], arrows[j])
                 for j in range(0 if cycle else 1, len(cells)))


def step(model: Model, cfg: Configuration, row, cycle: bool) -> Configuration:
    cells = walk(LOCALS[model], cfg.cells, row, cycle)
    return Configuration(cfg.offset + (0 if cycle else 1), cells)


@dataclass(frozen=True)
class MergeEvent:
    """A collision: ``left_parent`` hopped onto ``right_parent`` at
    (step, site), producing particle ``child``."""

    step: int
    site: int
    left_parent: int
    right_parent: int
    child: int


def initial_ids(cfg: Configuration) -> tuple[tuple[int, ...], int]:
    """Ids ``0 .. k-1`` for the particles from the left, -1 for an empty
    cell, and the next fresh id, ``k``."""
    ids, nxt = [], 0
    for c in cfg.cells:
        if c != EMPTY:
            ids.append(nxt)
            nxt += 1
        else:
            ids.append(-1)
    return tuple(ids), nxt


def advance_ids(cfg: Configuration, ids: tuple, row, step_index: int,
                next_id: int, cycle: bool) -> tuple[tuple, int, list]:
    """New ids, the next fresh id and the merges logged, one step on."""
    events = []

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
    out = walk(local, sites, row, cycle)
    return out, next_id, events


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
    final_offset: int

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

    def survivor(self, site: int) -> int:
        """The id of the particle at ``site`` of the final window."""
        ids, j = self.id_rows[-1], site - self.final_offset
        pid = ids[j] if 0 <= j < len(ids) else -1
        if pid < 0:
            raise ValueError(f"no surviving particle at site {site}")
        return pid

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
    ids, next_id = initial_ids(traj.configs[0])
    id_rows, merges = [ids], []
    for n, (cfg, row) in enumerate(zip(traj.configs, traj.rows)):
        ids, next_id, events = advance_ids(cfg, ids, row, n + 1, next_id,
                                           traj.boundary == "cycle")
        id_rows.append(ids)
        merges += events
    merged = set()
    for ev in merges:
        for parent in (ev.left_parent, ev.right_parent):
            if parent in merged:
                raise ValueError(f"particle {parent} merges twice")
            merged.add(parent)
    return MergeForest(tuple(merges), tuple(id_rows), traj.final.offset)


class FixedRows:
    """A stream whose ``rows`` are given: one arrow tuple per step, each
    aligned with that step's window, as ``lattice.evolve`` requires."""

    def __init__(self, rows):
        self._rows = [tuple(row) for row in rows]

    def rows(self, steps, offset, width, shed):
        assert steps == len(self._rows)
        return self._rows
