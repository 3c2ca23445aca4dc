"""Reference form of the scalar steppers: one index loop over the sites.

``pcalab.lattice`` maps each local rule over aligned neighbour sequences;
this module walks the same neighbour pairs ``((j - 1) % w, j)`` one index
at a time, and the tests require the two forms to agree exactly.
:class:`FixedRows` stands in for the stream where a test fixes the arrows.
"""

from pcalab.lattice import (Configuration, MergeEvent, Model, _moves,
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


class FixedRows:
    """A stream whose ``rows`` are given: one arrow tuple per step, each
    aligned with that step's window, as ``lattice.evolve`` requires."""

    def __init__(self, rows):
        self._rows = [tuple(row) for row in rows]

    def rows(self, steps, offset, width, shed):
        assert steps == len(self._rows)
        return self._rows
