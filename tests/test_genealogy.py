"""Merge genealogy: the backward walk ``lineage`` against the replayed
merge forest of ``scalar_walk``, and the forest's counting identities."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcalab
from pcalab import packed
from pcalab.lattice import (EMPTY, PARTICLE, Configuration, Model, evolve,
                            lineage, particle_count)
from pcalab.stream import RIGHT, UP, UpdateStream

import scalar_walk
from scalar_walk import evolve_trajectory, trace_merges


def _live(ids):
    return [pid for pid in ids if pid >= 0]


def test_single_particle_is_a_lone_leaf():
    init = Configuration(0, (0, 1, 0, 0))
    traj = evolve(Model.C, init, UpdateStream(5), 2)
    forest = trace_merges(traj)
    assert _live(forest.id_rows[0]) == [0]
    assert forest.merges == ()
    assert all(_live(ids) == [0] for ids in forest.id_rows)
    assert forest.ancestors(0) == {0}


def test_two_adjacent_particles_merge_into_one_root():
    init = Configuration(0, (1, 1, 0))
    row = (RIGHT, UP, UP)
    traj = evolve(Model.C, init, scalar_walk.FixedRows([row]), 1)
    forest = trace_merges(traj)
    assert len(forest.merges) == 1
    ev = forest.merges[0]
    assert (ev.left_parent, ev.right_parent, ev.child) == (0, 1, 2)
    assert (ev.step, ev.site) == (1, 1)
    # leaves 0 and 1 at step 0; the merged child alone survives the step
    assert forest.id_rows == ((0, 1, -1), (2, -1))
    assert forest.ancestors(2) == {0, 1, 2}
    # the walk: both leaves at step 0, then the child; each leaf alone
    assert lineage(traj, 2) == lineage(traj, site=1) == {(0, 0), (0, 1),
                                                         (1, 0)}
    assert lineage(traj, 0) == {(0, 0)} and lineage(traj, 1) == {(0, 1)}


def test_merge_log_is_consistent_with_occupancy():
    stream = UpdateStream(21)
    init = Configuration(0, tuple(stream.cell_bits(0, 30).tolist()))
    for model, boundary in itertools.product([Model.C, Model.D],
                                             ["line", "cycle"]):
        traj = evolve(model, init, stream, 12, boundary=boundary)
        id_rows = trace_merges(traj).id_rows
        assert len(id_rows) == len(traj.configs)
        for cfg, ids in zip(traj.configs, id_rows):
            assert len(ids) == len(cfg)
            for cell, pid in zip(cfg.cells, ids):
                assert (pid >= 0) == (cell != EMPTY)


@pytest.mark.parametrize("seed", range(8))
def test_leaves_minus_merges_counts_survivors_on_cycles(seed):
    stream = UpdateStream(seed)
    init = Configuration(0, tuple(stream.cell_bits(0, 24).tolist()))
    if particle_count(init) == 0:
        init = Configuration(0, (PARTICLE,) + init.cells[1:])
    traj = evolve(Model.C, init, stream, 20, boundary="cycle")
    forest = trace_merges(traj)
    leaves, survivors = _live(forest.id_rows[0]), _live(forest.id_rows[-1])
    assert leaves == list(range(particle_count(init)))
    assert len(set(survivors)) == len(survivors)
    # initial particles - merges = final particles
    assert particle_count(init) - len(forest.merges) == \
        particle_count(traj.final) == len(survivors)


def test_each_particle_merges_at_most_once():
    stream = UpdateStream(2)
    init = Configuration(0, (PARTICLE,) * 32)
    traj = evolve(Model.D, init, stream, 10, boundary="cycle")
    forest = trace_merges(traj)  # raises if any id merged twice
    seen = set()
    for ev in forest.merges:
        assert ev.left_parent not in seen and ev.right_parent not in seen
        seen.update((ev.left_parent, ev.right_parent))


def test_wrong_model_has_no_merge_log():
    traj = evolve(Model.A, Configuration(0, (0, 1) * 4), UpdateStream(1), 2)
    with pytest.raises(ValueError):
        trace_merges(traj)
    traj = evolve(Model.B, Configuration(0, (PARTICLE,) * 8), UpdateStream(1),
                  2)
    with pytest.raises(ValueError):
        trace_merges(traj)
    for kwargs in ({"particle": 0}, {"site": 4}):
        with pytest.raises(ValueError, match="carry no merge log"):
            lineage(traj, **kwargs)


@pytest.mark.parametrize("kwargs", [{}, {"particle": 2, "site": 10}])
def test_lineage_needs_exactly_one_of_particle_and_site(monkeypatch, kwargs):
    traj = pcalab.evolve(Model.C, Configuration(0, (PARTICLE,) * 24),
                         UpdateStream(4), 6)
    unpacked = []
    monkeypatch.setattr(packed, "unpack_bits",
                        lambda *args: unpacked.append(args))
    with pytest.raises(ValueError, match="^lineage needs exactly one of "
                                         "particle and site$"):
        lineage(traj, **kwargs)
    assert unpacked == []  # refused before any row is read


def test_a_particle_lineage_reads_each_row_fewer_times(monkeypatch):
    # 41 windows and 40 arrow rows, unpacked at each access.  A particle's
    # walk read the final window, which it never uses, each window up to
    # its birth again to skip it, and each window of its forward walk
    # twice: 161 unpacks
    init = Configuration(0, (PARTICLE,) * 200)
    run = pcalab.evolve(Model.C, init, UpdateStream(5), 40)
    forest = trace_merges(evolve_trajectory(Model.C, init, UpdateStream(5),
                                            40))
    site = run.final.offset + run.final.cells.index(PARTICLE)
    unpack, calls = packed.unpack_bits, []
    monkeypatch.setattr(packed, "unpack_bits",
                        lambda *args: calls.append(args) or unpack(*args))
    ancestry = lineage(run, particle=322)
    assert ancestry == forest.lineage(322) and len(ancestry) == 34
    assert len(calls) <= 134
    calls.clear()
    ancestry = lineage(run, site=site)
    assert ancestry == forest.lineage(forest.survivor(site))
    assert len(ancestry) == 103 and len(calls) == 82


def test_ancestry_covers_every_merged_leaf():
    stream = UpdateStream(13)
    traj = evolve(Model.C, Configuration(0, (PARTICLE,) * 20), stream, 16,
                  boundary="cycle")
    forest = trace_merges(traj)
    covered = set()
    for root in _live(forest.id_rows[-1]):
        anc = forest.ancestors(root)
        assert root in anc
        covered |= anc
    # every initial particle either survived or merged into some survivor
    assert set(range(particle_count(traj.configs[0]))) <= covered


@st.composite
def particle_runs(draw):
    """A model ``c`` or ``d`` run of the bit-plane stepper, on a window of
    2 to 90 cells at an offset off block edges."""
    model = draw(st.sampled_from([Model.C, Model.D]))
    boundary = draw(st.sampled_from(["line", "cycle"]))
    width = draw(st.integers(2, 90))
    cells = draw(st.lists(st.sampled_from(model.alphabet), min_size=width,
                          max_size=width))
    init = Configuration(draw(st.integers(-70, 70)), tuple(cells))
    steps = draw(st.integers(0, min(width - 1 if boundary == "line" else 40,
                                    40)))
    return pcalab.evolve(model, init,
                         UpdateStream(draw(st.integers(0, 2 ** 32))), steps,
                         boundary=boundary)


def _outcome(call, *args, **kwargs):
    """The call's result, or the message of the ``ValueError`` it raised."""
    try:
        return call(*args, **kwargs)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=200, deadline=None)
@given(particle_runs())
def test_the_walk_equals_the_replayed_forest(traj):
    forest = trace_merges(traj)
    initial = particle_count(traj.configs[0])
    final = particle_count(traj.final)
    assert [pid for pid in forest.id_rows[0] if pid >= 0] == \
        list(range(initial))
    assert len({pid for pid in forest.id_rows[-1] if pid >= 0}) == final
    if traj.boundary == "cycle":  # a line window sheds particles on the left
        assert initial - len(forest.merges) == final
    # every id, and -1 and one past the last id, which name no particle
    last = initial + len(forest.merges)
    for particle in range(-1, last + 1):
        want = _outcome(forest.lineage, particle)
        assert _outcome(lineage, traj, particle) == want
        assert isinstance(want, str) == (particle in (-1, last))
    # every site of the final window and one past each end
    for site in range(traj.final.offset - 1, traj.final.end + 1):
        want = _outcome(lambda: forest.lineage(forest.survivor(site)))
        assert _outcome(lineage, traj, site=site) == want


@pytest.mark.parametrize("particle", [-1, 3, 99])
def test_ancestors_of_an_id_naming_no_particle_raise(particle):
    traj = evolve(Model.C, Configuration(0, (1, 1, 0)),
                  scalar_walk.FixedRows([(RIGHT, UP, UP)]), 1)
    forest = trace_merges(traj)  # leaves 0 and 1, merged child 2
    with pytest.raises(ValueError, match="no particle"):
        forest.ancestors(particle)
    with pytest.raises(ValueError, match=f"^no particle has id {particle}$"):
        lineage(traj, particle)
    assert forest.ancestors(2) == {0, 1, 2}
