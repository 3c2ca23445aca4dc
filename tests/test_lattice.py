"""Scalar kernels: local case tables, windows, boundaries, couplings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import stream
from pcalab.lattice import (BLUE, EMPTY, GREEN, PARTICLE, Configuration,
                            Model, Trajectory, _step, a_local, b_local,
                            c_local, d_local, evolve, lineage, pair_cell,
                            particle_count)
from pcalab.stream import RIGHT, UP, UpdateStream, bits_range

import scalar_walk

ARROWS = (UP, RIGHT)


class TestLocalRules:
    def test_keep_switch_table(self):
        assert a_local(1, 0, UP) == 1 and a_local(1, 0, RIGHT) == 1
        assert a_local(0, 1, UP) == 0 and a_local(0, 1, RIGHT) == 0
        assert a_local(0, 0, UP) == 1 and a_local(0, 0, RIGHT) == 0
        assert a_local(1, 1, UP) == 0 and a_local(1, 1, RIGHT) == 1

    def test_annihilation_table(self):
        assert b_local(1, 0, RIGHT, UP) == 1 and b_local(1, 0, RIGHT, RIGHT) == 1
        assert b_local(0, 1, UP, UP) == 1 and b_local(0, 1, RIGHT, UP) == 1
        assert b_local(1, 1, UP, UP) == 1 and b_local(1, 1, RIGHT, RIGHT) == 1
        assert b_local(1, 1, RIGHT, UP) == 0  # collision annihilates
        assert b_local(1, 1, UP, RIGHT) == 0
        assert all(b_local(0, 0, ul, u) == 0 for ul in ARROWS for u in ARROWS)

    def test_coalescence_table(self):
        assert c_local(1, 1, RIGHT, UP) == 1   # collision merges
        assert c_local(1, 1, UP, RIGHT) == 0   # left stays behind, right leaves
        assert c_local(1, 0, RIGHT, UP) == 1 and c_local(1, 0, RIGHT, RIGHT) == 1

    def test_color_merge_table(self):
        assert d_local(BLUE, BLUE, RIGHT, UP) == GREEN
        assert d_local(BLUE, GREEN, RIGHT, UP) == BLUE
        assert d_local(GREEN, BLUE, RIGHT, UP) == BLUE
        assert d_local(GREEN, GREEN, RIGHT, UP) == GREEN
        assert d_local(GREEN, EMPTY, UP, UP) == EMPTY
        assert d_local(GREEN, EMPTY, RIGHT, UP) == GREEN  # lone hop keeps color


@pytest.mark.parametrize("model, symbols", [
    ("a", (0, 1)), ("b", (0, 1)), ("c", (0, 1)), ("d", (0, 1, 2))])
def test_alphabet_is_one_symbol_per_glyph(model, symbols):
    assert Model(model).alphabet == symbols


class TestSteps:
    def test_step_a_propagates_the_left_cell(self):
        x = Configuration(0, (1, 0))
        for u0, u1 in itertools.product(ARROWS, repeat=2):
            out = _step(Model.A, x, (u0, u1), False)
            assert out.offset == 1 and out.cells == (1,)

    def test_step_a_shifts_alternating_words(self):
        # Each cell copies its left neighbor, so the alternating pattern
        # flips parity: sites even/odd swap their values; arrows are unread.
        x = Configuration(0, (0, 1, 0, 1, 0, 1))
        for arrows in ((UP,) * 6, (RIGHT,) * 6, (UP, RIGHT) * 3):
            out = _step(Model.A, x, arrows, False)
            assert out.offset == 1
            assert out.cells == tuple((s + 1) % 2 for s in range(1, 6))
        two = _step(Model.A, out, (UP,) * 5, False)
        assert two.offset == 2
        assert two.cells == tuple(s % 2 for s in range(2, 6))

    def test_step_b_collisions(self):
        y = Configuration(0, (1, 1))
        assert _step(Model.B, y, (RIGHT, RIGHT), False).cells == (1,)
        assert _step(Model.B, y, (RIGHT, UP), False).cells == (0,)
        empty = Configuration(0, (0, 0))
        for u in itertools.product(ARROWS, repeat=2):
            assert _step(Model.B, empty, u, False).cells == (0,)

    def test_step_c_collisions(self):
        z = Configuration(0, (1, 1))
        assert _step(Model.C, z, (RIGHT, UP), False).cells == (1,)
        assert _step(Model.C, z, (UP, RIGHT), False).cells == (0,)
        lone = Configuration(0, (1, 0))
        assert _step(Model.C, lone, (RIGHT, UP), False).cells == (1,)

    def test_step_d_merges(self):
        d = Configuration(0, (BLUE, BLUE))
        assert _step(Model.D, d, (RIGHT, UP), False).cells == (GREEN,)
        d = Configuration(0, (BLUE, GREEN))
        assert _step(Model.D, d, (RIGHT, UP), False).cells == (BLUE,)
        d = Configuration(0, (GREEN, EMPTY))
        assert _step(Model.D, d, (UP, UP), False).cells == (EMPTY,)

    def test_window_and_alignment_errors(self):
        with pytest.raises(ValueError):  # a line of one cell cannot step
            evolve(Model.A, Configuration(0, (1,)), UpdateStream(0), 1)
        with pytest.raises(ValueError):
            evolve(Model.B, Configuration(0, (0, 2)), UpdateStream(0), 1)

    def test_annihilation_step_reads_arrow_agreement(self):
        # From the full line, a site stays occupied iff its two driving
        # arrows agree; checked exactly against the row.
        y = Configuration(0, (PARTICLE,) * 40)
        row = tuple(bits_range(31, 0, 0, 0, 40).tolist())
        out = _step(Model.B, y, row, False)
        assert out.offset == 1
        for site in range(1, 40):  # the row and the input start at site 0
            agree = row[site - 1] == row[site]
            assert out.cells[site - 1] == (PARTICLE if agree else EMPTY)


class TestEvolve:
    def test_alternating_orbit_closes_after_two_steps(self):
        init = Configuration(0, (0, 1) * 5)
        traj = evolve(Model.A, init, UpdateStream(3), 2, boundary="cycle")
        assert traj.final == init
        assert traj.configs[1].cells == Configuration(0, (1, 0) * 5).cells

    def test_line_run_keeps_a_valid_window(self):
        n = 7
        init = Configuration(0, (PARTICLE,) * (n + 2))
        traj = evolve(Model.C, init, UpdateStream(9), n)
        assert len(traj.final) == 2
        assert traj.final.offset == n
        assert all(c in (0, 1) for c in traj.final.cells)

    def test_window_exhaustion_raises(self):
        with pytest.raises(ValueError):
            evolve(Model.C, Configuration(0, (1,) * 5), UpdateStream(0), 5)
        with pytest.raises(ValueError):
            evolve(Model.B, Configuration(0, (1,)), UpdateStream(0), 0,
                   boundary="cycle")
        with pytest.raises(ValueError):
            evolve(Model.A, Configuration(0, (0, 1) * 3), UpdateStream(0), 1,
                   boundary="torus")

    @pytest.mark.parametrize("steps", [3, 10])
    def test_unknown_boundary_is_named_before_any_row_is_drawn(
            self, monkeypatch, steps):
        # width 5: a line window outlasts 3 steps but not 10
        drawn = []
        monkeypatch.setattr(UpdateStream, "rows",
                            lambda self, *args: drawn.append(args))
        monkeypatch.setattr(stream, "bits_range",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="unknown boundary 'ring'"):
            evolve(Model.A, Configuration(0, (0, 1, 0, 1, 0)), UpdateStream(0),
                   steps, boundary="ring")
        assert drawn == []

    def test_pair_map_commutes_along_trajectories(self):
        # Running the binary rule then applying the pair map equals running
        # the annihilation rule on the mapped start, whose site i reads the
        # arrow of site i+1: each update row without its first arrow.  The
        # pair map occupies site i iff cells i and i+1 agree, keeping the
        # offset.
        def phi(x):
            return Configuration(x.offset, tuple(map(pair_cell, x.cells,
                                                     x.cells[1:])))

        stream = UpdateStream(123)
        init = Configuration(0, tuple(stream.cell_bits(0, 40).tolist()))
        rows = stream.rows(12, init.offset, 40, 1)
        a_traj = evolve(Model.A, init, scalar_walk.FixedRows(rows), 12)
        b_traj = evolve(Model.B, phi(init),
                        scalar_walk.FixedRows([r[1:] for r in rows]), 12)
        for a_cfg, b_cfg in zip(a_traj.configs, b_traj.configs):
            assert phi(a_cfg) == b_cfg

    def test_domination_along_trajectories(self):
        stream = UpdateStream(77)
        init = Configuration(0, tuple(stream.cell_bits(0, 36).tolist()))
        rows = scalar_walk.FixedRows(stream.rows(10, 0, 36, 1))
        b_traj = evolve(Model.B, init, rows, 10)
        c_traj = evolve(Model.C, init, rows, 10)
        for b_cfg, c_cfg in zip(b_traj.configs, c_traj.configs):
            assert all(x <= y for x, y in zip(b_cfg.cells, c_cfg.cells))


@st.composite
def ordered_pair(draw):
    width = draw(st.integers(8, 56))
    hi = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    mask = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    lo = [h & m for h, m in zip(hi, mask)]
    seed = draw(st.integers(0, 2 ** 32))
    return Configuration(0, tuple(lo)), Configuration(0, tuple(hi)), seed


@settings(max_examples=40, deadline=None)
@given(ordered_pair())
def test_monotone_coupling_holds_for_fifty_steps(pair):
    lo, hi, seed = pair
    steps = min(len(lo) - 1, 50)
    stream = UpdateStream(seed)
    lo_traj = evolve(Model.C, lo, stream, steps)
    hi_traj = evolve(Model.C, hi, stream, steps)
    for a, b in zip(lo_traj.configs, hi_traj.configs):
        assert all(x <= y for x, y in zip(a.cells, b.cells))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(4, 40), st.integers(1, 25))
def test_particle_counts_shrink(seed, width, steps):
    stream = UpdateStream(seed)
    init = Configuration(0, tuple(stream.cell_bits(0, width).tolist()))
    for model in (Model.B, Model.C):
        traj = evolve(model, init, stream, steps, boundary="cycle")
        counts = [particle_count(c) for c in traj.configs]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        if model is Model.B:
            assert all((a - b) % 2 == 0 for a, b in zip(counts, counts[1:]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 30), st.integers(1, 12))
def test_cycle_conserves_lone_particles(seed, width, steps):
    cells = [EMPTY] * width
    cells[0] = PARTICLE
    traj = evolve(Model.C, Configuration(0, tuple(cells)), UpdateStream(seed),
                  steps, boundary="cycle")
    assert all(particle_count(c) == 1 for c in traj.configs)


@st.composite
def model_window(draw):
    """A model, a boundary, a window of width 2..40 and its row."""
    model = draw(st.sampled_from(list(Model)))
    width = draw(st.integers(2, 40))
    offset = draw(st.integers(-50, 50))
    cells = draw(st.lists(st.sampled_from(model.alphabet), min_size=width,
                          max_size=width))
    arrows = draw(st.lists(st.sampled_from(ARROWS), min_size=width,
                           max_size=width))
    return (model, draw(st.booleans()), Configuration(offset, tuple(cells)),
            tuple(arrows))


@settings(max_examples=300, deadline=None)
@given(model_window())
def test_mapped_walk_equals_the_index_walk(case):
    model, cycle, cfg, row = case
    assert _step(model, cfg, row, cycle) == scalar_walk.step(model, cfg, row,
                                                             cycle)
    if model in (Model.C, Model.D):
        # the step's genealogy: each particle walked back one row
        traj = Trajectory(model, "cycle" if cycle else "line",
                          [cfg, _step(model, cfg, row, cycle)], [row])
        forest = scalar_walk.trace_merges(traj)
        for pid in range(particle_count(cfg) + len(forest.merges)):
            assert lineage(traj, pid) == forest.lineage(pid)


@pytest.mark.parametrize("bad, error", [(2, ValueError), (-1, ValueError),
                                        (None, TypeError), ([1], TypeError)])
def test_symbol_checks_keep_their_error_types(bad, error):
    for model in Model:
        symbol = 3 if bad == 2 and model is Model.D else bad
        for cells in ((EMPTY, symbol), (symbol, EMPTY)):
            with pytest.raises(error):
                evolve(model, Configuration(0, cells), UpdateStream(0), 0)
            with pytest.raises(error):
                evolve(model, Configuration(0, cells), UpdateStream(0), 1,
                       boundary="cycle")


@pytest.mark.parametrize("model, init, steps, boundary", [
    (Model.A, Configuration(0, (0, 1) * 40), 1024, "cycle"),
    (Model.D, Configuration(-7, (BLUE, GREEN, EMPTY) * 101), 300, "line")])
def test_a_run_draws_its_rows_in_one_vector_call(monkeypatch, model, init,
                                                 steps, boundary):
    calls = {"block_bits_vec": 0, "bits_range": 0}

    def counted(name):
        inner = getattr(stream, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(stream, name, counted(name))
    traj = evolve(model, init, UpdateStream(5), steps, boundary=boundary)
    assert calls == {"block_bits_vec": 1, "bits_range": 1}
    assert len(traj.rows) == steps


def _aligned_rows(init, stream, steps, boundary):
    shed = 1 if boundary == "line" else 0
    return [tuple(bits_range(stream.seed, stream.trial, n,
                             init.offset + shed * n,
                             len(init) - shed * n).tolist())
            for n in range(steps)]


@pytest.mark.parametrize("boundary", ["line", "cycle"])
def test_stream_rows_are_aligned_with_each_window(boundary):
    init, stream = Configuration(-3, (1, 0, 1, 1, 0, 0, 1, 1)), UpdateStream(8)
    traj = evolve(Model.C, init, stream, 5, boundary=boundary)
    assert traj.rows == _aligned_rows(init, stream, 5, boundary)
    assert [len(row) for row in traj.rows] == list(map(len, traj.configs[:-1]))
