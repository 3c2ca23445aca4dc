"""Bit-plane kernels against the scalar reference, bit for bit."""

import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import packed, stream as stream_module
from pcalab.density import _run_batch
from pcalab.lattice import (_LOCALS, BLUE, EMPTY, GREEN, Configuration,
                            Model, _step, evolve)
from pcalab.packed import (evolve_final, pack_bits, step_planes, unpack_bits,
                           words_for)
from pcalab.stream import DOMAIN_COLOR, UpdateStream, block_bits_vec

import scalar_walk
from scalar_walk import evolve_trajectory


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_pack_roundtrip(bits):
    words = pack_bits(np.array(bits, dtype=np.uint8))
    assert words.shape == (words_for(len(bits)),)
    assert list(unpack_bits(words, len(bits))) == bits


def _unpacked_counts(words, lo, hi):
    return unpack_bits(words.T, hi)[:, lo:].sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.data())
def test_count_cells_equals_unpacked_sum(n_words, trials, data):
    words = np.array(data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                        min_size=n_words * trials,
                                        max_size=n_words * trials)),
                     dtype=np.uint64).reshape(n_words, trials)
    lo = data.draw(st.integers(0, 64 * n_words - 1))
    hi = data.draw(st.integers(lo + 1, 64 * n_words))
    got = packed.count_cells(words, lo, hi)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _unpacked_counts(words, lo, hi))


@pytest.mark.parametrize("lo, hi", [
    (0, 1), (63, 64), (64, 65), (127, 128), (255, 256), (100, 101),
    (0, 64), (64, 128), (0, 256), (63, 65), (1, 255), (65, 191),
    (128, 256), (0, 200)])
def test_count_cells_word_edges_and_views(lo, hi):
    rng = np.random.default_rng(lo * 1000 + hi)
    full = rng.integers(0, 2 ** 64, (6, 9), dtype=np.uint64)
    ones = np.full((4, 3), np.uint64(2 ** 64 - 1))
    for words in (full[2:], full[2:, 1:], ones):  # trimmed leading rows
        assert np.array_equal(packed.count_cells(words, lo, hi),
                              _unpacked_counts(words, lo, hi))
    assert np.all(packed.count_cells(ones, lo, hi) == hi - lo)
    # the tiled-word init at n = 0 hands over a read-only broadcast plane
    row = pack_bits(np.resize(np.array([0, 1, 1, 0], dtype=np.uint8), 256))
    tiled = np.broadcast_to(row[:, None], (4, 5))
    assert not tiled.flags.writeable
    assert np.array_equal(packed.count_cells(tiled, lo, hi),
                          _unpacked_counts(tiled, lo, hi))


def test_count_cells_counts_a_one_trial_plane_as_one_window():
    # a (words,) plane, as one int trial steps it, is one count, not one
    # per word; a (words, 1) plane is one count per column
    words = np.array([0b1011, 1], dtype=np.uint64)
    got = packed.count_cells(words, 0, 128)
    assert got.shape == () and got.dtype == np.uint64 and got == 4
    got = packed.count_cells(words.reshape(2, 1), 0, 128)
    assert got.dtype == np.uint64 and got.tolist() == [4]


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 127, 128, 129])
def test_config_roundtrip_at_word_boundaries(width):
    rng = np.random.default_rng(width)
    for model in Model:
        hi = 3 if model is Model.D else 2
        cfg = Configuration(-7, tuple(int(c) for c in rng.integers(0, hi, width)))
        # no step: the window is packed into planes and unpacked again
        for boundary in ("line", "cycle") if width > 1 else ("line",):
            assert evolve_final(model, cfg, UpdateStream(width), 0,
                                boundary=boundary) == cfg


@pytest.mark.parametrize("model", list(Model))
def test_kernels_match_scalar_on_random_windows(model):
    rng = np.random.default_rng(hash(model.value) & 0xFFFF)
    hi = 3 if model is Model.D else 2
    for case in range(2000):
        width = int(rng.integers(2, 90))
        offset = int(rng.integers(-64, 64))
        cfg = Configuration(offset,
                            tuple(int(c) for c in rng.integers(0, hi, width)))
        stream = UpdateStream(int(rng.integers(0, 2 ** 40)), case)
        row = stream.rows(1, offset, width, 1)[0]
        assert evolve_final(model, cfg, stream, 1) == _step(model, cfg, row,
                                                            False)
        row = stream.rows(1, offset, width, 0)[0]
        assert evolve_final(model, cfg, stream, 1, boundary="cycle") == \
            _step(model, cfg, row, True)


def _truth_table_misses(model, width=192, cycle=False):
    """Every neighbourhood ``(l, x, ul, u)`` of ``model`` at every cell
    ``c`` of a ``width``-cell window, one trial each: cells ``c-1, c``
    hold ``l, x`` and their arrows ``ul, u``, all else is 0.  On a line
    ``c`` runs over ``1 .. width-1``; on a cycle over every cell, and the
    left neighbour of cell 0 is cell ``width-1``.  One word-major
    :func:`step_planes` batch steps them all; returns the trial count and
    the cells ``c`` whose new value differs from ``lattice._LOCALS``."""
    hoods = np.array(list(itertools.product(model.alphabet, model.alphabet,
                                            (0, 1), (0, 1))))
    local = _LOCALS[model]
    want = np.array([local(l, x, u) if model is Model.A else
                     local(l, x, ul, u) for l, x, ul, u in hoods])
    offsets = np.arange(0 if cycle else 1, width)
    trials = np.arange(hoods.shape[0] * offsets.size)
    hood = np.repeat(hoods, offsets.size, axis=0)
    at = np.tile(offsets, hoods.shape[0])
    cells = np.zeros((trials.size, width), dtype=np.uint8)
    arrows = np.zeros_like(cells)
    # at c = 0 the index c - 1 = -1 is cell width - 1
    cells[trials, at - 1], cells[trials, at] = hood[:, 0], hood[:, 1]
    arrows[trials, at - 1], arrows[trials, at] = hood[:, 2], hood[:, 3]

    def plane(bits):  # (trials, width) cells -> word-major (words, trials)
        return np.ascontiguousarray(pack_bits(bits).T)

    planes = ((plane(cells != EMPTY), plane(cells == BLUE))
              if model is Model.D else (plane(cells),))
    out = [unpack_bits(pl.T, width)[trials, at]
           for pl in step_planes(model, planes, plane(arrows),
                                 width if cycle else 0)]
    got = (np.where(out[0] == 0, EMPTY, np.where(out[1] != 0, BLUE, GREEN))
           if model is Model.D else out[0])
    return trials.size, at[got != np.repeat(want, offsets.size)]


@pytest.mark.parametrize("model", list(Model))
def test_kernels_equal_every_rule_at_every_cell_offset(model):
    # both word-edge carries of from_left, at cells 64 and 128, are in it
    trials, misses = _truth_table_misses(model)
    assert trials == (6876 if model is Model.D else 3056)
    assert misses.size == 0


@pytest.mark.parametrize("width", [2, 63, 64, 65, 130])
@pytest.mark.parametrize("model", list(Model))
def test_kernels_equal_every_rule_around_a_cycle(model, width):
    # cell 0 reads cell width-1, from another word once width > 64
    trials, misses = _truth_table_misses(model, width, cycle=True)
    assert trials == 4 * len(model.alphabet) ** 2 * width
    assert misses.size == 0


@pytest.mark.parametrize("cycle", [0, 130])
@pytest.mark.parametrize("model", list(Model))
def test_kernels_never_write_their_inputs(model, cycle):
    # evolve_run keeps the planes it is yielded, and the pair statistic
    # steps read-only broadcast planes: a write into either raises here
    rng = np.random.default_rng(11)
    occ, u = rng.integers(0, 2 ** 63, (2, 3, 5), dtype=np.uint64)
    planes = ((occ, occ & u) if model is Model.D
              else (np.broadcast_to(occ[:, :1], occ.shape),))
    kept = [a.copy() for a in (*planes, u)]
    for a in (*planes, u):
        a.flags.writeable = False
    step_planes(model, planes, u, cycle)
    assert all(np.array_equal(a, b) for a, b in zip(kept, (*planes, u)))


def _kernel_a_three_terms(x, u, cycle=0):
    """``kernel_a``'s rule in three terms: a cell unlike its left one takes
    it, one like it keeps (RIGHT) or flips (UP)."""
    left = packed.from_left(x, cycle)
    diff = left ^ x
    return (diff & left) | (~diff & ~(x ^ u))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.sampled_from([None, 1, 7]), st.booleans(),
       st.integers(0, 2 ** 32), st.data())
def test_kernel_a_equals_its_three_term_form(words, trials, on_cycle, seed,
                                             data):
    cycle = data.draw(st.integers(2, 64 * words)) if on_cycle else 0
    shape = (words,) if trials is None else (words, trials)
    x, u = np.random.default_rng(seed).integers(0, 2 ** 64, (2, *shape),
                                                dtype=np.uint64)
    assert np.array_equal(packed.kernel_a(x, u, cycle),
                          _kernel_a_three_terms(x, u, cycle))


_kernel_a = packed.kernel_a


def _kernel_a_without_carry(x, u, cycle=0):  # the shift drops word edges
    left = x << np.uint64(1)
    diff = left ^ x
    return (diff & left) | (~diff & ~(x ^ u))


@pytest.mark.parametrize("broken, edges_only", [
    (_kernel_a_without_carry, True),
    (lambda x, u, cycle=0: _kernel_a(x, packed.from_left(u, cycle), cycle),
     False)])
def test_truth_table_catches_a_broken_kernel(monkeypatch, broken,
                                             edges_only):
    monkeypatch.setattr(packed, "kernel_a", broken)
    _, misses = _truth_table_misses(Model.A)
    assert misses.size > 0
    assert (set(misses.tolist()) == {64, 128}) == edges_only


@pytest.mark.parametrize("width", [2, 65, 130])
def test_cycle_table_catches_a_shift_without_the_wrap(monkeypatch, width):
    from_left = packed.from_left
    monkeypatch.setattr(packed, "from_left",
                        lambda words, cycle=0: from_left(words))
    for model in Model:
        _, misses = _truth_table_misses(model, width, cycle=True)
        assert set(misses.tolist()) == {0}


def test_color_plane_stays_inside_occupancy(monkeypatch):
    cells = tuple(int(c) for c in np.random.default_rng(8).integers(0, 3,
                                                                    120))
    inside = []

    def checked(model, planes, u, cycle=0):
        occ, blue = out = step_planes(model, planes, u, cycle)
        inside.append(not np.any(blue & ~occ))
        return out

    monkeypatch.setattr(packed, "step_planes", checked)
    for boundary in ("line", "cycle"):
        evolve_final(Model.D, Configuration(0, cells), UpdateStream(8), 12,
                     boundary=boundary)
    assert len(inside) == 24 and all(inside)


@pytest.mark.parametrize("model", list(Model))
def test_packed_evolution_matches_scalar_evolution(model):
    rng = np.random.default_rng(hash(model.value) & 0xFF)
    hi = 3 if model is Model.D else 2
    for case in range(40):
        boundary = ("line", "cycle")[case % 2]
        width = int(rng.integers(6, 150))
        steps = int(rng.integers(0, min(width - 1, 12)))
        offset = int(rng.integers(-80, 80))
        cfg = Configuration(offset,
                            tuple(int(c) for c in rng.integers(0, hi, width)))
        stream = UpdateStream(int(rng.integers(0, 2 ** 40)), case)
        assert evolve_final(model, cfg, stream, steps, boundary=boundary) \
            == evolve(model, cfg, stream, steps, boundary=boundary).final


#: window widths either side of the word edges at 64, 128 and 192 cells
EDGE_WIDTHS = (2, 3, 62, 63, 64, 65, 66, 127, 128, 129, 130, 191, 192, 193)
#: the trials at either end of the stream's range and at the sign bit
TRIALS = (st.sampled_from((0, 2 ** 63, 2 ** 64 - 1))
          | st.integers(0, 2 ** 64 - 1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Model)), st.sampled_from(("line", "cycle")),
       st.sampled_from(EDGE_WIDTHS), st.integers(-200, 200), TRIALS,
       st.data())
def test_bit_plane_run_equals_the_scalar_final(model, boundary, width,
                                               offset, trial, data):
    # a cycle may run for more steps than it has cells
    steps = data.draw(st.integers(0, width - 1 if boundary == "line"
                                  else 2 * width + 5))
    cells = data.draw(st.lists(st.sampled_from(range(len(model.alphabet))),
                               min_size=width, max_size=width))
    init = Configuration(offset, tuple(cells))
    stream = UpdateStream(data.draw(st.integers(0, 2 ** 64 - 1)), trial)
    assert evolve_final(model, init, stream, steps, boundary=boundary) == \
        evolve(model, init, stream, steps, boundary=boundary).final


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(Model)), st.sampled_from(("line", "cycle")),
       st.sampled_from(EDGE_WIDTHS), st.integers(-200, 200), TRIALS,
       st.sampled_from((1, 3, 8, 40, packed.CHUNK_WORDS)), st.data())
def test_bit_plane_trajectory_equals_the_scalar_trajectory(
        model, boundary, width, offset, trial, chunk_words, data):
    # a small budget ends draws and unpacked blocks mid-run, and on a line
    # trims the planes between them
    steps = data.draw(st.integers(0, width - 1 if boundary == "line"
                                  else 2 * width + 5))
    cells = data.draw(st.lists(st.sampled_from(range(len(model.alphabet))),
                               min_size=width, max_size=width))
    init = Configuration(offset, tuple(cells))
    stream = UpdateStream(data.draw(st.integers(0, 2 ** 64 - 1)), trial)
    want = evolve(model, init, stream, steps, boundary=boundary)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packed, "CHUNK_WORDS", chunk_words)
        got = evolve_trajectory(model, init, stream, steps,
                                boundary=boundary)
    assert got == want  # model, boundary, configurations and arrow rows
    if model in (Model.C, Model.D):
        assert scalar_walk.trace_merges(got) == scalar_walk.trace_merges(want)


def test_one_trial_steps_one_dimensional_planes(monkeypatch):
    # so the cycle carry of from_left runs on numpy scalars
    step, shapes = packed.step_planes, []

    def spied(model, planes, u, cycle=0):
        shapes.append((tuple(pl.shape for pl in planes), u.shape))
        return step(model, planes, u, cycle)

    monkeypatch.setattr(packed, "step_planes", spied)
    init = Configuration(5, (1, 0, 2) * 50)  # 3 words, off a block edge
    evolve_trajectory(Model.D, init, UpdateStream(3), 40, boundary="cycle")
    assert shapes == [(((3,), (3,)), (3,))] * 40


@pytest.mark.parametrize("chunk_words", [1, 7, 40])
@pytest.mark.parametrize("boundary", ["line", "cycle"])
def test_blocks_of_steps_draw_bounded_windows(monkeypatch, chunk_words,
                                              boundary):
    # 140 cells take 4 arrow words a step (the window starts mid-block),
    # so a block runs max(1, chunk_words // 4) steps
    monkeypatch.setattr(packed, "CHUNK_WORDS", chunk_words)
    draw, sizes = stream_module.block_bits_vec, []

    def counted(*args):
        out = draw(*args)
        sizes.append(out.size)
        return out

    init = Configuration(-37, tuple(int(c) for c in np.random.default_rng(
        chunk_words).integers(0, 3, 140)))
    stream = UpdateStream(3, 2 ** 64 - 1)
    want = evolve(Model.D, init, stream, 139, boundary=boundary).final
    monkeypatch.setattr(stream_module, "block_bits_vec", counted)
    got = evolve_final(Model.D, init, stream, 139, boundary=boundary)
    assert got == want
    per_block = max(1, chunk_words // 4)
    assert len(sizes) == -(-139 // per_block)
    assert max(sizes) == 4 * min(per_block, 139)


def _spied_draws(monkeypatch):
    """Record the ``(steps, blocks)`` of every :func:`batch_arrow_words`
    call, and check that none draws more than ``CHUNK_WORDS`` words."""
    draw, calls = packed.batch_arrow_words, []

    def spied(seed, trials, steps, blocks):
        out = draw(seed, trials, steps, blocks)
        assert out.size <= packed.CHUNK_WORDS
        calls.append((steps.tolist(), blocks.tolist()))
        return out

    monkeypatch.setattr(packed, "batch_arrow_words", spied)
    return calls


@pytest.mark.parametrize("offset", [0, 64, 1, -63])
@pytest.mark.parametrize("boundary", ["line", "cycle"])
def test_a_window_on_a_block_edge_draws_no_spare_block(monkeypatch, offset,
                                                        boundary):
    # 130 cells span 3 words; a window that starts inside a block spills
    # into a 4th, one that starts on a block edge does not.  A budget of 8
    # words gives the line 2 steps a draw, so it trims at steps 64 and 128;
    # one of 40 gives the cycle 10 or 13.
    budget = 8 if boundary == "line" else 40
    monkeypatch.setattr(packed, "CHUNK_WORDS", budget)
    init = Configuration(offset, tuple(int(c) for c in np.random.default_rng(
        offset % 64).integers(0, 2, 130)))
    stream = UpdateStream(5, 7)
    steps = 129 if boundary == "line" else 200
    want = evolve(Model.C, init, stream, steps, boundary=boundary).final
    calls = _spied_draws(monkeypatch)
    assert evolve_final(Model.C, init, stream, steps,
                        boundary=boundary) == want
    n_blocks = 3 if offset % 64 == 0 else 4
    last = (offset >> 6) + n_blocks
    assert [s for drawn, _ in calls for s in drawn] == list(range(steps))
    for drawn, blocks in calls:
        # a line's draw starts at the word holding its light cone's first
        # cell, a cycle's at the window's first word
        lead = drawn[0] >> 6 if boundary == "line" else 0
        assert blocks == list(range((offset >> 6) + lead, last))
    assert len(calls) == -(-steps // (budget // n_blocks))


@pytest.mark.parametrize("model, cells, steps, boundary", [
    ("a", (0, 1, 0), -1, "line"),
    ("e", (0, 1, 0), 1, "line"),
    ("a", (0, 2, 0), 1, "line"),
    ("d", (3, 0), 1, "cycle"),
    ("c", (-1, 0), 1, "cycle"),
    ("b", (0, 1, 1), 3, "line"),
    ("c", (1,), 0, "cycle"),
    ("a", (0, 1), 1, "torus")])
def test_invalid_runs_raise_evolves_errors_before_any_draw(
        monkeypatch, model, cells, steps, boundary):
    def no_draw(*args):
        raise AssertionError("drew before the checks")

    monkeypatch.setattr(stream_module, "block_bits_vec", no_draw)
    init, stream = Configuration(0, cells), UpdateStream(1, 2 ** 64 - 1)
    with pytest.raises(ValueError) as want:
        evolve(model, init, stream, steps, boundary=boundary)
    with pytest.raises(ValueError) as got:
        evolve_final(model, init, stream, steps, boundary=boundary)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("model", list(Model))
def test_light_cone_determinism_under_widening(model):
    rng = np.random.default_rng(77 + ord(model.value))
    hi = 3 if model is Model.D else 2
    for case in range(120):
        width = int(rng.integers(10, 80))
        grow_l = int(rng.integers(0, 40))
        grow_r = int(rng.integers(0, 40))
        steps = int(rng.integers(1, min(width - 1, 14)))
        offset = int(rng.integers(-50, 50))
        stream = UpdateStream(int(rng.integers(0, 2 ** 40)), case)
        wide_cells = rng.integers(0, hi, width + grow_l + grow_r)
        wide = Configuration(offset - grow_l,
                             tuple(int(c) for c in wide_cells))
        narrow = Configuration(offset, wide.cells[grow_l:grow_l + width])
        wide_final = evolve_final(model, wide, stream, steps)
        narrow_final = evolve_final(model, narrow, stream, steps)
        lo = narrow_final.offset - wide_final.offset
        assert lo >= 0
        assert wide_final.cells[lo:lo + len(narrow_final)] == \
            narrow_final.cells


def test_batched_trials_match_per_trial_scalar_runs():
    seed, trials, width, steps = 424, 6, 70, 9

    def planes(ids, n_words, w):
        return (packed.batch_cell_words(seed, ids, n_words),)

    bits = _run_batch(Model.C, seed, trials, width - steps - 1, steps,
                      planes, lambda lo, hi, x: unpack_bits(x.T, hi)[:, lo:])
    for trial in range(trials):
        stream = UpdateStream(seed, trial)
        init_bits = stream.cell_bits(0, width)
        init = Configuration(0, tuple(int(b) for b in init_bits))
        final = evolve(Model.C, init, stream, steps).final
        assert tuple(int(b) for b in bits[trial]) == final.cells


@pytest.mark.parametrize("first", [0, 2])
def test_broadcast_arrow_words_equal_per_word_draws(first):
    seed, trials, n_words = 77, np.arange(5, 40), 5
    steps, blocks = np.array([130, 0, 7]), np.arange(first, n_words)
    words = packed.batch_arrow_words(seed, trials, steps, blocks)
    assert words.shape == (steps.size, n_words - first, trials.size)
    assert words.flags.c_contiguous
    # one int trial, the last one of the stream, draws no trial axis
    last = packed.batch_arrow_words(seed, 2 ** 64 - 1, steps, blocks)
    assert last.shape == (steps.size, n_words - first)
    for i, step in enumerate(steps.tolist()):
        for j, k in enumerate(blocks.tolist()):
            assert np.array_equal(words[i, j],
                                  block_bits_vec(seed, trials, step, k))
            assert last[i, j] == block_bits_vec(seed, 2 ** 64 - 1, step, k)
    cells = packed.batch_cell_words(seed, trials, n_words, DOMAIN_COLOR)
    assert cells.shape == (n_words, trials.size)
    for k in range(n_words):
        assert np.array_equal(cells[k],
                              block_bits_vec(seed, trials, 0, k, DOMAIN_COLOR))


def test_an_arrow_draw_holds_one_scratch_array(monkeypatch):
    # mc-deep's shape, a chunk's first draw: at peak the result, one
    # full-size scratch array and the trial-sized terms, nothing more
    args = (587, np.arange(6553), np.arange(1), np.arange(5))
    monkeypatch.setattr(stream_module, "_memo", [None, None, None])
    tracemalloc.start()
    try:
        words = packed.batch_arrow_words(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.shape == (1, 5, 6553)
    assert peak < 3 * words.nbytes


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("boundary, width, offset, steps", [
    ("line", 200, -37, 150), ("cycle", 100, 70, 250)])
def test_one_batched_run_equals_separate_window_runs(monkeypatch, model,
                                                     boundary, width, offset,
                                                     steps):
    # a window off the block edges, stepped as one (words, T) batch: the
    # line trims at steps 64 and 128 with two steps a draw, the cycle of
    # two words wraps its carry for more steps than it has cells
    monkeypatch.setattr(packed, "CHUNK_WORDS", 40)
    seed, ids = 99, np.array([0, 3, 2 ** 40, 2 ** 63 - 1], dtype=np.int64)
    rng = np.random.default_rng(width + ord(model.value))
    cells = rng.integers(0, len(model.alphabet), (ids.size, width))
    planes = (pack_bits(cells != EMPTY).T, pack_bits(cells == BLUE).T)
    planes, _, base = deque(packed.run_planes(
        model, planes[:2 if model is Model.D else 1], seed, ids, steps,
        offset, width if boundary == "cycle" else 0), maxlen=1)[0]
    # the line's last draw starts at step 148, in word 2
    assert base == (2 if boundary == "line" else 0)
    skip = steps if boundary == "line" else 0
    occ, *blue = (unpack_bits(pl.T, width - 64 * base)[:, skip - 64 * base:]
                  for pl in planes)
    got = occ * (GREEN - blue[0]) if blue else occ
    for t, trial in enumerate(ids.tolist()):
        init = Configuration(offset, tuple(cells[t].tolist()))
        want = evolve_final(model, init, UpdateStream(seed, trial), steps,
                            boundary=boundary)
        assert want.offset == offset + skip
        assert tuple(got[t].tolist()) == want.cells


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Model)), st.integers(1, 6), st.integers(1, 9),
       st.data())
def test_word_major_batch_steps_each_column_as_one_window(model, n_words,
                                                          trials, data):
    def plane():
        words = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                   min_size=n_words * trials,
                                   max_size=n_words * trials))
        return np.array(words, dtype=np.uint64).reshape(n_words, trials)

    planes = tuple(plane() for _ in range(2 if model is Model.D else 1))
    u = plane()
    batch = step_planes(model, planes, u)
    for t in range(trials):
        column = step_planes(model, tuple(np.ascontiguousarray(pl[:, t])
                                          for pl in planes),
                             np.ascontiguousarray(u[:, t]))
        for got, want in zip(batch, column):
            assert np.array_equal(got[:, t], want)


def _reference_batch(model, seed, trials, width, steps, planes):
    """Every word of every trial stepped at once, one draw per word."""
    ids = np.arange(trials)
    n_words = words_for(width)
    for s in range(steps):
        u = np.stack([block_bits_vec(seed, ids, s, k) for k in range(n_words)],
                     axis=0)
        planes = step_planes(model, planes, u)
    return tuple(unpack_bits(pl.T, width)[:, steps:] for pl in planes)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("chunk_words", [3, 48, None])
def test_chunked_trimmed_batch_matches_reference_loop(model, chunk_words,
                                                      monkeypatch):
    # 130 steps trim word 0 at step 64 and word 1 at step 128, so a trim
    # even one step early would reach the valid cells; 3 words per trial,
    # so chunk_words=3 runs one trial per chunk, on (words, 1) planes, and
    # at 48 the last chunk, of 5 trials, draws 3 steps at a time
    seed, width, steps = 31, 139, 130
    if chunk_words is not None:  # the chunk and the draw budget
        monkeypatch.setattr(packed, "CHUNK_WORDS", chunk_words)
    per_chunk = max(1, packed.CHUNK_WORDS // words_for(width))
    trials = 2 * per_chunk + 5 if chunk_words else per_chunk + 5

    def init(ids, n_words, w):
        planes = (packed.batch_cell_words(seed, ids, n_words),)
        if model is Model.D:
            planes += (packed.batch_cell_words(seed, ids, n_words,
                                               DOMAIN_COLOR),)
        return planes

    def stat(lo, hi, *planes):
        return np.stack([unpack_bits(pl.T, hi)[:, lo:] for pl in planes],
                        axis=1)

    got = _run_batch(model, seed, trials, width - steps - 1, steps, init,
                     stat)
    want = _reference_batch(model, seed, trials, width, steps,
                            init(np.arange(trials), words_for(width), width))
    assert got.shape == (trials, len(want), width - steps)
    for j, w in enumerate(want):
        assert np.array_equal(got[:, j], w)


def test_each_chunk_is_built_and_reduced_alone(monkeypatch):
    # no steps, so a trial's valid cells are its init cells: the init
    # writes each trial id into its first 8 cells and the stat reads it back
    trials, sites, chunk_words = 23, 150, 8
    monkeypatch.setattr(packed, "CHUNK_WORDS", chunk_words)
    per_chunk = chunk_words // words_for(sites + 1)
    built, reduced = [], []

    def planes(ids, n_words, width):
        built.append(ids.copy())
        cells = np.zeros((ids.size, width), dtype=np.uint8)
        cells[:, :8] = (ids[:, None] >> np.arange(8)) & 1
        return (pack_bits(cells).T,)

    def stat(lo, hi, plane):
        assert (lo, hi) == (0, sites + 1)
        cells = unpack_bits(plane.T, hi)[:, lo:]
        ids = (cells[:, :8].astype(np.int64) << np.arange(8)).sum(axis=1)
        reduced.append(ids)
        return ids

    got = _run_batch(Model.C, 5, trials, sites, 0, planes, stat)
    assert len(built) == len(reduced) == -(-trials // per_chunk)
    for b, r in zip(built, reduced):
        assert 1 <= b.size <= per_chunk
        assert np.array_equal(b, r)
    assert np.array_equal(np.concatenate(built), np.arange(trials))
    assert np.array_equal(got, np.arange(trials))
