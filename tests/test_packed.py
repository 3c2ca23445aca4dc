"""Bit-plane kernels against the scalar reference, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import density, packed
from pcalab.density import _run_batch
from pcalab.lattice import (Configuration, Model, evolve, step_a, step_b,
                            step_c, step_d)
from pcalab.packed import pack_bits, step_planes, unpack_bits, words_for
from pcalab.stream import (DOMAIN_COLOR, UpdateRow, UpdateStream,
                           block_bits_vec)

from packed_window import (arrow_words, config_to_planes, evolve_packed,
                           planes_to_config, row_words)

_SCALAR = {Model.A: step_a, Model.B: step_b, Model.C: step_c, Model.D: step_d}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_pack_roundtrip(bits):
    words = pack_bits(np.array(bits, dtype=np.uint8))
    assert words.shape == (words_for(len(bits)),)
    assert list(unpack_bits(words, len(bits))) == bits


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 127, 128, 129])
def test_config_roundtrip_at_word_boundaries(width):
    rng = np.random.default_rng(width)
    for model in Model:
        hi = 3 if model is Model.D else 2
        cfg = Configuration(-7, tuple(int(c) for c in rng.integers(0, hi, width)))
        planes = config_to_planes(cfg, model)
        assert planes_to_config(planes, model, cfg.offset, width) == cfg


def _packed_one_step(model, cfg, row):
    planes = config_to_planes(cfg, model)
    u = row_words(row, cfg.offset, len(cfg))
    out = step_planes(model, planes, u)
    return planes_to_config(out, model, cfg.offset, len(cfg), skip=1)


@pytest.mark.parametrize("model", list(Model))
def test_kernels_match_scalar_on_random_windows(model):
    rng = np.random.default_rng(hash(model.value) & 0xFFFF)
    hi = 3 if model is Model.D else 2
    for _ in range(2000):
        width = int(rng.integers(2, 90))
        offset = int(rng.integers(-64, 64))
        cfg = Configuration(offset,
                            tuple(int(c) for c in rng.integers(0, hi, width)))
        row = UpdateRow(offset, tuple(int(a) for a in rng.integers(0, 2, width)))
        assert _packed_one_step(model, cfg, row) == _SCALAR[model](cfg, row)


def test_color_plane_stays_inside_occupancy():
    rng = np.random.default_rng(8)
    stream = UpdateStream(8)
    cells = tuple(int(c) for c in rng.integers(0, 3, 120))
    planes = config_to_planes(Configuration(0, cells), Model.D)
    for step in range(12):
        u = arrow_words(stream, step, 0, 120)
        planes = step_planes(Model.D, planes, u)
        occ, blue = (unpack_bits(pl, 120) for pl in planes)
        assert np.all(blue <= occ)


@pytest.mark.parametrize("model", list(Model))
def test_packed_evolution_matches_scalar_evolution(model):
    rng = np.random.default_rng(hash(model.value) & 0xFF)
    hi = 3 if model is Model.D else 2
    for case in range(40):
        width = int(rng.integers(6, 150))
        steps = int(rng.integers(0, min(width - 1, 12)))
        offset = int(rng.integers(-80, 80))
        cfg = Configuration(offset,
                            tuple(int(c) for c in rng.integers(0, hi, width)))
        stream = UpdateStream(int(rng.integers(0, 2 ** 40)), case)
        assert evolve_packed(model, cfg, stream, steps) == \
            evolve(model, cfg, stream, steps).final


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
        narrow = wide.window(offset, offset + width)
        wide_final = evolve_packed(model, wide, stream, steps)
        narrow_final = evolve_packed(model, narrow, stream, steps)
        assert wide_final.window(narrow_final.offset, narrow_final.end) == \
            narrow_final


def test_batched_trials_match_per_trial_scalar_runs():
    seed, trials, width, steps = 424, 6, 70, 9

    def planes(ids, n_words, w):
        return (packed.batch_cell_words(seed, ids, n_words),)

    bits = _run_batch(Model.C, seed, trials, width - steps - 1, steps,
                      planes, lambda cells: cells)
    for trial in range(trials):
        stream = UpdateStream(seed, trial)
        init_bits = stream.cell_bits(0, width)
        init = Configuration(0, tuple(int(b) for b in init_bits))
        final = evolve(Model.C, init, stream, steps).final
        assert tuple(int(b) for b in bits[trial]) == final.cells


@pytest.mark.parametrize("first", [0, 2])
def test_broadcast_arrow_words_equal_per_word_draws(first):
    seed, trials, step, n_words = 77, np.arange(5, 40), 130, 5
    words = packed.batch_arrow_words(seed, trials, step, n_words, first)
    assert words.shape == (n_words - first, trials.size)
    assert words.flags.c_contiguous
    for j, k in enumerate(range(first, n_words)):
        assert np.array_equal(words[j],
                              block_bits_vec(seed, trials, step, k))
    cells = packed.batch_cell_words(seed, trials, n_words, DOMAIN_COLOR)
    assert cells.shape == (n_words, trials.size)
    for k in range(n_words):
        assert np.array_equal(cells[k],
                              block_bits_vec(seed, trials, 0, k, DOMAIN_COLOR))


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
    # so chunk_words=3 runs one trial per chunk, on (words, 1) planes
    seed, width, steps = 31, 139, 130
    if chunk_words is not None:
        monkeypatch.setattr(density, "CHUNK_WORDS", chunk_words)
    per_chunk = max(1, density.CHUNK_WORDS // words_for(width))
    trials = 2 * per_chunk + 5 if chunk_words else per_chunk + 5

    def init(ids, n_words, w):
        planes = (packed.batch_cell_words(seed, ids, n_words),)
        if model is Model.D:
            planes += (packed.batch_cell_words(seed, ids, n_words,
                                               DOMAIN_COLOR),)
        return planes

    got = _run_batch(model, seed, trials, width - steps - 1, steps, init,
                     lambda *cells: np.stack(cells, axis=1))
    want = _reference_batch(model, seed, trials, width, steps,
                            init(np.arange(trials), words_for(width), width))
    assert got.shape == (trials, len(want), width - steps)
    for j, w in enumerate(want):
        assert np.array_equal(got[:, j], w)


def test_each_chunk_is_built_and_reduced_alone(monkeypatch):
    # no steps, so a trial's valid cells are its init cells: the init
    # writes each trial id into its first 8 cells and the stat reads it back
    trials, sites, chunk_words = 23, 150, 8
    monkeypatch.setattr(density, "CHUNK_WORDS", chunk_words)
    per_chunk = chunk_words // words_for(sites + 1)
    built, reduced = [], []

    def planes(ids, n_words, width):
        built.append(ids.copy())
        cells = np.zeros((ids.size, width), dtype=np.uint8)
        cells[:, :8] = (ids[:, None] >> np.arange(8)) & 1
        return (pack_bits(cells).T,)

    def stat(cells):
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
