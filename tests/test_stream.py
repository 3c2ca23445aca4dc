"""Determinism and statistical quality of the arrow stream."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcalab.stream import (DOMAIN_ARROW, DOMAIN_CELL, DOMAIN_COLOR,
                           DOMAIN_UNIFORM, RIGHT, UP, UpdateStream,
                           bits_range, block_bits_vec)

import stream_reference as ref

#: Trials at the edges of the int64/uint64 casts the hash makes.
EDGE_TRIALS = (2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1)


def test_arrow_purity_on_requery():
    first = bits_range(7, 0, 3, -2, 1).tolist()
    assert first in ([UP], [RIGHT])
    assert bits_range(7, 0, 3, -2, 1).tolist() == first
    assert first == [ref.arrow_at(7, 0, 3, -2)]


def test_distinct_coordinates_change_bits():
    base = block_bits_vec(1, 2, 3, 4)
    assert base != block_bits_vec(2, 2, 3, 4)
    assert base != block_bits_vec(1, 3, 3, 4)
    assert base != block_bits_vec(1, 2, 4, 4)
    assert base != block_bits_vec(1, 2, 3, 5)
    assert base != block_bits_vec(1, 2, 3, 4, domain=DOMAIN_CELL)


def test_up_frequency_is_half_over_a_million_draws():
    # 1000 steps x 1024 sites at a fixed seed
    steps = np.arange(1000, dtype=np.int64)[:, None]
    blocks = np.arange(16, dtype=np.int64)[None, :]
    words = block_bits_vec(2024, 0, steps, blocks)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    freq_up = 1.0 - bits.mean()
    assert abs(freq_up - 0.5) < 0.002


def test_two_seeds_are_uncorrelated():
    steps = np.arange(1000, dtype=np.int64)[:, None]
    blocks = np.arange(16, dtype=np.int64)[None, :]
    rows = []
    for seed in (11, 12):
        words = block_bits_vec(seed, 0, steps, blocks)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        rows.append(bits.astype(np.float64))
    r = np.corrcoef(rows[0], rows[1])[0, 1]
    assert abs(r) < 0.01


def test_neighboring_coordinates_are_uncorrelated():
    # adjacent sites and consecutive steps feed the same kernels, so any
    # lag correlation in the mixer would bias every simulation
    steps = np.arange(1000, dtype=np.int64)[:, None]
    blocks = np.arange(16, dtype=np.int64)[None, :]
    words = block_bits_vec(7, 0, steps, blocks)
    bits = np.unpackbits(words.view(np.uint8), axis=-1,
                         bitorder="little").astype(np.float64)
    site_lag = np.corrcoef(bits[:, :-1].ravel(), bits[:, 1:].ravel())[0, 1]
    step_lag = np.corrcoef(bits[:-1].ravel(), bits[1:].ravel())[0, 1]
    assert abs(site_lag) < 0.01
    assert abs(step_lag) < 0.01


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    edges = [0, *EDGE_TRIALS]
    for k in range(50):
        seed = int(rng.integers(0, 2 ** 62))
        trial = edges[k] if k < len(edges) else int(
            rng.integers(0, 2 ** 64, dtype=np.uint64))
        step = int(rng.integers(0, 10 ** 4))
        block = int(rng.integers(-10 ** 6, 10 ** 6))
        assert int(block_bits_vec(seed, trial, step, block)) == \
            ref.block_bits(seed, trial, step, block)


def test_trials_wrap_alike_as_ints_and_int64_arrays():
    # -1, 2^64 - 1 and int64 -1 name one trial; 2^63 and int64 min another
    trials = np.array([-1, -2 ** 63, 5], dtype=np.int64)
    want = [ref.block_bits(3, t, 2, -7) for t in (2 ** 64 - 1, 2 ** 63, 5)]
    assert block_bits_vec(3, trials, 2, -7).tolist() == want
    assert [int(block_bits_vec(3, t, 2, -7)) for t in (-1, 2 ** 63, 5)] == want


def test_row_assembly_matches_single_arrows():
    # a negative start inside a word, crossing four word boundaries
    for trial in (4, *EDGE_TRIALS):
        row = bits_range(99, trial, 12, -70, 200).tolist()
        assert len(row) == 200
        assert tuple(row) == ref.row(99, trial, 12, -70, 200)


def test_bits_range_crosses_word_boundaries():
    got = bits_range(3, 0, 0, 60, 10, DOMAIN_CELL)
    want = [ref.arrow_at(3, 0, 0, site, DOMAIN_CELL) for site in range(60, 70)]
    assert got.dtype == np.uint8
    assert got.tolist() == want
    assert UpdateStream(3).cell_bits(60, 10).tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200), st.integers(1, 90), st.integers(0, 40),
       st.sampled_from([1, *EDGE_TRIALS]))
def test_row_is_a_pure_view_of_the_stream(offset, width, step, trial):
    row = bits_range(17, trial, step, offset, width)
    assert tuple(row.tolist()) == ref.row(17, trial, step, offset, width)


@settings(max_examples=120, deadline=None)
@given(st.integers(-200, 200), st.integers(1, 200), st.integers(0, 40),
       st.sampled_from([0, 1]), st.sampled_from([0, 2 ** 64 - 1]))
@example(offset=-5, width=70, steps=0, shed=1, trial=0)  # no steps, no rows
def test_one_call_draw_equals_the_per_row_draws(offset, width, steps, shed,
                                                trial):
    if shed:  # a line of w cells lasts w - 1 steps
        steps = min(steps, width - 1)
    s = UpdateStream(seed=23, trial=trial)
    assert s.rows(steps, offset, width, shed) == [
        tuple(bits_range(23, trial, n, offset + shed * n,
                         width - shed * n).tolist())
        for n in range(steps)]


def _reference_words(seed, trial, step, block, domain):
    """``ref.block_bits`` at every cell of the broadcast coordinates."""
    cells = np.broadcast(np.asarray(trial), np.asarray(step),
                         np.asarray(block))
    return np.array([ref.block_bits(seed, int(t), int(s), int(b), domain)
                     for t, s, b in cells], dtype=np.uint64).reshape(
                         cells.shape)


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_CALLS = ("same", "mutated", "equal copy", "column", "int", "all scalar")


@settings(max_examples=100, deadline=None)
@given(st.lists(_INT64, min_size=1, max_size=4), st.data())
def test_prefix_memo_hits_and_misses_equal_the_reference(ids, data):
    # one array object, reused, mutated in place, copied and reshaped,
    # between int and all-scalar calls, seeds, domains and scribbled results
    arr = np.array(ids, dtype=np.int64)
    blocks = np.array([-1, 7])
    for _ in range(data.draw(st.integers(1, 10))):
        call = data.draw(st.sampled_from(_CALLS))
        seed = data.draw(st.sampled_from([5, 6]))
        domain = data.draw(st.sampled_from([0, DOMAIN_CELL]))
        step = data.draw(st.integers(-2, 3))
        trial, block = arr, blocks[:, None]
        if call == "mutated":
            arr[data.draw(st.integers(0, arr.size - 1))] = data.draw(_INT64)
        elif call == "equal copy":
            trial = arr.copy()
        elif call == "column":
            trial, block = arr[:, None], blocks
        elif call == "int":
            trial = data.draw(st.integers(-2 ** 63, 2 ** 64 - 1))
        elif call == "all scalar":
            trial, block = data.draw(_INT64), int(blocks[1])
        got = block_bits_vec(seed, trial, step, block, domain)
        want = _reference_words(seed, trial, step, block, domain)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want)
        if isinstance(got, np.ndarray) and data.draw(st.booleans()):
            got ^= np.uint64(0xFFFF)  # the caller owns its result


_DOMAINS = st.sampled_from([DOMAIN_ARROW, DOMAIN_CELL, DOMAIN_COLOR,
                            DOMAIN_UNIFORM])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(-3, 400),
       st.integers(2, 5), st.integers(-4, -1), st.integers(1, 4),
       st.one_of(st.lists(_INT64, min_size=1, max_size=4),
                 st.integers(-2 ** 63, 2 ** 64 - 1)), _DOMAINS)
def test_run_shaped_draws_equal_the_reference(seed, step0, steps, lo, hi,
                                              trial, domain):
    # the shapes run_planes draws: (steps, 1, 1) steps, (blocks, 1) blocks
    # across zero, (T,) trials or one int trial; every domain, so the
    # broadcast xor-shift and the domain xor are each checked at full size
    step = np.arange(step0, step0 + steps)[:, None, None]
    block = np.arange(lo, hi)[:, None]
    if isinstance(trial, list):
        trial = np.array(trial, dtype=np.int64)
    got = block_bits_vec(seed, trial, step, block, domain)
    want = _reference_words(seed, trial, step, block, domain)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
