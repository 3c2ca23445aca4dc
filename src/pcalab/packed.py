"""Word-parallel bit-plane kernels.

Cells pack 64 per uint64 word, least significant bit first: cell ``c``
lives in word ``c >> 6`` at bit ``c & 63``.  Planes are word-major, shape
``(K, T)``: row ``k`` holds word ``k`` of each of ``T`` trials, so the
draws and shifts of a step run on rows ``T`` long, and :func:`count_cells`
counts a cell range of every trial at once.  A single window is ``(K,)``.

Information flows rightward only (cell ``i`` reads ``i-1`` and ``i``), so
garbage below a line's shrinking valid window never contaminates it; on a
cycle of ``w`` cells, kernels take ``cycle=w`` and cell 0 reads cell ``w-1``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator

import numpy as np

from . import stream as _stream
from .lattice import (BLUE, EMPTY, GREEN, Configuration, Model, Trajectory,
                      check_run)

_ONE = np.uint64(1)
_S63 = np.uint64(63)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Block budget in uint64 words: a Monte Carlo chunk holds ``CHUNK_WORDS //
#: words_per_trial`` trials and a draw of :func:`run_planes` covers
#: ``CHUNK_WORDS // words_per_step`` steps, so temporaries stay cache-sized.
CHUNK_WORDS = 1 << 15


def words_for(width: int) -> int:
    return (width + 63) >> 6


def pack_bits(bits) -> np.ndarray:
    """Pack 0/1 cells (last axis) into uint64 words, LSB-first."""
    b = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(b, axis=-1, bitorder="little")
    pad = (-packed.shape[-1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1)
    return packed.view("<u8")


def unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint8 cells of length ``width``."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little")
    return bits[..., :width]


def count_cells(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Set cells ``lo .. hi-1`` per column of a ``(K, T)`` plane, or of a
    ``(K,)`` one: ``unpack_bits(words.T, hi)[..., lo:].sum(-1)``, uint64."""
    k0, k1 = lo >> 6, words_for(hi)
    mask = np.full(k1 - k0, _ALL)
    mask[0] &= _ALL << np.uint64(lo & 63)
    mask[-1] &= _ALL >> np.uint64(-hi & 63)
    # summed over axis 0, word-major: over axis -1, mc-wide ran 15% slower
    return np.bitwise_count(words[k0:k1].T & mask).T.sum(axis=0)


def from_left(words: np.ndarray, cycle: int = 0) -> np.ndarray:
    """Plane whose cell ``c`` holds input cell ``c - 1``; cell 0 takes a
    zero on a line, cell ``cycle - 1`` on a cycle of ``cycle`` cells."""
    out = words << _ONE
    out[1:] |= words[:-1] >> _S63
    if cycle:
        k, b = divmod(cycle - 1, 64)
        out[0] |= (words[k] >> np.uint64(b)) & _ONE
    return out


# Arrow planes use bit 1 = RIGHT, matching the arrow codes in pcalab.stream.

def kernel_a(x: np.ndarray, u: np.ndarray, cycle: int = 0) -> np.ndarray:
    left = from_left(x, cycle)
    diff = left ^ x
    return (diff & left) | (~diff & ~(x ^ u))


def kernel_b(x: np.ndarray, u: np.ndarray, cycle: int = 0) -> np.ndarray:
    out = from_left(hop := x & u, cycle)  # x & ~u is x ^ hop, formed in hop
    return np.bitwise_xor(out, np.bitwise_xor(x, hop, out=hop), out=out)


def kernel_c(x: np.ndarray, u: np.ndarray, cycle: int = 0) -> np.ndarray:
    out = from_left(hop := x & u, cycle)  # x & ~u is x ^ hop, formed in hop
    return np.bitwise_or(out, np.bitwise_xor(x, hop, out=hop), out=out)


def step_planes(model: Model, planes: tuple[np.ndarray, ...],
                u: np.ndarray, cycle: int = 0) -> tuple[np.ndarray, ...]:
    if model is Model.A:
        return (kernel_a(planes[0], u, cycle),)
    if model is Model.B:
        return (kernel_b(planes[0], u, cycle),)
    if model is Model.C:
        return (kernel_c(planes[0], u, cycle),)
    # Model d: occupancy coalesces; the color plane obeys the annihilation
    # rule, because a merged particle is blue iff exactly one parent was blue.
    return kernel_c(planes[0], u, cycle), kernel_b(planes[1], u, cycle)


def run_planes(model: Model, planes: tuple[np.ndarray, ...], seed: int,
               trials: int | np.ndarray, steps: int, offset: int = 0,
               cycle: int = 0) -> Iterator[tuple]:
    """Step ``(words, T)`` planes ``steps`` times, yielding ``(planes, u,
    base)`` before each step and after the last, with ``u`` None: the
    planes, the arrow words that step them and the window word at row 0.

    Column ``t`` is trial ``trials[t]``, and one int ``trials`` steps
    ``(words,)`` planes; bit ``c`` of word ``k`` is the cell at site
    ``offset + 64k + c``.  A draw covers ``CHUNK_WORDS // (blocks * T)``
    steps.  On a line the words wholly left of the valid window at a
    draw's first step ``s`` (below ``s >> 6``) are neither drawn nor
    stepped: as leading rows they leave the planes contiguous views, and
    the valid cells never read them.  Every draw is a pure function of
    its coordinates, so the cells are bit for bit those of untrimmed steps.
    """
    first, r = offset >> 6, offset & 63
    n_blocks = planes[0].shape[0] + (r > 0)  # a window off a block edge spills
    per_draw = max(1, CHUNK_WORDS // (n_blocks * np.size(trials)))
    base = 0
    for lo in range(0, steps, per_draw):
        trim = 0 if cycle else lo >> 6
        planes, base = tuple(pl[trim - base:] for pl in planes), trim
        u = batch_arrow_words(seed, trials,
                              np.arange(lo, min(lo + per_draw, steps)),
                              np.arange(first + base, first + n_blocks))
        if r:
            u = (u[:, :-1] >> np.uint64(r)) | (u[:, 1:] << np.uint64(64 - r))
        for row in u:
            yield planes, row, base
            planes = step_planes(model, planes, row, cycle)
    yield planes, None, base


def _trajectory(model: Model, init: Configuration,
                stream: _stream.UpdateStream, steps: int, boundary: str,
                keep) -> Trajectory:
    """``lattice.evolve``'s checks, then the steps ``keep`` takes of the
    numbered :func:`run_planes` on the one trial of ``stream``, unpacked a
    block of steps at one ``base`` and of about ``CHUNK_WORDS`` cells at a
    time."""
    model, cycle = check_run(model, init, steps, boundary)
    cells = np.asarray(init.cells, dtype=np.uint8)
    # an occupancy plane, and model d's blue plane, each (words,)
    planes = (pack_bits(cells != EMPTY),
              pack_bits(cells == BLUE))[:2 if model is Model.D else 1]
    run = run_planes(model, planes, stream.seed, stream.trial, steps,
                     init.offset, len(init) if cycle else 0)
    traj = Trajectory(model, boundary, [])
    per_block = CHUNK_WORDS // len(init) + 1  # steps, at least one
    for (base, _), block in itertools.groupby(
            keep(enumerate(run)), lambda y: (y[1][2], y[0] // per_block)):
        ns, yields = zip(*block)
        planes, u, _ = zip(*yields)
        width = len(init) - 64 * base
        occ, *blue = (unpack_bits(np.array(pl), width) for pl in zip(*planes))
        cells = occ * (GREEN - blue[0]) if blue else occ  # BLUE on a blue bit
        # the run's last yield, after its last step, has no arrows
        arrows = unpack_bits(np.array(u[:steps - ns[0]], np.uint64), width)
        lo = [(0 if cycle else n) - 64 * base for n in ns]
        # tuples from one list per block, whose release leaves render's row
        # joins room low in the heap (per-row copies: 7 MB more peak RSS)
        traj.configs += (Configuration(init.offset + i + 64 * base, tuple(
            row[i:])) for i, row in zip(lo, cells.tolist()))
        traj.rows += (tuple(row[i:]) for i, row in zip(lo, arrows.tolist()))
    return traj


def evolve_final(model: Model, init: Configuration,
                 stream: _stream.UpdateStream, steps: int, *,
                 boundary: str = "line") -> Configuration:
    """``lattice.evolve(...).final``: the run's last planes unpacked."""
    return _trajectory(model, init, stream, steps, boundary,
                       lambda run: deque(run, maxlen=1)).final


def evolve_trajectory(model: Model, init: Configuration,
                      stream: _stream.UpdateStream, steps: int, *,
                      boundary: str = "line") -> Trajectory:
    """``lattice.evolve(...)``: every step of the run unpacked."""
    return _trajectory(model, init, stream, steps, boundary, iter)


def batch_arrow_words(seed: int, trials: int | np.ndarray,
                      steps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Words ``[i, k, t] = block_bits_vec(seed, trials[t], steps[i],
    blocks[k])`` in one broadcast draw; an int ``trials`` gives ``[i, k]``."""
    if np.ndim(trials):
        steps, blocks = steps[:, None], blocks[:, None]
    return _stream.block_bits_vec(seed, trials, steps[:, None], blocks)


def batch_cell_words(seed: int, trials: np.ndarray, n_words: int,
                     domain: int = _stream.DOMAIN_CELL) -> np.ndarray:
    """Initialization planes for a batch of trials (window at site 0):
    shape ``(n_words, len(trials))``, row ``k`` is word ``k`` of each trial."""
    return _stream.block_bits_vec(seed, trials, 0,
                                  np.arange(n_words)[:, None], domain)
