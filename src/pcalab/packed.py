"""Word-parallel bit-plane kernels.

Cells pack 64 per uint64 word, least significant bit first: cell ``c``
lives in word ``c >> 6`` at bit ``c & 63``.  Kernels act on the first axis
of a word array and broadcast over trailing axes, so the same code steps a
single window (shape ``(K,)``) or a whole batch of Monte Carlo trials laid
out word-major (shape ``(K, T)``): each word row holds one word of every
trial, so the draws and shifts of a step run on rows ``T`` long.
Monte Carlo statistics read such planes as they are: :func:`count_cells`
counts a cell range of every trial with one popcount per word.

Information flows rightward only (cell ``i`` reads ``i-1`` and ``i``), so
garbage below a line's shrinking valid window never contaminates it; on a
cycle of ``w`` cells, kernels take ``cycle=w`` and cell 0 reads cell ``w-1``.
"""

from __future__ import annotations

import numpy as np

from . import stream as _stream
from .lattice import BLUE, EMPTY, GREEN, Configuration, Model, check_run

_ONE = np.uint64(1)
_S63 = np.uint64(63)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Block budget in uint64 words.  A Monte Carlo batch steps
#: ``CHUNK_WORDS // words_per_trial`` trials at a time, and one window
#: draws the arrows of ``CHUNK_WORDS // words_per_step`` steps at a time,
#: so temporaries stay cache-sized and bounded whatever the count.
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
    """Set cells ``lo .. hi-1`` of each column of a word-major ``(K, T)``
    plane: ``unpack_bits(words.T, hi)[:, lo:].sum(axis=1)``, as uint64."""
    k0, k1 = lo >> 6, words_for(hi)
    mask = np.full(k1 - k0, _ALL)
    mask[0] &= _ALL << np.uint64(lo & 63)
    mask[-1] &= _ALL >> np.uint64(-hi & 63)
    return np.bitwise_count(words[k0:k1] & mask[:, None]).sum(axis=0)


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
    return from_left(x & u, cycle) ^ (x & ~u)


def kernel_c(x: np.ndarray, u: np.ndarray, cycle: int = 0) -> np.ndarray:
    return from_left(x & u, cycle) | (x & ~u)


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


def evolve_final(model: Model, init: Configuration,
                 stream: _stream.UpdateStream, steps: int, *,
                 boundary: str = "line") -> Configuration:
    """``lattice.evolve(...).final``, after its checks, on bit planes.  A
    block of steps draws at most ``CHUNK_WORDS`` arrow words in one call;
    bit ``c`` of word ``k`` is the arrow at site ``init.offset + 64k + c``.
    """
    model, cycle = check_run(model, init, steps, boundary)
    width, first, r = len(init), init.offset >> 6, init.offset & 63
    cells = np.asarray(init.cells, dtype=np.uint8)
    # an occupancy plane, and model d's blue plane
    planes = (pack_bits(cells != EMPTY),
              pack_bits(cells == BLUE))[:2 if model is Model.D else 1]
    # the window starts at bit r of its first block, and spills into one
    # more block unless r is 0
    blocks = np.arange(first, first + words_for(width) + (r > 0))
    per_block = max(1, CHUNK_WORDS // blocks.size)
    for lo in range(0, steps, per_block):
        rows = np.arange(lo, min(lo + per_block, steps))[:, None]
        w = _stream.block_bits_vec(stream.seed, stream.trial, rows, blocks)
        if r:
            w = (w[:, :-1] >> np.uint64(r)) | (w[:, 1:] << np.uint64(64 - r))
        for u in w:
            planes = step_planes(model, planes, u, width if cycle else 0)
    skip = 0 if cycle else steps  # a line keeps cells ``steps ..``
    occ, *blue = (unpack_bits(pl, width)[skip:] for pl in planes)
    cells = occ * (GREEN - blue[0]) if blue else occ  # BLUE on a blue bit
    return Configuration(init.offset + skip, tuple(cells.tolist()))


def batch_arrow_words(seed: int, trials: np.ndarray, step: int,
                      n_words: int, first: int = 0) -> np.ndarray:
    """Arrow planes for a batch of trials, window anchored at site 0.

    Returns a C-contiguous array of shape ``(n_words - first, len(trials))``:
    row ``j`` is word ``first + j`` of every trial, whose bit ``c`` is the
    arrow at site ``64(first + j) + c``, identical to per-site scalar
    queries.  One broadcast draw spans the whole block, so each trial's
    ``(seed, trial, step)`` prefix is mixed once rather than once per word.
    """
    blocks = np.arange(first, n_words, dtype=np.int64)
    return _stream.block_bits_vec(seed, trials[None, :], step, blocks[:, None])


def batch_cell_words(seed: int, trials: np.ndarray, n_words: int,
                     domain: int = _stream.DOMAIN_CELL) -> np.ndarray:
    """Initialization planes for a batch of trials (window at site 0):
    shape ``(n_words, len(trials))``, row ``k`` is word ``k`` of each trial."""
    blocks = np.arange(n_words, dtype=np.int64)
    return _stream.block_bits_vec(seed, trials[None, :], 0, blocks[:, None],
                                  domain)
