"""Word-parallel bit-plane kernels.

Cells pack 64 per uint64 word, least significant bit first: cell ``c``
lives in word ``c >> 6`` at bit ``c & 63``.  Kernels act on the first axis
of a word array and broadcast over trailing axes, so the same code steps a
single window (shape ``(K,)``) or a whole batch of Monte Carlo trials laid
out word-major (shape ``(K, T)``): each word row holds one word of every
trial, so the draws and shifts of a step run on rows ``T`` long.

Information flows rightward only (cell ``i`` reads ``i-1`` and ``i``), so
the garbage that accumulates below the shrinking valid window never
contaminates it.  Line boundary only; cycle runs use the scalar kernels.
"""

from __future__ import annotations

import numpy as np

from . import stream as _stream
from .lattice import Model

_ONE = np.uint64(1)
_S63 = np.uint64(63)


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


def from_left(words: np.ndarray) -> np.ndarray:
    """Plane whose cell ``c`` holds input cell ``c - 1`` (zero shifted in)."""
    out = words << _ONE
    out[1:] |= words[:-1] >> _S63
    return out


# Arrow planes use bit 1 = RIGHT, matching the arrow codes in pcalab.stream.

def kernel_a(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    left = from_left(x)
    diff = left ^ x
    return (diff & left) | (~diff & ~(x ^ u))


def kernel_b(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return from_left(x & u) ^ (x & ~u)


def kernel_c(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return from_left(x & u) | (x & ~u)


def kernel_d(occ: np.ndarray, blue: np.ndarray,
             u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Occupancy coalesces; the color plane obeys the annihilation rule,
    # because a merged particle is blue iff exactly one parent was blue.
    return kernel_c(occ, u), kernel_b(blue, u)


def step_planes(model: Model, planes: tuple[np.ndarray, ...],
                u: np.ndarray) -> tuple[np.ndarray, ...]:
    if model is Model.A:
        return (kernel_a(planes[0], u),)
    if model is Model.B:
        return (kernel_b(planes[0], u),)
    if model is Model.C:
        return (kernel_c(planes[0], u),)
    return kernel_d(planes[0], planes[1], u)


def batch_arrow_words(seed: int, trials: np.ndarray, step: int,
                      n_words: int, first: int = 0) -> np.ndarray:
    """Arrow planes for a batch of trials, window anchored at site 0.

    Returns a C-contiguous array of shape ``(n_words - first, len(trials))``:
    row ``j`` is word ``first + j`` of every trial, whose bit ``c`` is the
    arrow at site ``64(first + j) + c``, identical to per-site scalar
    queries.  One broadcast draw covers the whole block, so each trial's
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
