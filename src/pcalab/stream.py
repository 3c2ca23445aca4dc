"""Deterministic update randomness.

Every random bit consumed in this package is a pure function of a
coordinate tuple ``(seed, trial, step, site, domain)``.  Bits are produced
in blocks of 64 consecutive sites by one avalanche mixer over the packed
coordinates, :func:`block_bits_vec`; :func:`bits_range` slices a site
window out of the blocks that cover it.  A site therefore reads the same
bit alone, in an assembled row or inside a vectorized batch, with no
dependence on evaluation order or threading.  Draws over one trial array
(a Monte Carlo chunk's steps) hash its ``(seed, trial)`` prefix once.

Arrows take two values: ``UP`` ("stay" for a particle, "switch" for a
binary cell) and ``RIGHT`` ("hop right" / "keep"), each with probability
one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UP = 0
RIGHT = 1

#: Bit-plane domains.  Arrows drive the dynamics; the other domains supply
#: initial occupancies, initial colors, and generic per-site uniforms, and
#: never collide with arrow coordinates.
DOMAIN_ARROW = 0
DOMAIN_CELL = 1
DOMAIN_COLOR = 2
DOMAIN_UNIFORM = 3

_MASK = (1 << 64) - 1

# Distinct odd multipliers, one per coordinate, so that permuting
# coordinate values can never alias two tuples.
_C_SEED = 0x9E3779B97F4A7C15
_C_TRIAL = 0xD1B54A32D192ED03
_C_STEP = 0x8CB92BA72F3D8DD7
_C_BLOCK = 0xABCC5167CCAD925F
_C_DOMAIN = 0xFF51AFD7ED558CCD
# The finalizer's shifts and multipliers (SplitMix64's), built once.
_S30, _S27, _S31 = map(np.uint64, (30, 27, 31))
_M1, _M2 = map(np.uint64, (0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_memo = [None, None, None]  # seed, trial words and prefix of the last array


def _tail(z, tmp) -> np.ndarray:
    """The mixer after its first xor-shift, over ``z``; ``tmp`` is scratch."""
    for factor, shift in ((_M1, _S27), (_M2, _S31)):
        z *= factor
        z ^= np.right_shift(z, shift, out=tmp)
    return z


def _mix(z) -> np.ndarray:
    """64-bit finalizer (xor-shift/multiply) with full avalanche, written
    over ``z``: every caller hands it a fresh array or a scalar."""
    z = np.asarray(z)
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=tmp)
    return _tail(z, tmp)[()]


def _u64(x) -> np.ndarray:
    """``x`` modulo 2^64 as uint64; integer arrays wrap in two's complement."""
    if isinstance(x, int):
        return np.uint64(x & _MASK)
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def block_bits_vec(seed: int, trial, step, block,
                   domain: int = DOMAIN_ARROW) -> np.ndarray:
    """64 fair bits for sites ``64*block .. 64*block+63``, LSB first.

    ``trial``, ``step`` and ``block`` may be ints or broadcastable integer
    arrays; the result is a uint64 array of the broadcast shape.  Every
    coordinate is read modulo 2^64, so negative steps and blocks wrap in
    two's complement.  An array of trials reuses the last one's prefix only
    at an equal seed and equal values, so it never reads a stale prefix.
    """
    t, s, b = map(_u64, (trial, step, block))
    with np.errstate(over="ignore"):  # uint64 products wrap by design
        seed0, t0, h = _memo  # one read: a consistent entry
        if not (np.ndim(t) and seed0 == seed and np.array_equal(t0, t)):
            h = _mix(np.uint64((seed & _MASK) ^ _C_SEED))
            h = _mix(h ^ (t * np.uint64(_C_TRIAL)))
            if np.ndim(t):  # t is _u64's copy; no stage writes t or h
                _memo[:] = seed, t, h
        h = _mix(h ^ (s * np.uint64(_C_STEP)))
        # xor-shift 30 is linear over GF(2): shift the two small terms and
        # broadcast once, after the scratch array (fewer first-call faults)
        h, k = (x ^ (x >> _S30) for x in (h, b * np.uint64(_C_BLOCK)))
        tmp = np.empty(np.broadcast(h, k).shape, np.uint64)
        z = _tail(np.asarray(h ^ k), tmp)
        if domain:  # every arrow draw is domain 0
            z ^= _u64(domain * _C_DOMAIN)
        z ^= np.right_shift(z, _S30, out=tmp)
        return _tail(z, tmp)[()]


def bits_range(seed: int, trial: int, step, start: int, count: int,
               domain: int = DOMAIN_ARROW) -> np.ndarray:
    """Bits for ``count`` consecutive sites from ``start`` as a uint8 array.

    ``step`` is an int (one row) or a ``(steps, 1)`` array (one row per
    step, as a ``(steps, count)`` array); one hash call draws them all.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = np.arange(start >> 6, ((start + count - 1) >> 6) + 1)
    words = block_bits_vec(seed, trial, step, blocks, domain)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    lo = start & 63  # the window's first bit in its first block
    return bits[..., lo:lo + count]


@dataclass(frozen=True)
class UpdateStream:
    """Addressable field of i.i.d. fair arrows, keyed by ``(seed, trial)``.

    Every window it hands out is a :func:`bits_range` slice: the same
    (seed, trial, step, site) always yields the same arrow, and distinct
    coordinate tuples are statistically independent.
    """

    seed: int
    trial: int = 0

    def rows(self, steps: int, offset: int, width: int,
             shed: int) -> list[tuple[int, ...]]:
        """The arrows of sites ``offset + shed*n .. offset+width-1`` at each
        step ``n < steps``, drawn in one call: every row ends at one site."""
        bits = bits_range(self.seed, self.trial, np.arange(steps)[:, None],
                          offset, width)
        return [tuple(bits[n, shed * n:].tolist()) for n in range(steps)]

    def cell_bits(self, offset: int, width: int,
                  domain: int = DOMAIN_CELL) -> np.ndarray:
        """Initialization bits (not arrows) for a site window."""
        return bits_range(self.seed, self.trial, 0, offset, width, domain)
