"""Deterministic update randomness.

Every random bit consumed in this package is a pure function of a
coordinate tuple ``(seed, trial, step, site, domain)``.  Bits are produced
in blocks of 64 consecutive sites by an avalanche mixer over the packed
coordinates, so the same site can be queried one arrow at a time, as an
assembled row, or inside a vectorized batch, always with identical results
and no dependence on evaluation order or threading.

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


def _mix(z: int) -> int:
    """64-bit finalizer (xor-shift/multiply) with full avalanche."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def block_bits(seed: int, trial: int, step: int, block: int,
               domain: int = DOMAIN_ARROW) -> int:
    """64 fair bits for sites ``64*block .. 64*block+63``, LSB first.

    Pure in all five coordinates; negative ``step``/``block`` wrap in
    two's complement, matching the vectorized path exactly.
    """
    h = _mix((seed & _MASK) ^ _C_SEED)
    h = _mix(h ^ ((trial * _C_TRIAL) & _MASK))
    h = _mix(h ^ ((step * _C_STEP) & _MASK))
    h = _mix(h ^ ((block * _C_BLOCK) & _MASK))
    h = _mix(h ^ ((domain * _C_DOMAIN) & _MASK))
    return h


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u64(x) -> np.ndarray:
    """``x`` modulo 2^64 as uint64; integer arrays wrap in two's complement."""
    if isinstance(x, int):
        return np.uint64(x & _MASK)
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def block_bits_vec(seed: int, trial, step, block,
                   domain: int = DOMAIN_ARROW) -> np.ndarray:
    """Vectorized :func:`block_bits`.

    ``trial``, ``step`` and ``block`` may be scalars or broadcastable
    integer arrays; the result is a uint64 array of the broadcast shape,
    bit-identical to scalar queries at the same coordinates.
    """
    t, s, b = map(_u64, (trial, step, block))
    with np.errstate(over="ignore"):  # uint64 products wrap by design
        h = np.uint64(_mix((seed & _MASK) ^ _C_SEED))
        h = _mix_np(h ^ (t * np.uint64(_C_TRIAL)))
        h = _mix_np(h ^ (s * np.uint64(_C_STEP)))
        h = _mix_np(h ^ (b * np.uint64(_C_BLOCK)))
        h = _mix_np(h ^ np.uint64((domain * _C_DOMAIN) & _MASK))
    return h


def bits_range(seed: int, trial: int, step: int, start: int, count: int,
               domain: int = DOMAIN_ARROW) -> np.ndarray:
    """Bits for ``count`` consecutive sites from ``start`` as a uint8 array."""
    if count < 1:
        raise ValueError("count must be >= 1")
    first = start >> 6
    last = (start + count - 1) >> 6
    acc = 0
    for j, b in enumerate(range(first, last + 1)):
        acc |= block_bits(seed, trial, step, b, domain) << (64 * j)
    acc >>= start - 64 * first
    raw = acc.to_bytes((count + 7) // 8 + 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:count]


@dataclass(frozen=True)
class UpdateStream:
    """Addressable field of i.i.d. fair arrows, keyed by ``(seed, trial)``.

    ``arrow_at`` is a pure function of its coordinates: the same
    (seed, trial, step, site) always yields the same arrow, and distinct
    coordinate tuples are statistically independent.
    """

    seed: int
    trial: int = 0

    def arrow_at(self, step: int, site: int) -> int:
        word = block_bits(self.seed, self.trial, step, site >> 6)
        return (word >> (site & 63)) & 1

    def row(self, step: int, offset: int, width: int) -> tuple[int, ...]:
        """The arrows of sites ``offset .. offset+width-1`` at ``step``."""
        return tuple(bits_range(self.seed, self.trial, step, offset,
                                width).tolist())

    def rows(self, steps: int, offset: int, width: int,
             shed: int) -> list[tuple[int, ...]]:
        """``[row(n, offset + shed*n, width - shed*n) for n < steps]``,
        drawn in one vector call: every row ends at the same site."""
        first, end = offset >> 6, offset + width
        words = block_bits_vec(self.seed, self.trial,
                               np.arange(steps)[:, None],
                               np.arange(first, ((end - 1) >> 6) + 1)[None])
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        lo, hi = offset - 64 * first, end - 64 * first
        return [tuple(bits[n, lo + shed * n:hi].tolist())
                for n in range(steps)]

    def cell_bits(self, offset: int, width: int,
                  domain: int = DOMAIN_CELL) -> np.ndarray:
        """Initialization bits (not arrows) for a site window."""
        return bits_range(self.seed, self.trial, 0, offset, width, domain)
