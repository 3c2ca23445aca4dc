"""Pure-integer reference for the arrow stream's hash.

``pcalab.stream.block_bits_vec`` computes the same 64-bit words with numpy
uint64 arithmetic.  This module redoes the mixer on Python ints, masking
every product to 64 bits by hand, so the tests can compare the two bit for
bit without trusting numpy's wrap-around.
"""

_MASK = (1 << 64) - 1

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
               domain: int = 0) -> int:
    """64 fair bits for sites ``64*block .. 64*block+63``, LSB first.

    Negative ``trial``/``step``/``block`` wrap in two's complement.
    """
    h = _mix((seed & _MASK) ^ _C_SEED)
    h = _mix(h ^ ((trial * _C_TRIAL) & _MASK))
    h = _mix(h ^ ((step * _C_STEP) & _MASK))
    h = _mix(h ^ ((block * _C_BLOCK) & _MASK))
    h = _mix(h ^ ((domain * _C_DOMAIN) & _MASK))
    return h


def arrow_at(seed: int, trial: int, step: int, site: int,
             domain: int = 0) -> int:
    """The bit of one site, read off its block."""
    word = block_bits(seed, trial, step, site >> 6, domain)
    return (word >> (site & 63)) & 1


def row(seed: int, trial: int, step: int, offset: int,
        width: int) -> tuple[int, ...]:
    """The arrows of sites ``offset .. offset+width-1``, one site at a time."""
    return tuple(arrow_at(seed, trial, step, site)
                 for site in range(offset, offset + width))
