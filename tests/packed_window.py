"""Single-window bit-plane evolution, for checking the kernels.

The library steps bit planes only in Monte Carlo batches
(``pcalab.density._run_batch``).  These helpers run the same kernels
(``pcalab.packed.step_planes``) on one ``Configuration`` at a time, so
tests can compare them cell for cell with the scalar steppers of
``pcalab.lattice`` and check the light cone the batch trimming relies on.
"""

import numpy as np

from pcalab import stream as _stream
from pcalab.lattice import BLUE, EMPTY, GREEN, Configuration, Model
from pcalab.packed import pack_bits, step_planes, unpack_bits
from pcalab.stream import UpdateRow, UpdateStream


def config_to_planes(cfg: Configuration, model: Model) -> tuple[np.ndarray, ...]:
    cells = np.asarray(cfg.cells, dtype=np.uint8)
    if model is Model.D:
        return (pack_bits(cells != EMPTY), pack_bits(cells == BLUE))
    return (pack_bits(cells),)


def planes_to_config(planes: tuple[np.ndarray, ...], model: Model,
                     offset: int, width: int, skip: int = 0) -> Configuration:
    """Rebuild symbols from planes, dropping ``skip`` stale cells on the left."""
    if model is Model.D:
        occ = unpack_bits(planes[0], width)[skip:]
        blue = unpack_bits(planes[1], width)[skip:]
        cells = np.where(occ == 0, EMPTY, np.where(blue != 0, BLUE, GREEN))
    else:
        cells = unpack_bits(planes[0], width)[skip:]
    return Configuration(offset + skip, tuple(int(c) for c in cells))


def row_words(row: UpdateRow, offset: int, width: int) -> np.ndarray:
    """Pack an explicit update row into a plane aligned with a window."""
    if not row.covers(offset, width):
        raise ValueError("update row does not cover the requested window")
    start = offset - row.offset
    return pack_bits(np.asarray(row.arrows[start:start + width], dtype=np.uint8))


def arrow_words(stream: UpdateStream, step: int, offset: int,
                width: int) -> np.ndarray:
    bits = _stream.bits_range(stream.seed, stream.trial, step, offset, width)
    return pack_bits(bits)


def evolve_packed(model: Model, init: Configuration, stream: UpdateStream,
                  steps: int) -> Configuration:
    """Line-boundary evolution on bit planes; returns the final window.

    Agrees cell-for-cell with the scalar :func:`pcalab.lattice.evolve`.
    """
    model = Model(model)
    width = len(init)
    if width < steps + 1:
        raise ValueError(f"window of width {width} is exhausted "
                         f"before {steps} steps")
    planes = config_to_planes(init, model)
    for n in range(steps):
        u = arrow_words(stream, n, init.offset, width)
        planes = step_planes(model, planes, u)
    return planes_to_config(planes, model, init.offset, width, skip=steps)
