"""References that measure how fast the machine runs right now.

On a shared machine speed drifts by up to 1.5x over seconds to minutes; CPU
time drifts with wall time, and both cores drift alike.  A median over one
run's passes cannot remove drift that lasts longer than the run, so two
measures are restated at the nominal speed of the machine that recorded the
first trajectory point (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7,
numpy 2.4.6).

Wall time.  The calls of exact and scalar-render, which are
interpreter-bound, and of mc-wide speed up and slow down with a
``Fraction`` kernel whose own time flips between two levels within
seconds.  The worker times the kernel before the first timed call and
after every call, and restates each call by the mean of the kernel times
just before and after it: ``call_s * NOMINAL_KERNEL_S / kernel_s``.
mc-deep's vectorised loops on small arrays do not follow the kernel, and
its raw median is reported.  Over five seeds the kernel cut the spread of
exact from 0.16 to 0.03, of scalar-render from 0.29 to 0.05 and of mc-wide
from 0.13 to 0.09, but raised mc-deep's from 0.05 to 0.13.  A uint64
mixing kernel, per pass or per run, made mc-deep steadier than its raw
median in two of seven sets of runs and less steady in five
(``trajectory.json``, ``calibration``).

Set-up.  Start-up follows the machine's memory and file-cache state, which
the kernel does not see.  So an interpreter that only imports numpy, most
of pcalab's own set-up, is spawned just before each set-up is timed:
``setup_s * NOMINAL_START_S / start_s``.

The references and their nominal times are part of the benchmark's
definition: changing them changes every restated time.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import median

REPS = 5
NOMINAL_KERNEL_S = 0.0120
#: Arguments of the set-up reference interpreter, and its nominal time.
START_ARGS = ("-c", "import numpy")
NOMINAL_START_S = 0.200


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 2400):
        total += Fraction(1, i)
    return total


def kernel_time() -> float:
    """Median time of ``REPS`` runs of the ``Fraction`` kernel."""
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return median(samples)
