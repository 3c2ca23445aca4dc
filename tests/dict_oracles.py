"""Reference forms of the two density oracles: one dict per step.

These are the recurrences of ``pcalab.density.hitting_time_oracle`` and
``interface_walk_oracle`` kept as sparse position -> count maps; the
library runs the same recurrences over dense arrays, and the tests
require the two forms to agree exactly.
"""

import math
from collections import defaultdict
from fractions import Fraction

from pcalab.density import WalkSpec


def hitting_time_reference(n: int) -> Fraction:
    """P(a simple symmetric walk from 0 stays below 2 for 2n steps)."""
    counts = {0: 1}
    for _ in range(2 * n):
        nxt: dict[int, int] = defaultdict(int)
        for pos, c in counts.items():
            for q in (pos - 1, pos + 1):
                if q <= 1:  # paths that reach 2 are killed
                    nxt[q] += c
        counts = nxt
    return Fraction(sum(counts.values()), 4 ** n)


def interface_walk_reference(n: int, spec: WalkSpec = WalkSpec()) -> Fraction:
    """Survival probability at step ``n`` of the absorbed lazy walk."""
    denom = math.lcm(*(w.denominator for _, w in spec.step_law))
    moves = [(delta, int(w * denom)) for delta, w in spec.step_law]
    weights = {spec.start: 1}
    for _ in range(n):
        nxt: dict[int, int] = defaultdict(int)
        for pos, w in weights.items():
            for delta, m in moves:
                if pos + delta > spec.barrier and m:
                    nxt[pos + delta] += w * m
        weights = nxt
    return Fraction(sum(weights.values()), denom ** n)
