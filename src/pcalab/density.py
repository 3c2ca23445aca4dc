"""Exact and Monte Carlo particle-density estimation.

The coalescing model started from the fully occupied line has site density

    d(n) = C(2n+1, n) / 4**n

at step ``n``.  Three independent routes to this number live here: the
closed form, a dynamic program for the first time a simple symmetric walk
reaches height 2, and a dynamic program for the survival of a lazy
+-1 walk started at 1 and absorbed at 0.  Monte Carlo estimators for all
four lattice models sit alongside, batched over trials on bit planes.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import packed, stream
from .lattice import Model

EXACT_LIMIT = 512
LOG_LIMIT = 10 ** 7  # density_log sums one log per factor, linear in n
Z95 = 1.96  # normal quantile behind every 95% halfwidth


def _check_exact_range(n: int) -> None:
    if not 0 <= n <= EXACT_LIMIT:
        raise ValueError(f"n={n} outside the exact regime [0, {EXACT_LIMIT}]; "
                         "use density_log for large n")


def exact_density(n: int) -> Fraction:
    """Site density at step ``n`` from the full line, as an exact rational."""
    _check_exact_range(n)
    return Fraction(math.comb(2 * n + 1, n), 4 ** n)


def density_log(n: int) -> float:
    """Float density via an exactly-summed series of per-factor logs.

    Writing the density as the product of (n+1+k)/(4k) over k = 1..n keeps
    every log term in [-log 4, log 4], and ``math.fsum`` adds them without
    rounding, so the result stays within 1e-12 relative of the exact value
    throughout the exact regime and remains accurate far beyond it.
    """
    if not 0 <= n <= LOG_LIMIT:
        raise ValueError(f"n={n} outside [0, {LOG_LIMIT}] for density_log")
    return math.exp(math.fsum(
        math.log((n + 1 + k) / (4.0 * k)) for k in range(1, n + 1)))


def _carry(limbs: np.ndarray) -> None:
    """Keep each limb's low 32 bits and add the rest to the row above;
    every limb but the top one, which keeps all its bits, ends below 2**33."""
    high = limbs[:-1] >> 32
    limbs[:-1] &= 0xFFFFFFFF
    limbs[1:] += high


def _total(limbs: np.ndarray) -> int:
    """The sum of every count in ``limbs``; its carry keeps each row's sum
    inside 64 bits."""
    _carry(limbs)
    return sum(int(row) << 32 * k
               for k, row in enumerate(limbs.sum(axis=1).tolist()))


def hitting_time_oracle(n: int) -> Fraction:
    """P(a simple symmetric walk from 0 stays below 2 for 2n steps).

    Pure path-counting DP over positions <= 1; no closed form involved.
    After step ``t``, column ``1 + k`` holds the surviving paths at position
    ``2k - t`` in 32-bit limbs, one per row of ``n + 3`` columns.  A step
    is one add over the flat rows in use: their column 0 and last column
    are zero, so no row mixes with the next.  It at most doubles a limb,
    hence a carry every 30 steps; the counts stay below ``2**(t+1)``, so
    the rows in use grow with ``t`` and the top one never carries out.
    """
    _check_exact_range(n)
    counts = np.zeros((2 * n // 32 + 1, n + 3), dtype=np.uint64)
    nxt = counts.copy()
    flat, nxt_flat = counts.reshape(-1), nxt.reshape(-1)
    counts[0, 1] = 1  # position 0
    for t in range(2 * n):
        rows = (t + 1) // 32 + 1
        end = rows * (n + 3)
        # from q - 1 (up) and from q + 1 (down)
        np.add(flat[:end - 1], flat[1:end], out=nxt_flat[1:end])
        nxt[:rows, t // 2 + 3] = 0  # position 2: kill the paths there
        counts, nxt, flat, nxt_flat = nxt, counts, nxt_flat, flat
        if t % 30 == 29:
            _carry(counts[:rows])
    return Fraction(_total(counts), 4 ** n)


def interface_walk_oracle(n: int) -> Fraction:
    """Survival probability at step ``n`` of the lazy walk that steps
    -1, 0, +1 with probabilities 1/4, 1/2, 1/4, started at 1 and absorbed
    at 0: the interface walk of the coalescing model.

    Exact DP over the reachable positions, weighted in quarters: column
    ``p`` holds the surviving weight at position ``p`` in 32-bit limbs, one
    per row of ``n + 2`` columns.  The weights 1, 2, 1 are two neighbour
    sums, each one add over the flat rows in use; column 0, zeroed after
    each step, absorbs the walk and keeps each row apart from the next.
    A step at most quadruples a limb, hence a carry every 15 steps; the
    weights stay below ``4**(t+1)`` after step ``t``, so the rows in use
    grow with ``t`` and the top one never carries.
    """
    _check_exact_range(n)
    weights = np.zeros((n // 16 + 1, n + 2), dtype=np.uint64)
    flat, pairs = weights.reshape(-1), np.zeros(weights.size, np.uint64)
    weights[0, 1] = 1
    for t in range(n):
        rows = (t + 1) // 16 + 1
        end = rows * (n + 2)
        np.add(flat[:end - 1], flat[1:end], out=pairs[:end - 1])
        np.add(pairs[:end - 1], pairs[1:end], out=flat[1:end])
        weights[:rows, 0] = 0
        if t % 15 == 14:
            _carry(weights[:rows])
    return Fraction(_total(weights), 4 ** n)


def asymptotic_ratio(n: int) -> float:
    """density_log(n) relative to its large-n limit shape 2/sqrt(pi*n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return density_log(n) * math.sqrt(math.pi * n) / 2.0


@dataclass(frozen=True)
class DensityReport:
    """One density measurement: exact value when known, plus the estimate."""

    model: str
    init: str
    n: int
    exact: Fraction | None
    mc_estimate: float
    mc_halfwidth: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        """CSV/JSON schema fields in column order, the exact rational split
        into integers.  A halfwidth that is not finite (one trial has no
        spread) is ``None``: JSON ``null``, an empty CSV cell."""
        exact, hw = self.exact, self.mc_halfwidth
        return {"n": self.n,
                "exact_num": None if exact is None else exact.numerator,
                "exact_den": None if exact is None else exact.denominator,
                "approx": None if exact is None else float(exact),
                "estimate": self.mc_estimate,
                "halfwidth": hw if math.isfinite(hw) else None,
                "trials": self.trials, "seed": self.seed}


def _summarize(per_trial: np.ndarray) -> tuple[float, float]:
    est = float(per_trial.mean())
    if per_trial.size < 2:
        return est, math.inf
    sd = float(per_trial.std(ddof=1))
    return est, Z95 * sd / math.sqrt(per_trial.size)


def _chunks(trials: int, words_per_trial: int):
    """``(lo, hi)`` trial ranges of at most ``packed.CHUNK_WORDS`` words."""
    size = max(1, packed.CHUNK_WORDS // words_per_trial)
    for lo in range(0, trials, size):
        yield lo, min(lo + size, trials)


def _full_plane(trials: int, n_words: int) -> np.ndarray:
    return np.full((n_words, trials), np.uint64(0xFFFFFFFFFFFFFFFF))


def _iid_plane(seed: int, trials_arr: np.ndarray, n_words: int, width: int,
               p: float) -> np.ndarray:
    if p == 0.5:
        return packed.batch_cell_words(seed, trials_arr, n_words)
    sites = np.arange(width, dtype=np.int64)
    plane = np.empty((n_words, trials_arr.size), dtype=np.uint64)
    for lo, hi in _chunks(trials_arr.size, width):
        words = stream.block_bits_vec(seed, trials_arr[lo:hi, None], 0,
                                      sites[None, :], stream.DOMAIN_UNIFORM)
        bits = ((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53) < p
        plane[:, lo:hi] = packed.pack_bits(bits.astype(np.uint8)).T
    return plane


def _run_batch(model: Model, seed: int, trials: int, sites_per_trial: int,
               n: int, init: Callable[..., tuple[np.ndarray, ...]],
               stat: Callable[..., np.ndarray]) -> np.ndarray:
    """Run ``trials`` Monte Carlo trials of ``model`` for ``n`` steps and
    return the concatenated per-trial rows of ``stat``.

    A trial is a window anchored at site 0 and ``n + sites_per_trial + 1``
    cells wide, so that its cells ``n ..`` stay valid for ``n`` steps.
    Trials run in chunks of at most ``packed.CHUNK_WORDS`` words:
    ``init(ids, n_words, width)`` builds the word-major ``(n_words,
    len(ids))`` planes of trial ids ``ids``, :func:`packed.run_planes`
    steps them, and ``stat(lo, hi, *planes)`` reduces the stepped planes,
    still packed and trimmed, whose cells ``lo .. hi-1`` are the valid
    ones, to one row per trial before the next chunk starts, so only those
    rows grow with ``trials``.
    """
    if trials < 1 or sites_per_trial < 1 or n < 0:
        raise ValueError("need trials >= 1, sites_per_trial >= 1, n >= 0")
    width = n + sites_per_trial + 1
    n_words = packed.words_for(width)
    rows = []
    for lo, hi in _chunks(trials, n_words):
        ids = np.arange(lo, hi, dtype=np.int64)
        run = packed.run_planes(model, init(ids, n_words, width), seed, ids, n)
        # keep no step's yield: it would hold that step's planes and draw on
        deque(itertools.islice(run, n), maxlen=0)
        [(planes, _, base)] = run  # the last yield, and the end of the run
        rows.append(stat(n - 64 * base, width - 64 * base, *planes))
    return np.concatenate(rows)


#: ``(model, init) -> (lag, divisor)``: the estimate's exact value is
#: ``d(n - lag) / divisor``, and 1 at ``n < lag``.
_EXACT = {("c", "full"): (0, 1), ("b", "full"): (1, 2),
          ("b", "iid(0.5)"): (0, 2), ("a", "uniform"): (0, 2),
          ("a", "ones"): (1, 2), ("a", "zeros"): (1, 2)}


def _report(model: str, init: str, n: int, per_trial: np.ndarray,
            seed: int) -> DensityReport:
    exact: Fraction | None = None
    if (model, init) in _EXACT:
        lag, divisor = _EXACT[model, init]
        if n < lag:
            exact = Fraction(1)
        elif n - lag <= EXACT_LIMIT:
            exact = exact_density(n - lag) / divisor
    return DensityReport(model, init, n, exact, *_summarize(per_trial),
                         per_trial.size, seed)


def mc_density(model: Model | str, init: str, n: int, trials: int, seed: int,
               sites_per_trial: int = 64, p: float = 0.5) -> DensityReport:
    """Monte Carlo occupancy density for the particle models ``b``/``c``.

    ``init`` is ``"full"`` or ``"iid"`` (each site occupied independently
    with probability ``p``).  Trials are independent substreams; the
    confidence halfwidth comes from the between-trial variance only, since
    sites within one trial are correlated.
    """
    model = Model(model)
    if model not in (Model.B, Model.C):
        raise ValueError("density estimation applies to models b and c")
    if not 0.0 <= p <= 1.0:
        raise ValueError("occupancy probability must lie in [0, 1]")
    if init == "full":
        def planes(ids, n_words, width):
            return (_full_plane(ids.size, n_words),)
    elif init == "iid":
        def planes(ids, n_words, width):
            return (_iid_plane(seed, ids, n_words, width, p),)
    else:
        raise ValueError(f"unknown init {init!r}")
    per_trial = _run_batch(
        model, seed, trials, sites_per_trial, n, planes,
        lambda lo, hi, x: packed.count_cells(x, lo, hi) / (hi - lo))
    return _report(model.value, init if init == "full" else f"iid({p})", n,
                   per_trial, seed)


def mc_pair_statistic_A(init: str, n: int, trials: int, seed: int,
                        sites_per_trial: int = 64) -> DensityReport:
    """Monte Carlo estimate of P(adjacent output cells agree) for model ``a``.

    ``init`` is ``"uniform"``, ``"ones"``, ``"zeros"``, or a 0/1 word tiled
    across the window.
    """
    word = {"ones": "1", "zeros": "0"}.get(init, init)
    if init == "uniform":
        def planes(ids, n_words, width):
            return (packed.batch_cell_words(seed, ids, n_words),)
    elif word and all(ch in "01" for ch in word):
        bits = np.array([int(ch) for ch in word], dtype=np.uint8)

        def planes(ids, n_words, width):
            row = packed.pack_bits(np.resize(bits, width))
            return (np.broadcast_to(row[:, None], (n_words, ids.size)),)
    else:
        raise ValueError(f"unknown init {init!r}")
    per_trial = _run_batch(  # cell c agrees with c - 1 on a 0 xor bit
        Model.A, seed, trials, sites_per_trial, n, planes, lambda lo, hi, x:
        packed.count_cells(~(x ^ packed.from_left(x)), lo + 1, hi)
        / (hi - lo - 1))
    return _report("a", init, n, per_trial, seed)


def color_density_batch(n: int, trials: int, seed: int,
                        sites_per_trial: int = 64
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial occupied and blue counts over the ``sites_per_trial + 1``
    valid cells of the colored model, from full occupancy with i.i.d. fair
    colors."""
    def planes(ids, n_words, width):
        return (_full_plane(ids.size, n_words),
                packed.batch_cell_words(seed, ids, n_words,
                                        stream.DOMAIN_COLOR))

    counts = _run_batch(Model.D, seed, trials, sites_per_trial, n, planes,
                        lambda lo, hi, occ, blue: np.stack(
                            (packed.count_cells(occ, lo, hi),
                             packed.count_cells(blue, lo, hi)), axis=-1))
    return counts[:, 0], counts[:, 1]
