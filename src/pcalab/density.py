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

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from . import packed, stream
from .lattice import Model

EXACT_LIMIT = 512
LOG_LIMIT = 10 ** 7  # density_log sums one log per factor, linear in n
_Z95 = 1.96  # normal quantile behind every 95% halfwidth


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


def hitting_time_oracle(n: int) -> Fraction:
    """P(a simple symmetric walk from 0 stays below 2 for 2n steps).

    Pure path-counting DP over positions <= 1; no closed form involved.
    ``counts[i]`` is the number of surviving paths at position ``lo + i``,
    where ``lo`` drops by one per step and the last entry is position 1.
    """
    _check_exact_range(n)
    counts = [1, 0]  # positions 0 and 1
    for _ in range(2 * n):
        # from q - 1 (up) and from q + 1 (down); q = 2 is killed
        counts = list(map(add, [0, 0] + counts[:-1], counts + [0]))
    return Fraction(sum(counts), 4 ** n)


@dataclass(frozen=True)
class WalkSpec:
    """A lazy +-1 walk: step law, start, and absorbing barrier.

    The default is the interface walk of the coalescing model: steps
    -1, 0, +1 with weights 1/4, 1/2, 1/4, started at 1 and killed at 0.
    """

    step_law: tuple[tuple[int, Fraction], ...] = (
        (-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4)))
    start: int = 1
    barrier: int = 0

    def __post_init__(self):
        if sum(w for _, w in self.step_law) != 1:
            raise ValueError("step-law weights must sum to 1")
        if any(w < 0 for _, w in self.step_law):
            raise ValueError("step-law weights must be nonnegative")
        if self.start <= self.barrier:
            raise ValueError("walk must start above the absorbing barrier")


def interface_walk_oracle(n: int, spec: WalkSpec = WalkSpec()) -> Fraction:
    """Survival probability at step ``n`` of the absorbed lazy walk.

    Exact DP over the positions ``barrier + 1 ..`` that the walk can reach;
    the common denominator of the step law keeps all weights integral.
    """
    _check_exact_range(n)
    denom = math.lcm(*(w.denominator for _, w in spec.step_law))
    moves = [(delta, int(w * denom)) for delta, w in spec.step_law if w]
    up = max(0, *(delta for delta, _ in moves))
    weights = np.zeros(spec.start - spec.barrier, dtype=object)
    weights[-1] = 1  # index i is position barrier + 1 + i
    for _ in range(n):
        nxt = np.zeros(weights.size + up, dtype=object)
        for delta, m in moves:  # steps onto the barrier or below die
            src = weights[max(0, -delta):]
            nxt[max(0, delta):max(0, delta) + src.size] += src * m
        weights = nxt
    return Fraction(int(weights.sum()), denom ** n)


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
    approx: float | None
    mc_estimate: float
    mc_halfwidth: float
    trials: int
    sites_per_trial: int
    seed: int


def _summarize(per_trial: np.ndarray) -> tuple[float, float]:
    est = float(per_trial.mean())
    if per_trial.size < 2:
        return est, math.inf
    sd = float(per_trial.std(ddof=1))
    return est, _Z95 * sd / math.sqrt(per_trial.size)


#: Trial-chunk budget in uint64 words: a Monte Carlo batch runs
#: ``CHUNK_WORDS // words_per_trial`` trials at a time, which keeps one
#: step's temporaries cache-sized and bounds them whatever the trial count.
CHUNK_WORDS = 1 << 15


def _chunks(trials: int, words_per_trial: int):
    """``(lo, hi)`` trial ranges of at most ``CHUNK_WORDS`` words each."""
    size = max(1, CHUNK_WORDS // words_per_trial)
    for lo in range(0, trials, size):
        yield lo, min(lo + size, trials)


def _full_plane(trials: int, n_words: int) -> np.ndarray:
    return np.full((n_words, trials), np.uint64(0xFFFFFFFFFFFFFFFF))


def _iid_plane(seed: int, trials_arr: np.ndarray, n_words: int, width: int,
               p: float, domain: int) -> np.ndarray:
    if p == 0.5:
        return packed.batch_cell_words(seed, trials_arr, n_words, domain)
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
    Trials run in chunks of at most ``CHUNK_WORDS`` words.  Each chunk is
    built by ``init(ids, n_words, width)``, which returns the model's planes
    for the trial ids ``ids``, word-major: shape ``(n_words, len(ids))``,
    row ``k`` holding word ``k`` of every trial.  The chunk is then
    stepped, and ``stat`` reduces its valid cells (one uint8 array of shape
    ``(len(ids), sites_per_trial + 1)`` per plane) to one row per trial
    before the next chunk starts, so only those rows grow with ``trials``.
    At step ``s`` the words wholly left of the valid window (below
    ``s >> 6``) are neither drawn nor stepped: they are leading rows, so the
    trimmed planes stay contiguous views, and information flows rightward
    only, so the valid cells never read them.  Every draw is a pure function
    of its coordinates, so the result is bit for bit that of stepping every
    word of every trial at once.
    """
    if trials < 1 or sites_per_trial < 1 or n < 0:
        raise ValueError("need trials >= 1, sites_per_trial >= 1, n >= 0")
    width = n + sites_per_trial + 1
    n_words = packed.words_for(width)
    rows = []
    for lo, hi in _chunks(trials, n_words):
        ids = np.arange(lo, hi, dtype=np.int64)
        planes = init(ids, n_words, width)
        base = 0  # word of the full window at column 0 of ``planes``
        for s in range(n):
            first = s >> 6
            u = packed.batch_arrow_words(seed, ids, s, n_words, first)
            planes = packed.step_planes(
                model, tuple(pl[first - base:] for pl in planes), u)
            base = first
        rows.append(stat(*(packed.unpack_bits(pl.T, width - 64 * base)
                           [:, n - 64 * base:] for pl in planes)))
    return np.concatenate(rows)


#: ``(model, init) -> (lag, divisor)``: the estimate's exact value is
#: ``d(n - lag) / divisor``, and 1 at ``n < lag``.
_EXACT = {("c", "full"): (0, 1), ("b", "full"): (1, 2),
          ("b", "iid(0.5)"): (0, 2), ("a", "uniform"): (0, 2),
          ("a", "ones"): (1, 2), ("a", "zeros"): (1, 2)}


def _report(model: str, init: str, n: int, per_trial: np.ndarray,
            seed: int, sites_per_trial: int) -> DensityReport:
    est, hw = _summarize(per_trial)
    exact: Fraction | None = None
    if (model, init) in _EXACT:
        lag, divisor = _EXACT[model, init]
        if n < lag:
            exact = Fraction(1)
        elif n - lag <= EXACT_LIMIT:
            exact = exact_density(n - lag) / divisor
    return DensityReport(model, init, n, exact,
                         None if exact is None else float(exact),
                         est, hw, per_trial.size, sites_per_trial, seed)


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
            return (_iid_plane(seed, ids, n_words, width, p,
                               stream.DOMAIN_CELL),)
    else:
        raise ValueError(f"unknown init {init!r}")
    per_trial = _run_batch(model, seed, trials, sites_per_trial, n, planes,
                           lambda cells: cells.mean(axis=1))
    return _report(model.value, init if init == "full" else f"iid({p})", n,
                   per_trial, seed, sites_per_trial)


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
    per_trial = _run_batch(
        Model.A, seed, trials, sites_per_trial, n, planes,
        lambda cells: (cells[:, :-1] == cells[:, 1:]).mean(axis=1))
    return _report("a", init, n, per_trial, seed, sites_per_trial)


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of the two-sided density bound check for model ``a``."""

    n: int
    lower: Fraction
    upper: Fraction
    reports: dict[str, DensityReport]
    failures: tuple[str, ...]

    @property
    def verdict(self) -> bool:
        return not self.failures


def check_proposition_bounds(n: int, trials: int, seed: int,
                             sites_per_trial: int = 32) -> BoundsReport:
    """Check that measured pair statistics sit inside their exact bounds.

    Every initial law must stay below the coalescing density d(n); the
    all-ones start must reach its known value d(n-1)/2.  A violation only
    counts beyond four standard errors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lower = exact_density(n - 1) / 2
    upper = exact_density(n)
    reports, failures = {}, []
    for init in ("uniform", "ones", "zeros"):
        rep = mc_pair_statistic_A(init, n, trials, seed, sites_per_trial)
        reports[init] = rep
        band = 4.0 * rep.mc_halfwidth / _Z95
        if rep.mc_estimate > float(upper) + band:
            failures.append(f"{init}: estimate {rep.mc_estimate:.6f} exceeds "
                            f"upper bound {float(upper):.6f}")
        if rep.mc_estimate < -band:
            failures.append(f"{init}: negative estimate")
        if init == "ones" and rep.mc_estimate < float(lower) - band:
            failures.append(f"ones: estimate {rep.mc_estimate:.6f} misses "
                            f"lower bound {float(lower):.6f}")
    return BoundsReport(n, lower, upper, reports, tuple(failures))


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
                        lambda occ, blue: np.stack(
                            (occ.sum(axis=1), blue.sum(axis=1)), axis=-1))
    return counts[:, 0], counts[:, 1]
