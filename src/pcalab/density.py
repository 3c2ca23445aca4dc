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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import packed, stream
from .lattice import Model

EXACT_LIMIT = 512
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
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.exp(math.fsum(
        math.log((n + 1 + k) / (4.0 * k)) for k in range(1, n + 1)))


def hitting_time_oracle(n: int) -> Fraction:
    """P(a simple symmetric walk from 0 stays below 2 for 2n steps).

    Pure path-counting DP over positions <= 1; no closed form involved.
    """
    _check_exact_range(n)
    counts = {0: 1}
    for _ in range(2 * n):
        nxt: dict[int, int] = defaultdict(int)
        for pos, c in counts.items():
            for q in (pos - 1, pos + 1):
                if q <= 1:  # paths that reach 2 are killed
                    nxt[q] += c
        counts = nxt
    return Fraction(sum(counts.values()), 4 ** n)


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

    Exact DP over the reachable states; the common denominator of the
    step law keeps all intermediate weights integral.
    """
    _check_exact_range(n)
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
    return np.full((trials, n_words), np.uint64(0xFFFFFFFFFFFFFFFF))


def _iid_plane(seed: int, trials_arr: np.ndarray, n_words: int, width: int,
               p: float, domain: int) -> np.ndarray:
    if p == 0.5:
        return packed.batch_cell_words(seed, trials_arr, n_words, domain)
    sites = np.arange(width, dtype=np.int64)
    plane = np.empty((trials_arr.size, n_words), dtype=np.uint64)
    for lo, hi in _chunks(trials_arr.size, width):
        words = stream.block_bits_vec(seed, trials_arr[lo:hi, None], 0,
                                      sites[None, :], stream.DOMAIN_UNIFORM)
        bits = ((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53) < p
        plane[lo:hi] = packed.pack_bits(bits.astype(np.uint8))
    return plane


def _word_plane(word: str, trials: int, width: int) -> np.ndarray:
    bits = np.array([int(ch) for ch in word], dtype=np.uint8)
    tiled = np.tile(bits, width // len(bits) + 1)[:width]
    return np.broadcast_to(packed.pack_bits(tiled), (trials, packed.words_for(width))).copy()


def _run_batch(model: Model, seed: int, trials: int, width: int, steps: int,
               planes: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Step ``(trials, words)`` planes ``steps`` times from site 0.

    Returns each plane's valid cells ``steps .. width-1`` as uint8 of shape
    ``(trials, width - steps)``.  Trials run in chunks, each through every
    step before the next starts.  At step ``s`` the words wholly left of
    the valid window (below ``s >> 6``) are neither drawn nor stepped:
    information flows rightward only, so the valid cells never read them.
    Every draw is a pure function of its coordinates, so the result is bit
    for bit that of stepping every word of every trial at once.
    """
    n_words = packed.words_for(width)
    out = tuple(np.empty((trials, width - steps), dtype=np.uint8)
                for _ in planes)
    for lo, hi in _chunks(trials, n_words):
        trials_arr = np.arange(lo, hi, dtype=np.int64)
        chunk = tuple(pl[lo:hi] for pl in planes)
        base = 0  # word of the full window at column 0 of ``chunk``
        for s in range(steps):
            first = s >> 6
            u = packed.batch_arrow_words(seed, trials_arr, s, n_words, first)
            chunk = packed.step_planes(
                model, tuple(pl[:, first - base:] for pl in chunk), u)
            base = first
        for dst, pl in zip(out, chunk):
            cells = packed.unpack_bits(pl, width - 64 * base)
            dst[lo:hi] = cells[:, steps - 64 * base:]
    return out


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
    if trials < 1 or sites_per_trial < 1 or n < 0:
        raise ValueError("need trials >= 1, sites_per_trial >= 1, n >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("occupancy probability must lie in [0, 1]")
    width = n + sites_per_trial + 1
    trials_arr = np.arange(trials, dtype=np.int64)
    n_words = packed.words_for(width)
    if init == "full":
        planes = (_full_plane(trials, n_words),)
    elif init == "iid":
        planes = (_iid_plane(seed, trials_arr, n_words, width, p,
                             stream.DOMAIN_CELL),)
    else:
        raise ValueError(f"unknown init {init!r}")
    bits = _run_batch(model, seed, trials, width, n, planes)[0]
    est, hw = _summarize(bits.mean(axis=1))

    exact: Fraction | None = None
    if init == "full":
        if model is Model.C:
            exact = exact_density(n) if n <= EXACT_LIMIT else None
        else:
            exact = Fraction(1) if n == 0 else (
                exact_density(n - 1) / 2 if n - 1 <= EXACT_LIMIT else None)
    elif init == "iid" and p == 0.5 and model is Model.B:
        exact = exact_density(n) / 2 if n <= EXACT_LIMIT else None
    return DensityReport(model.value, init if init == "full" else f"iid({p})",
                         n, exact, None if exact is None else float(exact),
                         est, hw, trials, sites_per_trial, seed)


def _pair_exact(init: str, n: int) -> Fraction | None:
    if init == "uniform":
        return exact_density(n) / 2 if n <= EXACT_LIMIT else None
    if init in ("ones", "zeros"):
        if n == 0:
            return Fraction(1)
        return exact_density(n - 1) / 2 if n - 1 <= EXACT_LIMIT else None
    return None


def mc_pair_statistic_A(init: str, n: int, trials: int, seed: int,
                        sites_per_trial: int = 64) -> DensityReport:
    """Monte Carlo estimate of P(adjacent output cells agree) for model ``a``.

    ``init`` is ``"uniform"``, ``"ones"``, ``"zeros"``, or a 0/1 word tiled
    across the window.
    """
    if trials < 1 or sites_per_trial < 1 or n < 0:
        raise ValueError("need trials >= 1, sites_per_trial >= 1, n >= 0")
    if init not in ("uniform", "ones", "zeros") and (
            not init or any(ch not in "01" for ch in init)):
        raise ValueError(f"unknown init {init!r}")
    width = n + sites_per_trial + 1
    trials_arr = np.arange(trials, dtype=np.int64)
    n_words = packed.words_for(width)
    if init == "uniform":
        plane = _iid_plane(seed, trials_arr, n_words, width, 0.5,
                           stream.DOMAIN_CELL)
    elif init in ("ones", "zeros"):
        plane = (_full_plane(trials, n_words) if init == "ones"
                 else np.zeros((trials, n_words), dtype=np.uint64))
    else:
        plane = _word_plane(init, trials, width)
    bits = _run_batch(Model.A, seed, trials, width, n, (plane,))[0]
    per_trial = (bits[:, :-1] == bits[:, 1:]).mean(axis=1)
    est, hw = _summarize(per_trial)
    exact = _pair_exact(init, n)
    return DensityReport("a", init, n, exact,
                         None if exact is None else float(exact),
                         est, hw, trials, sites_per_trial, seed)


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
    """Final occupancy and blue bits for the colored model from full
    occupancy with i.i.d. fair colors; shape (trials, valid cells)."""
    if trials < 1 or sites_per_trial < 1 or n < 0:
        raise ValueError("need trials >= 1, sites_per_trial >= 1, n >= 0")
    width = n + sites_per_trial + 1
    trials_arr = np.arange(trials, dtype=np.int64)
    n_words = packed.words_for(width)
    occ = _full_plane(trials, n_words)
    blue = packed.batch_cell_words(seed, trials_arr, n_words,
                                   stream.DOMAIN_COLOR)
    return _run_batch(Model.D, seed, trials, width, n, (occ, blue))
