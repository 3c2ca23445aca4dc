"""Exact evolution of probability measures on finite cylinder windows.

A transition function maps each neighborhood word to a probability vector
over the alphabet; a cylinder measure is an exact rational distribution
over the words of a contiguous site window.  One synchronous update turns
a measure on window K into a measure on the sub-window K' of sites whose
whole neighborhood lies inside K (for neighborhood {-1, 0}: K minus its
left endpoint).

Everything in this module is exact and no floating point appears: a
measure is integer numerators over one common denominator, on ``int64``
wherever that denominator bounds every value, and a ``Fraction`` is built
only where a weight is read out.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import _LOCALS, GLYPHS, Model
from .stream import RIGHT, UP

#: Largest number of words a window may span (2**20 matches a length-20
#: binary window).  ``evolve-cylinder --model a --init uniform --length 20``
#: takes about 1.5 s and 56 MB peak RSS (text or JSON) with stdout to
#: ``/dev/null`` on a 2-vCPU Xeon VM: 0.2 s to start, 0.2 s to build and
#: evolve the measure, the rest to print its 2**19 lines, one ``math.gcd``
#: each.  Each further site doubles both, so larger windows are refused
#: before any weight is built.  A rule's transfer table has one entry per
#: word of its span, never more than the window has: a binary rule file
#: with ``neighborhood: 0 19`` at length 20 runs in about 0.5 s.
STATE_CAP = 2 ** 20
_ITEMS_BLOCK = 2 ** 16  # numerators items() turns into ints at a time
_ARROWS = "ur"  # a lifted symbol's arrow glyph, by value: UP = 0, RIGHT = 1


def _check_cap(alphabet: tuple, length: int) -> int:
    if length < 1:
        raise ValueError("window must contain at least one site")
    states = len(alphabet) ** length
    if states > STATE_CAP:
        raise ValueError(f"window of {states} words exceeds the cap "
                         f"of {STATE_CAP}")
    return states


@dataclass(frozen=True)
class TransitionFunction:
    """A finite-neighborhood stochastic local rule.

    ``rows`` maps every word of ``alphabet**len(neighborhood)`` to a tuple
    of probabilities aligned with ``alphabet``; each row sums to exactly 1.
    """

    alphabet: tuple
    neighborhood: tuple[int, ...]
    rows: dict

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be nonempty without duplicates")
        nb = self.neighborhood
        if not nb or tuple(sorted(set(nb))) != nb:
            raise ValueError("neighborhood offsets must be nonempty, sorted "
                             "and distinct")
        expected = len(self.alphabet) ** len(self.neighborhood)
        if len(self.rows) != expected:
            raise ValueError(f"table must be total: expected {expected} rows, "
                             f"got {len(self.rows)}")
        for word, probs in self.rows.items():
            if len(word) != len(self.neighborhood):
                raise ValueError(f"word {word!r} has wrong length")
            if any(s not in self.alphabet for s in word):
                raise ValueError(f"word {word!r} uses foreign symbols")
            if len(probs) != len(self.alphabet):
                raise ValueError(f"row {word!r} has wrong arity")
            if any(p < 0 for p in probs) or sum(probs) != 1:
                raise ValueError(f"row {word!r} is not a probability vector")


def fair_rule(model: Model) -> TransitionFunction:
    """A model's ``lattice._LOCALS`` rule under fair arrows, on neighborhood
    {-1, 0}, over its ``lattice.GLYPHS``.

    Model ``a`` reads only its own arrow, a fresh fair coin, so its symbols
    are the bare glyphs.  A particle model also reads its left neighbour's
    arrow, so it is lifted: a symbol is a glyph then the arrow that drives
    its *next* update (``u`` or ``r``), the new glyph is the local rule read
    off both arrows, and the new arrow is a fresh fair coin.
    """
    model = Model(model)
    local, glyphs = _LOCALS[model], GLYPHS[model]
    lifted = model is not Model.A
    alphabet = (tuple(g + a for g in glyphs for a in _ARROWS) if lifted
                else tuple(glyphs))
    half = Fraction(1, 2)
    rows = {}
    for pair in itertools.product(alphabet, repeat=2):
        cells = [glyphs.index(s[0]) for s in pair]
        if lifted:
            new = glyphs[local(*cells, *(_ARROWS.index(s[1]) for s in pair))]
            out = [new + a for a in _ARROWS]
        else:
            out = [glyphs[local(*cells, arrow)] for arrow in (UP, RIGHT)]
        rows[pair] = tuple(half * out.count(s) for s in alphabet)
    return TransitionFunction(alphabet, (-1, 0), rows)


def _dtype(bound: int):
    """``int64`` for values that stay at most ``bound``, if it fits."""
    return np.int64 if bound < 2 ** 63 else object


class CylinderMeasure:
    """Exact distribution over the words of a contiguous site window.

    ``numerators[i] / den`` is the probability of the word whose
    mixed-radix code is ``i``: the symbol at site ``start + j`` contributes
    its alphabet index times ``len(alphabet)**j``.  ``weights`` holds one
    nonnegative integer numerator per word, summing to ``den``; both are
    reduced by their gcd, and the numerators are ``int64`` if ``den``
    fits, Python integers otherwise.
    """

    def __init__(self, alphabet: tuple, start: int, length: int, weights,
                 den: int):
        states = _check_cap(alphabet, length)
        # numpy would read a list with an int past 2**63 as float64
        num = (weights if isinstance(weights, np.ndarray)
               else np.array(weights, dtype=object))
        if num.shape != (states,):
            raise ValueError("weight vector has wrong length")
        exact = int(num.max()) * states < 2 ** 63  # an int64 sum cannot wrap
        if (den < 1 or num.min() < 0 or not np.array_equal(num, num // 1)
                or num.sum(dtype=None if exact else object) != den):
            raise ValueError("weights must be nonnegative integers that sum "
                             "to den")
        g = math.gcd(int(np.gcd.reduce(num)), den)
        self.alphabet, self.start, self.length = alphabet, start, length
        self.den = den // g
        self.numerators = (num // g).astype(_dtype(self.den))
        self.numerators.flags.writeable = False

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every word's probability, in code order."""
        return tuple(Fraction(v, self.den) for v in self.numerators.tolist())

    def items(self):
        """Yield (word, numerator over ``den``) over the support."""
        # product() varies its last symbol fastest, the code varies site 0
        words = itertools.product(self.alphabet, repeat=self.length)
        num = self.numerators  # converted a block at a time, not at once
        values = itertools.chain.from_iterable(
            num[lo:lo + _ITEMS_BLOCK].tolist()
            for lo in range(0, num.size, _ITEMS_BLOCK))
        for word, v in zip(words, values):
            if v:
                yield word[::-1], v

    @staticmethod
    def product(alphabet: tuple, start: int,
                site_weights) -> "CylinderMeasure":
        """Independent sites: site ``j`` holds ``alphabet[i]`` with
        probability ``site_weights[j][i]`` over that site's total.  The
        weights are nonnegative integers, not all zero at any site; a
        one-hot site fixes its symbol."""
        sites = [tuple(w) for w in site_weights]
        _check_cap(alphabet, len(sites))
        if any(len(w) != len(alphabet) or min(w) < 0 or sum(w) < 1
               for w in sites):
            raise ValueError("each site's weights must align with the "
                             "alphabet, be nonnegative and not all zero")
        den = math.prod(map(sum, sites))
        num = np.ones(1, dtype=_dtype(den))
        for w in sites:  # site j is the (j+1)-th fastest digit
            num = np.multiply.outer(np.array(w, dtype=num.dtype), num).ravel()
        return CylinderMeasure(alphabet, start, len(sites), num, den)

    @staticmethod
    def uniform(alphabet: tuple, start: int, length: int) -> "CylinderMeasure":
        return CylinderMeasure.product(alphabet, start,
                                       [(1,) * len(alphabet)] * length)


def alternating_pair_measure(start: int, length: int) -> CylinderMeasure:
    """The even mixture of the two alternating binary words on a window."""
    alphabet = ("0", "1")
    num = np.zeros(_check_cap(alphabet, length), dtype=np.int64)
    for s in (0, 1):
        num[sum((start + j + s) % 2 << j for j in range(length))] = 1
    return CylinderMeasure(alphabet, start, length, num, 2)


def output_window(mu: CylinderMeasure,
                  f: TransitionFunction) -> tuple[int, int]:
    """Window (start, length) whose neighborhoods fit inside ``mu``'s."""
    lo = mu.start - f.neighborhood[0]
    hi = mu.end - 1 - f.neighborhood[-1]
    if hi < lo:
        raise ValueError("window too small for the neighborhood")
    return lo, hi - lo + 1


def _transfer(f: TransitionFunction) -> tuple[np.ndarray, int]:
    """Integer transfer tensor of ``f`` and its common row denominator.

    Entry ``[low, y, x]`` is the probability, times the denominator, that a
    site emits symbol index ``y`` when the leftmost site of its neighborhood
    span holds ``x`` and the next ``span`` sites have mixed-radix code
    ``low``.
    """
    base, lo = len(f.alphabet), f.neighborhood[0]
    span = f.neighborhood[-1] - lo
    den = math.lcm(*(p.denominator for row in f.rows.values() for p in row))
    words = itertools.product(f.alphabet, repeat=len(f.neighborhood))
    rows = np.array([[p.numerator * (den // p.denominator) for p in f.rows[w]]
                     for w in words], dtype=object)
    # each span code's row: product() makes the last neighbor the low digit
    code = np.arange(base ** (span + 1))
    word = sum(code // base ** (v - lo) % base * base ** j
               for j, v in enumerate(reversed(f.neighborhood)))
    return (rows[word].reshape(base ** span, base, base).transpose(0, 2, 1),
            den)


def evolve_measure(mu: CylinderMeasure,
                   f: TransitionFunction) -> CylinderMeasure:
    """One exact synchronous update of a cylinder measure.

    Sweeps the output sites left to right over one integer vector whose
    digits are the output symbols emitted so far followed by the input
    symbols not yet read.  Output site ``k`` weighs the inputs ``k .. k +
    span`` it reads, writes its symbol in place of input ``k``, which no
    later site reads, and sums that input out; the ``span`` inputs left
    over at the end are summed out too.
    """
    if mu.alphabet != f.alphabet:
        raise ValueError("measure and transition function disagree on the "
                         "alphabet")
    start, length = output_window(mu, f)
    base = len(f.alphabet)
    table, row_den = _transfer(f)  # one [y, x] block per span code
    # After k sites the numerators sum to mu.den * row_den**k, and every
    # entry is a sum of nonnegative terms, so none exceeds the final den.
    den = mu.den * row_den ** length
    dtype = _dtype(den)
    table, state = table.astype(dtype), mu.numerators.astype(dtype)
    for k in range(length):
        state = np.matmul(table, state.reshape(-1, len(table), base, base ** k))
    state = state.reshape(len(table), base ** length).sum(axis=0)
    return CylinderMeasure(f.alphabet, start, length, state, den)


def marginal(mu: CylinderMeasure, start: int, length: int) -> CylinderMeasure:
    """Sum out every site outside the contiguous sub-window."""
    if not (mu.start <= start and start + length <= mu.end and length >= 1):
        raise ValueError("marginal window must sit inside the measure window")
    base, lo = len(mu.alphabet), start - mu.start
    num = mu.numerators.reshape(base ** (mu.length - lo - length),
                                base ** length, base ** lo).sum(axis=(0, 2))
    return CylinderMeasure(mu.alphabet, start, length, num, mu.den)


def total_variation(mu: CylinderMeasure, nu: CylinderMeasure) -> Fraction:
    if (mu.alphabet, mu.start, mu.length) != (nu.alphabet, nu.start, nu.length):
        raise ValueError("total variation needs measures on the same window")
    den = math.lcm(mu.den, nu.den)
    dtype = _dtype(2 * den)  # the absolute differences sum to at most 2 den
    diff = (mu.numerators.astype(dtype) * (den // mu.den)
            - nu.numerators.astype(dtype) * (den // nu.den))
    return Fraction(int(np.abs(diff).sum()), 2 * den)


def invariance_residual(mu: CylinderMeasure,
                        f: TransitionFunction) -> Fraction:
    """Total-variation gap between one update of ``mu`` and ``mu`` itself
    restricted to the output window; 0 certifies invariance on the window."""
    evolved = evolve_measure(mu, f)
    return total_variation(evolved, marginal(mu, evolved.start, evolved.length))


def load_rule_text(text: str) -> TransitionFunction:
    """Parse the plain-text transition table format.

    Lines: ``alphabet: <single-char symbols>``, ``neighborhood: <ints>``,
    then one ``<word> : p/q p/q ...`` row per neighborhood word, with
    probabilities aligned to the alphabet order.  Lines starting with
    ``//`` are comments; ``#`` stays usable as a symbol glyph.
    """
    alphabet: tuple | None = None
    neighborhood: tuple[int, ...] | None = None
    rows = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("alphabet:"):
            symbols = line.split(":", 1)[1].split()
            if any(len(s) != 1 for s in symbols):
                raise ValueError("rule-file symbols must be single characters")
            alphabet = tuple(symbols)
            continue
        if line.startswith("neighborhood:"):
            neighborhood = tuple(int(t) for t in line.split(":", 1)[1].split())
            continue
        if alphabet is None or neighborhood is None:
            raise ValueError("alphabet and neighborhood must precede the rows")
        if ":" not in line:
            raise ValueError(f"malformed row {raw!r}")
        name, probs = (part.strip() for part in line.split(":", 1))
        word = tuple(name)
        if len(word) != len(neighborhood):
            raise ValueError(f"word {name!r} has wrong length")
        if word in rows:
            raise ValueError(f"word {name!r} is listed twice")
        tokens = probs.split()  # checked before any Fraction is built
        if not all(re.fullmatch(r"[0-9]+(/[0-9]+)?", t) for t in tokens):
            raise ValueError(f"row {name!r} holds a probability that is "
                             "neither an integer nor p/q")
        try:
            rows[word] = tuple(map(Fraction, tokens))
        except ZeroDivisionError:
            raise ValueError(f"row {name!r} has a zero denominator") from None
    if alphabet is None or neighborhood is None:
        raise ValueError("rule file must declare alphabet and neighborhood")
    return TransitionFunction(alphabet, neighborhood, rows)


def load_rule_file(path) -> TransitionFunction:
    with open(path, encoding="utf-8") as fh:
        return load_rule_text(fh.read())
