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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import a_local, b_local, c_local
from .stream import RIGHT, UP

#: Largest number of words a window may span (2**20 matches a length-20
#: binary window).  ``evolve-cylinder --model a --init uniform --length 20``
#: takes 3.2 s and 134 MB peak RSS on a 2-vCPU Xeon VM: 0.15 s to build and
#: evolve the measure, about 3 s to print its 2**19 lines.  Each further site
#: doubles both, so larger windows are refused before any weight is built.
STATE_CAP = 2 ** 20


def _encode(alphabet: tuple, word: tuple) -> int:
    """Mixed-radix code of a word; the leftmost site is least significant."""
    base, idx = len(alphabet), 0
    for j in reversed(range(len(word))):
        idx = idx * base + alphabet.index(word[j])
    return idx


def _decode(alphabet: tuple, length: int, idx: int) -> tuple:
    base, out = len(alphabet), []
    for _ in range(length):
        idx, digit = divmod(idx, base)
        out.append(alphabet[digit])
    return tuple(out)


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
        if tuple(sorted(self.neighborhood)) != self.neighborhood:
            raise ValueError("neighborhood offsets must be sorted and distinct")
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


def model_a_rule() -> TransitionFunction:
    """The binary keep/switch rule on neighborhood {-1, 0}.

    Each row is ``lattice.a_local`` read off under a fair arrow.
    """
    alphabet = ("0", "1")
    half = Fraction(1, 2)
    rows = {}
    for left in alphabet:
        for cell in alphabet:
            probs = [Fraction(0), Fraction(0)]
            for arrow in (UP, RIGHT):
                probs[a_local(int(left), int(cell), arrow)] += half
            rows[(left, cell)] = tuple(probs)
    return TransitionFunction(alphabet, (-1, 0), rows)


def lift_model(which: str) -> TransitionFunction:
    """Present model ``b`` or ``c`` as a genuine PCA on symbol-arrow pairs.

    Symbols are two characters: occupancy ('.' or '#') then the arrow that
    will drive the *next* update ('u' or 'r').  The new occupancy is the
    deterministic local rule read off the neighborhood's arrows; the new
    arrow component is a fresh fair coin, so every entry is 0 or 1/2.
    """
    local = {"b": b_local, "c": c_local}.get(which)
    if local is None:
        raise ValueError("which must be 'b' or 'c'")
    alphabet = tuple(occ + arr for occ in ".#" for arr in "ur")
    half = Fraction(1, 2)
    rows = {}
    for left in alphabet:
        for right in alphabet:
            occ = local(int(left[0] == "#"), int(right[0] == "#"),
                        RIGHT if left[1] == "r" else UP,
                        RIGHT if right[1] == "r" else UP)
            glyph = "#" if occ else "."
            rows[(left, right)] = tuple(
                half if s.startswith(glyph) else Fraction(0) for s in alphabet)
    return TransitionFunction(alphabet, (-1, 0), rows)


def _integers(ratios) -> tuple[list[int], int]:
    """Integer numerators of ``ratios`` over their least common denominator."""
    ratios = [Fraction(r) for r in ratios]
    den = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (den // r.denominator) for r in ratios], den


def _dtype(bound: int):
    """``int64`` for values that stay at most ``bound``, if it fits."""
    return np.int64 if bound < 2 ** 63 else object


class CylinderMeasure:
    """Exact distribution over the words of a contiguous site window.

    ``numerators[i] / den`` is the probability of the word whose
    mixed-radix code is ``i``: the symbol at site ``start + j`` contributes
    its alphabet index times ``len(alphabet)**j``.  Both are reduced by
    their gcd, so equal measures compare equal; the numerators are
    ``int64`` if ``den`` fits, Python integers otherwise.  ``weights`` are
    rationals, or integer numerators over ``den`` when it is given.
    """

    def __init__(self, alphabet: tuple, start: int, length: int, weights,
                 den: int | None = None):
        states = _check_cap(alphabet, length)
        if den is None:
            weights, den = _integers(weights)
        # numpy would read a list with an int past 2**63 as float64
        num = (weights if isinstance(weights, np.ndarray)
               else np.array(weights, dtype=object))
        if num.shape != (states,):
            raise ValueError("weight vector has wrong length")
        exact = int(num.max()) * states < 2 ** 63  # an int64 sum cannot wrap
        if (den < 1 or num.min() < 0
                or num.sum(dtype=None if exact else object) != den):
            raise ValueError("weights must be nonnegative and sum to 1")
        g = math.gcd(int(np.gcd.reduce(num)), den)
        self.alphabet, self.start, self.length = alphabet, start, length
        self.den = den // g
        self.numerators = (num // g).astype(_dtype(self.den))
        self.numerators.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, CylinderMeasure)
                and (self.alphabet, self.start, self.length, self.den)
                == (other.alphabet, other.start, other.length, other.den)
                and np.array_equal(self.numerators, other.numerators))

    def __repr__(self) -> str:
        return (f"CylinderMeasure({self.alphabet!r}, {self.start}, "
                f"{self.length}, {self.numerators.tolist()}, {self.den})")

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every word's probability, in code order."""
        return tuple(Fraction(v, self.den) for v in self.numerators.tolist())

    def weight(self, word: tuple) -> Fraction:
        if len(word) != self.length:
            raise ValueError("word length does not match the window")
        idx = _encode(self.alphabet, word)
        return Fraction(int(self.numerators[idx]), self.den)

    def items(self):
        """Yield (word, weight) over the support."""
        for idx, v in enumerate(self.numerators.tolist()):
            if v:
                yield (_decode(self.alphabet, self.length, idx),
                       Fraction(v, self.den))

    @staticmethod
    def delta(alphabet: tuple, start: int, word) -> "CylinderMeasure":
        word = tuple(word)
        num = np.zeros(_check_cap(alphabet, len(word)), dtype=np.int64)
        num[_encode(alphabet, word)] = 1
        return CylinderMeasure(alphabet, start, len(word), num, 1)

    @staticmethod
    def product(alphabet: tuple, start: int, site_dists) -> "CylinderMeasure":
        """Independent sites; ``site_dists[j]`` aligns with ``alphabet``."""
        sites = [_integers(dist) for dist in site_dists]
        _check_cap(alphabet, len(sites))
        if any(len(num) != len(alphabet) or sum(num) != d for num, d in sites):
            raise ValueError("each site distribution must align with the "
                             "alphabet and sum to 1")
        den = math.prod(d for _, d in sites)
        num = np.ones(1, dtype=_dtype(den))
        for site, _ in sites:  # site j is the (j+1)-th fastest digit
            num = np.multiply.outer(np.array(site, dtype=num.dtype),
                                    num).ravel()
        return CylinderMeasure(alphabet, start, len(sites), num, den)

    @staticmethod
    def uniform(alphabet: tuple, start: int, length: int) -> "CylinderMeasure":
        share = Fraction(1, len(alphabet))
        return CylinderMeasure.product(alphabet, start,
                                       [(share,) * len(alphabet)] * length)

    @staticmethod
    def mixture(parts) -> "CylinderMeasure":
        """Convex combination of measures on the same window."""
        parts = [(mu, Fraction(coeff)) for mu, coeff in parts]
        window = {(mu.alphabet, mu.start, mu.length) for mu, _ in parts}
        if len(window) != 1:
            raise ValueError("mixture components must share the window")
        den = math.lcm(*(mu.den * c.denominator for mu, c in parts))
        num = sum(mu.numerators.astype(object)
                  * (c.numerator * (den // (mu.den * c.denominator)))
                  for mu, c in parts)
        return CylinderMeasure(*window.pop(), num, den)


def alternating_pair_measure(start: int, length: int) -> CylinderMeasure:
    """The even mixture of the two alternating binary words on a window."""
    return CylinderMeasure.mixture(
        (CylinderMeasure.delta(("0", "1"), start,
                               ["01"[(start + j + s) % 2]
                                for j in range(length)]), Fraction(1, 2))
        for s in (0, 1))


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
    table = np.empty((base ** span, base, base), dtype=object)
    for low in range(base ** span):
        for x in range(base):
            digits = (x,) + _decode(range(base), span, low)
            row = f.rows[tuple(f.alphabet[digits[v - lo]]
                               for v in f.neighborhood)]
            table[low, :, x] = [p.numerator * (den // p.denominator)
                                for p in row]
    return table, den


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
    span = f.neighborhood[-1] - f.neighborhood[0]
    table, row_den = _transfer(f)
    # After k sites the numerators sum to mu.den * row_den**k, and every
    # entry is a sum of nonnegative terms, so none exceeds the final den.
    den = mu.den * row_den ** length
    dtype = _dtype(den)
    table, state = table.astype(dtype), mu.numerators.astype(dtype)
    for k in range(length):
        state = np.matmul(table, state.reshape(
            base ** (mu.length - k - 1 - span), base ** span, base, base ** k))
    state = state.reshape(base ** span, base ** length).sum(axis=0)
    return CylinderMeasure(f.alphabet, start, length, state, den)


def marginal(mu: CylinderMeasure, start: int, length: int) -> CylinderMeasure:
    """Sum out every site outside the contiguous sub-window."""
    if not (mu.start <= start and start + length <= mu.end and length >= 1):
        raise ValueError("marginal window must sit inside the measure window")
    base, lo = len(mu.alphabet), start - mu.start
    num = mu.numerators.reshape(base ** (mu.length - lo - length),
                                base ** length, base ** lo).sum(axis=(0, 2))
    return CylinderMeasure(mu.alphabet, start, length, num, mu.den)


def pushforward(mu: CylinderMeasure, symbol_map,
                alphabet: tuple) -> CylinderMeasure:
    """Image measure under a pointwise symbol relabeling."""
    out = [0] * len(alphabet) ** mu.length
    for idx, v in enumerate(mu.numerators.tolist()):
        if v:
            word = _decode(mu.alphabet, mu.length, idx)
            word = tuple(symbol_map(s) for s in word)
            out[_encode(alphabet, word)] += v
    return CylinderMeasure(alphabet, mu.start, mu.length, out, mu.den)


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
        word_part, probs_part = line.split(":", 1)
        word = tuple(word_part.strip())
        if len(word) != len(neighborhood):
            raise ValueError(f"word {word_part.strip()!r} has wrong length")
        if word in rows:
            raise ValueError(f"word {word_part.strip()!r} is listed twice")
        rows[word] = tuple(Fraction(t) for t in probs_part.split())
    if alphabet is None or neighborhood is None:
        raise ValueError("rule file must declare alphabet and neighborhood")
    return TransitionFunction(alphabet, neighborhood, rows)


def load_rule_file(path) -> TransitionFunction:
    with open(path, encoding="utf-8") as fh:
        return load_rule_text(fh.read())


def dump_rule_text(f: TransitionFunction) -> str:
    """Serialize a table whose symbols are single characters."""
    if any(not isinstance(s, str) or len(s) != 1 for s in f.alphabet):
        raise ValueError("only single-character alphabets serialize to text")
    lines = [f"alphabet: {' '.join(f.alphabet)}",
             f"neighborhood: {' '.join(str(v) for v in f.neighborhood)}"]
    for word in sorted(f.rows):
        probs = " ".join(str(p) for p in f.rows[word])
        lines.append(f"{''.join(word)} : {probs}")
    return "\n".join(lines) + "\n"
