"""Exact evolution of probability measures on finite cylinder windows.

A transition function maps each neighborhood word to a probability vector
over the alphabet; a cylinder measure is an exact rational distribution
over the words of a contiguous site window.  One synchronous update turns
a measure on window K into a measure on the sub-window K' of sites whose
whole neighborhood lies inside K (for neighborhood {-1, 0}: K minus its
left endpoint).

Everything in this module is exact: weights are ``fractions.Fraction``
and no floating point appears.  ``evolve_measure`` works on integer
numerators over one common denominator and builds a ``Fraction`` only once
per output word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import a_local, b_local, c_local
from .stream import RIGHT, UP

#: Largest number of words a window may span (2**20 matches a length-20
#: binary window).  Evolving the uniform binary measure at the cap
#: (``evolve-cylinder --length 20``) takes about 16 s and 210 MB peak RSS on
#: a 2-vCPU Xeon VM, and each further site doubles both, so larger
#: windows are refused before any weight is built.
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

    def distribution(self, word: tuple) -> tuple[Fraction, ...]:
        return self.rows[word]


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


@dataclass(frozen=True)
class CylinderMeasure:
    """Exact distribution over the words of a contiguous site window.

    ``weights[i]`` is the probability of the word whose mixed-radix code is
    ``i``: the symbol at site ``start + j`` contributes its alphabet index
    times ``len(alphabet)**j``.
    """

    alphabet: tuple
    start: int
    length: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        states = _check_cap(self.alphabet, self.length)
        if len(self.weights) != states:
            raise ValueError("weight vector has wrong length")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise ValueError("weights must be nonnegative and sum to 1")

    @property
    def end(self) -> int:
        return self.start + self.length

    def encode(self, word: tuple) -> int:
        if len(word) != self.length:
            raise ValueError("word length does not match the window")
        return _encode(self.alphabet, word)

    def decode(self, idx: int) -> tuple:
        return _decode(self.alphabet, self.length, idx)

    def weight(self, word: tuple) -> Fraction:
        return self.weights[self.encode(word)]

    def items(self):
        """Yield (word, weight) over the support."""
        for idx, w in enumerate(self.weights):
            if w:
                yield self.decode(idx), w

    @staticmethod
    def delta(alphabet: tuple, start: int, word) -> "CylinderMeasure":
        word = tuple(word)
        _check_cap(alphabet, len(word))
        idx = _encode(alphabet, word)
        return CylinderMeasure(alphabet, start, len(word),
                               _one_hot(len(alphabet) ** len(word), idx))

    @staticmethod
    def product(alphabet: tuple, start: int, site_dists) -> "CylinderMeasure":
        """Independent sites; ``site_dists[j]`` aligns with ``alphabet``."""
        site_dists = list(site_dists)
        _check_cap(alphabet, len(site_dists))
        weights = [Fraction(1)]
        for dist in site_dists:
            if len(dist) != len(alphabet) or sum(dist) != 1:
                raise ValueError("each site distribution must align with the "
                                 "alphabet and sum to 1")
            weights = [w * p for p in dist for w in weights]
        return CylinderMeasure(alphabet, start, len(site_dists),
                               tuple(weights))

    @staticmethod
    def uniform(alphabet: tuple, start: int, length: int) -> "CylinderMeasure":
        share = Fraction(1, len(alphabet))
        return CylinderMeasure.product(alphabet, start,
                                       [(share,) * len(alphabet)] * length)

    @staticmethod
    def mixture(parts) -> "CylinderMeasure":
        """Convex combination of measures on the same window."""
        parts = list(parts)
        first = parts[0][0]
        weights = [Fraction(0)] * len(first.weights)
        for mu, coeff in parts:
            if (mu.alphabet, mu.start, mu.length) != (first.alphabet,
                                                      first.start, first.length):
                raise ValueError("mixture components must share the window")
            for i, w in enumerate(mu.weights):
                weights[i] += coeff * w
        return CylinderMeasure(first.alphabet, first.start, first.length,
                               tuple(weights))


def _one_hot(size: int, hot: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if i == hot else Fraction(0) for i in range(size))


def alternating_pair_measure(start: int, length: int) -> CylinderMeasure:
    """The even mixture of the two alternating binary words on a window."""
    word01 = tuple("01"[(start + j) % 2] for j in range(length))
    word10 = tuple("01"[(start + j + 1) % 2] for j in range(length))
    alphabet = ("0", "1")
    return CylinderMeasure.mixture([
        (CylinderMeasure.delta(alphabet, start, word01), Fraction(1, 2)),
        (CylinderMeasure.delta(alphabet, start, word10), Fraction(1, 2)),
    ])


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
    in_den = math.lcm(*(w.denominator for w in mu.weights))
    state = np.array([w.numerator * (in_den // w.denominator)
                      for w in mu.weights], dtype=object)
    for k in range(length):
        state = np.matmul(table, state.reshape(
            base ** (mu.length - k - 1 - span), base ** span, base, base ** k))
    state = state.reshape(base ** span, base ** length).sum(axis=0)
    den = in_den * row_den ** length
    return CylinderMeasure(f.alphabet, start, length,
                           tuple(Fraction(v, den) for v in state))


def marginal(mu: CylinderMeasure, start: int, length: int) -> CylinderMeasure:
    """Sum out every site outside the contiguous sub-window."""
    if not (mu.start <= start and start + length <= mu.end and length >= 1):
        raise ValueError("marginal window must sit inside the measure window")
    lo = start - mu.start
    out = [Fraction(0)] * len(mu.alphabet) ** length
    for word, w in mu.items():
        out[_encode(mu.alphabet, word[lo:lo + length])] += w
    return CylinderMeasure(mu.alphabet, start, length, tuple(out))


def pushforward(mu: CylinderMeasure, symbol_map,
                alphabet: tuple) -> CylinderMeasure:
    """Image measure under a pointwise symbol relabeling."""
    out = [Fraction(0)] * len(alphabet) ** mu.length
    for word, w in mu.items():
        out[_encode(alphabet, tuple(symbol_map(s) for s in word))] += w
    return CylinderMeasure(alphabet, mu.start, mu.length, tuple(out))


def total_variation(mu: CylinderMeasure, nu: CylinderMeasure) -> Fraction:
    if (mu.alphabet, mu.start, mu.length) != (nu.alphabet, nu.start, nu.length):
        raise ValueError("total variation needs measures on the same window")
    return sum((abs(a - b) for a, b in zip(mu.weights, nu.weights)),
               Fraction(0)) / 2


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
        probs = tuple(Fraction(t) for t in probs_part.split())
        rows[word] = probs
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
