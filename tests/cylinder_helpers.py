"""Cylinder-measure helpers that only the tests use.

``fields`` is what a measure is stored as, so two measures are equal when
their fields are; ``weight`` reads one word's probability, ``pushforward``
relabels the symbols of a measure word by word, and ``dump_rule_text``
writes a transition table in the plain-text format that
``pcalab.cylinder.load_rule_text`` reads back.
"""

from fractions import Fraction

from pcalab.cylinder import CylinderMeasure, TransitionFunction


def _encode(alphabet: tuple, word: tuple) -> int:
    """Mixed-radix code of a word; the leftmost site is least significant."""
    base, idx = len(alphabet), 0
    for j in reversed(range(len(word))):
        idx = idx * base + alphabet.index(word[j])
    return idx


def _decode(alphabet: tuple, length: int, idx: int) -> tuple:
    """Inverse of :func:`_encode`: the word of code ``idx``."""
    base, out = len(alphabet), []
    for _ in range(length):
        idx, digit = divmod(idx, base)
        out.append(alphabet[digit])
    return tuple(out)


def fields(mu: CylinderMeasure) -> tuple:
    """Alphabet, start, length, ``den`` and the numerators in code order:
    the constructor reduces ``den`` and the numerators by their gcd, so
    equal measures have equal fields."""
    return (mu.alphabet, mu.start, mu.length, mu.den,
            mu.numerators.tolist())


def weight(mu: CylinderMeasure, word: tuple) -> Fraction:
    """The probability of ``word``, read left to right over the window."""
    if len(word) != mu.length:
        raise ValueError("word length does not match the window")
    return Fraction(int(mu.numerators[_encode(mu.alphabet, word)]), mu.den)


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
