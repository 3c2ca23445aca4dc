"""Exact cylinder-measure evolution against brute-force enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import cylinder, density
from pcalab.cylinder import (CylinderMeasure, TransitionFunction,
                             alternating_pair_measure, evolve_measure,
                             fair_rule, invariance_residual, load_rule_text,
                             marginal, output_window, total_variation)
from pcalab.density import exact_density
from pcalab.lattice import GLYPHS, a_local, b_local, c_local, d_local
from pcalab.stream import RIGHT, UP

from cylinder_helpers import dump_rule_text, fields, pushforward, weight

BITS = ("0", "1")
HALF = Fraction(1, 2)


def dirac(alphabet, start, word):
    """The point mass on ``word``: one-hot site weights."""
    return CylinderMeasure.product(
        alphabet, start, [[int(s == ch) for s in alphabet] for ch in word])


def brute_update_a(mu: CylinderMeasure) -> dict:
    """Independent oracle: enumerate support words x arrow assignments."""
    out = {}
    length = mu.length - 1
    for word, v in mu.items():
        weight = Fraction(v, mu.den)
        cells = [int(s) for s in word]
        for arrows in itertools.product((UP, RIGHT), repeat=length):
            new = tuple(str(a_local(cells[j], cells[j + 1], arrows[j]))
                        for j in range(length))
            share = weight * HALF ** length
            out[new] = out.get(new, Fraction(0)) + share
    return out


def reference_evolve(mu: CylinderMeasure,
                     f: TransitionFunction) -> CylinderMeasure:
    """Word-by-word expansion: every support word branches into every
    output word, one ``Fraction`` per branch."""
    start, length = output_window(mu, f)
    out = {}
    for word, v in mu.items():
        wgt = Fraction(v, mu.den)
        dists = [f.rows[tuple(word[k + v - mu.start] for v in f.neighborhood)]
                 for k in range(start, start + length)]
        partial = [((), wgt)]
        for dist in dists:
            partial = [(w + (sym,), p * pr)
                       for w, p in partial
                       for sym, pr in zip(f.alphabet, dist) if pr]
        for w, p in partial:
            out[w] = out.get(w, Fraction(0)) + p
    # every branch is a multiple of 1/den, one row denominator per site
    base, den = len(f.alphabet), mu.den * _row_den(f) ** length
    weights = [0] * base ** length
    for w, p in out.items():
        weights[sum(f.alphabet.index(s) * base ** j
                    for j, s in enumerate(w))] = int(p * den)
    return CylinderMeasure(f.alphabet, start, length, weights, den)


def _distribution(raw):
    """Exact probabilities proportional to ``raw`` (some entry positive)."""
    return tuple(Fraction(v, sum(raw)) for v in raw)


@st.composite
def rules_and_measures(draw):
    """A random rule and a sparse or dense rational measure it can step.

    Rows take zero entries and arbitrary (non-dyadic) denominators; the
    input window is two to six sites, one to three sites longer than the
    neighborhood span.
    """
    base = draw(st.integers(1, 3))
    alphabet = tuple("xyz"[:base])
    hood = draw(st.sampled_from([(0,), (-1, 0), (-1, 1), (0, 2), (-2, 0, 1)]))
    entry = st.integers(0, 6)
    rows = {}
    for word in itertools.product(alphabet, repeat=len(hood)):
        raw = draw(st.lists(entry, min_size=base, max_size=base)
                   .filter(any))
        rows[word] = _distribution(raw)
    length = hood[-1] - hood[0] + draw(st.integers(1, 3))
    states = base ** length
    if draw(st.booleans()):  # sparse: a handful of words
        support = draw(st.sets(st.integers(0, states - 1), min_size=1,
                               max_size=3))
        raw = [draw(st.integers(1, 9)) if i in support else 0
               for i in range(states)]
    else:
        raw = draw(st.lists(st.integers(0, 9), min_size=states,
                            max_size=states).filter(any))
    mu = CylinderMeasure(alphabet, draw(st.integers(-3, 3)), length, raw,
                         sum(raw))
    return TransitionFunction(alphabet, hood, rows), mu


@settings(max_examples=150, deadline=None)
@given(rules_and_measures())
def test_sweep_equals_the_word_expansion(case):
    f, mu = case
    assert fields(evolve_measure(mu, f)) == fields(reference_evolve(mu, f))


#: Prime row denominators: two distinct ones put the rows' common
#: denominator near 2**61, so a 3-4 site sweep leaves the int64 range.
_PRIMES = (2 ** 31 - 1, 1_000_000_007, 2 ** 61 - 1)


def _row_den(f: TransitionFunction) -> int:
    return math.lcm(*(p.denominator for row in f.rows.values() for p in row))


@st.composite
def large_denominator_rules(draw):
    """A binary rule on neighborhood {-1, 0} with prime row denominators
    (the first two distinct) and a measure on a 3- or 4-site window."""
    primes = list(_PRIMES[:2]) + [draw(st.sampled_from(_PRIMES))
                                  for _ in range(2)]
    rows = {}
    for word, p in zip(itertools.product("xy", repeat=2), primes):
        k = draw(st.integers(1, p - 1))
        rows[word] = (Fraction(k, p), Fraction(p - k, p))
    length = draw(st.integers(3, 4))
    raw = draw(st.lists(st.integers(0, 9), min_size=2 ** length,
                        max_size=2 ** length).filter(any))
    mu = CylinderMeasure(("x", "y"), 0, length, raw, sum(raw))
    return TransitionFunction(("x", "y"), (-1, 0), rows), mu


@settings(max_examples=60, deadline=None)
@given(large_denominator_rules())
def test_sweep_past_int64_equals_the_word_expansion(case):
    f, mu = case
    assert mu.den * _row_den(f) ** (mu.length - 1) >= 2 ** 63
    assert fields(evolve_measure(mu, f)) == fields(reference_evolve(mu, f))


@pytest.mark.parametrize("words", [("xyx", "yyy"), ("xxy", "yxy"),
                                   ("xyx", "yyy", "xxy", "yxy")])
def test_sweep_on_either_side_of_the_int64_bound(words):
    # 2 * (2**31 - 1)**2 = 2**63 - 2**33 + 2: the sweep runs on int64 with
    # numerators just inside its range; 4 * (2**31 - 1)**2 lies past 2**63
    # but below 2**64, and nearly all of it lands on the output word "xx"
    p = 2 ** 31 - 1
    rows = {w: (Fraction(p - k, p), Fraction(k, p)) for k, w in enumerate(
        itertools.product("xy", repeat=2), start=1)}
    f = TransitionFunction(("x", "y"), (-1, 0), rows)
    # one numerator per word over len(words)
    num = sum(dirac(("x", "y"), 0, w).numerators for w in words)
    mu = CylinderMeasure(("x", "y"), 0, 3, num, len(words))
    assert 2 ** 62 < mu.den * _row_den(f) ** 2 < 2 ** 64
    assert fields(evolve_measure(mu, f)) == fields(reference_evolve(mu, f))


class TestModelARule:
    def test_derived_from_a_local_equals_the_hand_table(self):
        hand = {
            ("0", "0"): (HALF, HALF),
            ("0", "1"): (Fraction(1), Fraction(0)),
            ("1", "0"): (Fraction(0), Fraction(1)),
            ("1", "1"): (HALF, HALF),
        }
        f = fair_rule("a")
        assert f == TransitionFunction(BITS, (-1, 0), hand)
        assert dump_rule_text(f) == ("alphabet: 0 1\n"
                                     "neighborhood: -1 0\n"
                                     "00 : 1/2 1/2\n"
                                     "01 : 1 0\n"
                                     "10 : 0 1\n"
                                     "11 : 1/2 1/2\n")

    def test_deterministic_rows(self):
        f = fair_rule("a")
        assert f.rows[("1", "0")] == (Fraction(0), Fraction(1))
        assert f.rows[("0", "1")] == (Fraction(1), Fraction(0))

    def test_coin_rows_and_row_sums(self):
        f = fair_rule("a")
        assert f.rows[("0", "0")] == (HALF, HALF)
        assert f.rows[("1", "1")] == (HALF, HALF)
        assert all(sum(row) == 1 for row in f.rows.values())

    def test_table_validation(self):
        rows = fair_rule("a").rows.copy()
        rows[("0", "0")] = (HALF, HALF, HALF)
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)
        rows = fair_rule("a").rows.copy()
        del rows[("0", "0")]
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)
        rows = fair_rule("a").rows.copy()
        rows[("0", "0")] = (HALF, Fraction(1, 3))
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)


class TestEvolveMeasure:
    def test_delta_pair_moves_deterministically(self):
        mu = dirac(BITS, -1, "01")
        out = evolve_measure(mu, fair_rule("a"))
        assert out.start == 0 and out.length == 1
        assert weight(out, ("0",)) == 1

    def test_uniform_three_site_pair_statistic(self):
        mu = CylinderMeasure.uniform(BITS, -1, 3)
        out = evolve_measure(mu, fair_rule("a"))
        assert _pair_agrees(out) == Fraction(3, 8)

    def test_uniform_two_site_marginal(self):
        mu = CylinderMeasure.uniform(BITS, -1, 2)
        out = evolve_measure(mu, fair_rule("a"))
        assert weight(out, ("1",)) == HALF

    def test_all_ones_pair_statistic(self):
        mu = dirac(BITS, -1, "111")
        out = evolve_measure(mu, fair_rule("a"))
        assert _pair_agrees(out) == HALF

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_matches_brute_force_enumeration(self, length):
        rng = np.random.default_rng(length)
        raw = [int(v) for v in rng.integers(1, 9, 2 ** length)]
        mu = CylinderMeasure(BITS, 0, length, raw, sum(raw))
        out = evolve_measure(mu, fair_rule("a"))
        brute = brute_update_a(mu)
        assert sum(out.weights) == 1
        for word, p in brute.items():
            assert weight(out, word) == p

    def test_window_too_small(self):
        mu = CylinderMeasure.uniform(BITS, 0, 1)
        with pytest.raises(ValueError):
            evolve_measure(mu, fair_rule("a"))

    def test_alphabet_mismatch(self):
        mu = CylinderMeasure.uniform((".", "#"), 0, 3)
        with pytest.raises(ValueError):
            evolve_measure(mu, fair_rule("a"))


class TestMarginal:
    def test_identity_and_conservation(self):
        mu = CylinderMeasure.uniform(BITS, 2, 3)
        assert fields(marginal(mu, 2, 3)) == fields(mu)
        assert sum(marginal(mu, 3, 2).weights) == 1

    def test_products_factorize(self):
        sites = [(1, 3), (2, 3), (1, 1)]  # 1/4 3/4, 2/5 3/5, 1/2 1/2
        mu = CylinderMeasure.product(BITS, 0, sites)
        assert weight(mu, ("1", "0", "1")) == Fraction(3 * 2, 4 * 5 * 2)
        assert fields(marginal(mu, 1, 2)) == fields(
            CylinderMeasure.product(BITS, 1, sites[1:]))

    def test_bad_windows(self):
        mu = CylinderMeasure.uniform(BITS, 0, 3)
        with pytest.raises(ValueError):
            marginal(mu, -1, 2)
        with pytest.raises(ValueError):
            marginal(mu, 2, 2)

    def test_restriction_commutes_with_evolution(self):
        # Evolving a sub-window equals evolving the full window and then
        # marginalizing onto the sub-window's output sites.
        rng = np.random.default_rng(42)
        raw = [int(v) for v in rng.integers(1, 7, 2 ** 5)]
        mu = CylinderMeasure(BITS, 0, 5, raw, sum(raw))
        f = fair_rule("a")
        big = evolve_measure(mu, f)
        for start, length in ((0, 3), (1, 3), (2, 3), (1, 4)):
            small = evolve_measure(marginal(mu, start, length), f)
            assert fields(small) == fields(
                marginal(big, small.start, small.length))


class TestInvariance:
    @pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12])
    def test_alternating_mixture_is_invariant(self, length):
        mu = alternating_pair_measure(0, length)
        assert invariance_residual(mu, fair_rule("a")) == 0

    def test_all_ones_is_not_invariant(self):
        mu = dirac(BITS, 0, "1111")
        assert invariance_residual(mu, fair_rule("a")) > 0

    def test_total_variation_requires_matching_windows(self):
        with pytest.raises(ValueError):
            total_variation(CylinderMeasure.uniform(BITS, 0, 2),
                            CylinderMeasure.uniform(BITS, 0, 3))


def occupancy_word_measure(table, start, word):
    """Fixed occupancy glyphs, arrow components independently uniform."""
    return CylinderMeasure.product(
        table.alphabet, start,
        [[int(s[0] == ch) for s in table.alphabet] for ch in word])


def brute_particle_step(local, word, length_out):
    """Enumerate all arrow assignments of the deterministic particle rule."""
    cells = [int(ch == "#") for ch in word]
    out = {}
    for arrows in itertools.product((UP, RIGHT), repeat=len(cells)):
        new = tuple("#" if local(cells[j], cells[j + 1],
                                 arrows[j], arrows[j + 1]) else "."
                    for j in range(length_out))
        out[new] = out.get(new, Fraction(0)) + HALF ** len(cells)
    return out


class TestLiftedModels:
    def test_entries_are_zero_or_half(self):
        for which in ("b", "c", "d"):
            table = fair_rule(which)
            assert len(table.alphabet) == 2 * len(GLYPHS[which])
            values = {p for row in table.rows.values() for p in row}
            assert values == {Fraction(0), HALF}
            assert all(sum(row) == 1 for row in table.rows.values())

    def test_single_rows(self):
        table = fair_rule("b")
        carried = dict(zip(table.alphabet, table.rows[("#r", "#r")]))
        # both particles hop together: occupied for sure, fresh fair arrow
        assert carried == {".u": 0, ".r": 0, "#u": HALF, "#r": HALF}
        annihilated = dict(zip(table.alphabet, table.rows[("#u", "#r")]))
        assert annihilated == {".u": HALF, ".r": HALF, "#u": 0, "#r": 0}

    @pytest.mark.parametrize("which,local", [("b", b_local), ("c", c_local)])
    def test_one_step_occupancy_matches_enumeration(self, which, local):
        table = fair_rule(which)
        for bits in itertools.product(".#", repeat=3):
            word = "".join(bits)
            mu = occupancy_word_measure(table, 0, word)
            out = pushforward(evolve_measure(mu, table),
                              lambda s: s[0], (".", "#"))
            brute = brute_particle_step(local, word, 2)
            for w, p in brute.items():
                assert weight(out, w) == p

    def test_full_line_turns_uniform(self):
        table = fair_rule("b")
        mu = occupancy_word_measure(table, 0, "####")
        out = pushforward(evolve_measure(mu, table), lambda s: s[0],
                          (".", "#"))
        assert fields(out) == fields(CylinderMeasure.uniform((".", "#"), 1,
                                                             3))

    @pytest.mark.parametrize("which,local", [("b", b_local), ("c", c_local),
                                             ("d", d_local)])
    def test_point_masses_evolve_deterministically(self, which, local):
        # fixing the arrow components pins the next glyphs completely
        table, glyphs = fair_rule(which), tuple(GLYPHS[which])
        for word in itertools.product(table.alphabet, repeat=3):
            mu = dirac(table.alphabet, 0, word)
            out = pushforward(evolve_measure(mu, table), lambda s: s[0],
                              glyphs)
            cells = [glyphs.index(s[0]) for s in word]
            arrows = [RIGHT if s[1] == "r" else UP for s in word]
            want = tuple(glyphs[local(cells[j], cells[j + 1],
                                      arrows[j], arrows[j + 1])]
                         for j in range(2))
            assert fields(out) == fields(dirac(glyphs, 1, want))

    @pytest.mark.parametrize("which, glyph", [
        ("c", lambda g: "." if g == "." else "#"),
        ("b", lambda g: "#" if g == "B" else ".")])
    def test_colour_rows_lump_onto_the_particle_rows(self, which, glyph):
        # verify --suite projection on measures: model d's occupancy is
        # model c's, and its blue particles are model b's
        colour, particle = fair_rule("d"), fair_rule(which)

        def project(s):
            return glyph(s[0]) + s[1]

        for (left, cell), row in colour.rows.items():
            out = dict.fromkeys(particle.alphabet, Fraction(0))
            for s, p in zip(colour.alphabet, row):
                out[project(s)] += p
            assert (tuple(out.values())
                    == particle.rows[(project(left), project(cell))])


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_lifted_coalescing_occupancy_is_the_closed_form(self, n):
        # full occupancy with fair arrows on n + 1 sites; after n steps only
        # the last site is left, and it is occupied with d(n) exactly
        table = fair_rule("c")
        mu = occupancy_word_measure(table, 0, "#" * (n + 1))
        for _ in range(n):
            mu = evolve_measure(mu, table)
        assert (mu.start, mu.length) == (n, 1)
        occupied = weight(mu, ("#u",)) + weight(mu, ("#r",))
        assert occupied == Fraction(math.comb(2 * n + 1, n), 4 ** n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lifted_colours_split_the_closed_form_evenly(self, n):
        # full occupancy with fair colours and fair arrows on n + 1 sites:
        # after n steps the last site is blue with d(n)/2, green likewise
        table = fair_rule("d")
        mu = CylinderMeasure.product(
            table.alphabet, 0, [[int(s[0] != ".") for s in table.alphabet]]
            * (n + 1))
        mu = _evolved(table, mu, n)
        assert (mu.start, mu.length) == (n, 1)
        for glyph in "BG":
            assert (weight(mu, (glyph + "u",)) + weight(mu, (glyph + "r",))
                    == exact_density(n) / 2)


def _evolved(table, mu, n):
    for _ in range(n):
        mu = evolve_measure(mu, table)
    return mu


def _pair_agrees(mu):
    assert mu.length == 2
    return weight(mu, ("0", "0")) + weight(mu, ("1", "1"))


def _last_site_occupied(mu):
    return Fraction(sum(v for word, v in mu.items() if word[-1][0] == "#"),
                    mu.den)


def _model_a(init):
    def value(n):
        mu = (CylinderMeasure.uniform(BITS, 0, n + 2) if init is None
              else dirac(BITS, 0, init * (n + 2)))
        return _pair_agrees(_evolved(fair_rule("a"), mu, n))
    return value


def _lifted(which, full):
    def value(n):
        table = fair_rule(which)
        mu = (occupancy_word_measure(table, 0, "#" * (n + 1)) if full
              else CylinderMeasure.uniform(table.alphabet, 0, n + 1))
        return _last_site_occupied(_evolved(table, mu, n))
    return value


#: ``(model, init)`` row of ``density._EXACT`` -> (the same statistic from
#: the cylinder engine at step n, the steps checked).  Model ``a``: the
#: last pair of an (n+2)-site window agrees; lifted ``b``/``c``: the last
#: site of an (n+1)-site window is occupied.  ``iid(0.5)`` with fair arrows
#: is the uniform lifted measure.
_ENGINE_ROWS = {
    ("a", "uniform"): (_model_a(None), range(11)),
    ("a", "ones"): (_model_a("1"), range(11)),
    ("a", "zeros"): (_model_a("0"), range(11)),
    ("b", "full"): (_lifted("b", True), range(7)),
    ("b", "iid(0.5)"): (_lifted("b", False), range(7)),
    ("c", "full"): (_lifted("c", True), range(9)),
}


@pytest.mark.parametrize("key", sorted(density._EXACT), ids="-".join)
def test_every_exact_density_row_is_the_dynamics(key):
    lag, divisor = density._EXACT[key]
    engine, steps = _ENGINE_ROWS[key]
    for n in steps:
        want = Fraction(1) if n < lag else exact_density(n - lag) / divisor
        assert engine(n) == want, n
        assert density._report(*key, n, np.zeros(2), 0).exact == want, n


class TestMonteCarloConsistency:
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_cylinder_probabilities_match_lattice_frequencies(self, steps):
        from pcalab.lattice import Configuration, Model, evolve
        from pcalab.stream import UpdateStream

        length = steps + 3
        mu = CylinderMeasure.uniform(BITS, 0, length)
        for _ in range(steps):
            mu = evolve_measure(mu, fair_rule("a"))
        assert mu.length == 3

        trials = 4000
        counts = {}
        for trial in range(trials):
            stream = UpdateStream(1000 + steps, trial)
            init = Configuration(0, tuple(
                stream.cell_bits(0, length).tolist()))
            final = evolve(Model.A, init, stream, steps).final
            word = tuple(str(c) for c in final.cells)
            counts[word] = counts.get(word, 0) + 1
        for word in itertools.product(BITS, repeat=3):
            p = float(weight(mu, word))
            freq = counts.get(word, 0) / trials
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(freq - p) <= 4 * se + 1e-12


class TestRuleFiles:
    def test_round_trip(self):
        f = fair_rule("a")
        again = load_rule_text(dump_rule_text(f))
        assert again == f

    def test_parse_with_comments(self):
        text = """
        // a biased one-neighbor chain
        alphabet: a b
        neighborhood: 0
        a : 1/3 2/3
        b : 1 0
        """
        f = load_rule_text(text)
        assert f.neighborhood == (0,)
        assert f.rows[("a",)] == (Fraction(1, 3), Fraction(2, 3))

    def test_hash_is_a_symbol_not_a_comment(self):
        text = """
        // hash marks particles below
        alphabet: . #
        neighborhood: 0
        . : 1 0
        # : 1/4 3/4
        """
        f = load_rule_text(text)
        assert f.rows[("#",)] == (Fraction(1, 4), Fraction(3, 4))
        assert load_rule_text(dump_rule_text(f)) == f

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            load_rule_text("alphabet: 0 1\n00 : 1/2 1/2\n")
        with pytest.raises(ValueError):
            load_rule_text("alphabet: 0 1\nneighborhood: -1 0\nbad\n")
        with pytest.raises(ValueError):
            load_rule_text("alphabet: ab c\nneighborhood: 0\n")
        with pytest.raises(ValueError):  # rows not total
            load_rule_text("alphabet: 0 1\nneighborhood: 0\n0 : 1 0\n")
        with pytest.raises(ValueError, match="'1' is listed twice"):
            load_rule_text("alphabet: 0 1\nneighborhood: 0\n0 : 1 0\n"
                           "1 : 1/2 1/2\n1 : 0 1\n")
        with pytest.raises(ValueError, match="nonempty"):
            load_rule_text("alphabet: 0 1\nneighborhood:\n : 1/2 1/2\n")
        with pytest.raises(ValueError, match="distinct"):  # 10 never read
            load_rule_text("alphabet: 0 1\nneighborhood: 0 0\n00 : 1 0\n"
                           "01 : 1 0\n10 : 0 1\n11 : 0 1\n")
        with pytest.raises(ValueError, match="row '00' has a zero"):
            load_rule_text("alphabet: 0 1\nneighborhood: -1 0\n00 : 1/0 1\n")

    @pytest.mark.parametrize("row", [
        "0 : 1e0 0", "1 : 0.5 0.5", "1 : 1_0/2_0 1/2", "0 : 1e-1000000 1",
        "0 : 1e-2000000 1", "1 : +1 0", "0 : \u0661 0"])
    def test_a_probability_is_an_integer_or_p_over_q(self, row):
        # each token is refused before a Fraction is built, which an
        # exponent token would make as large as it asks
        other = "1 : 0 1" if row[0] == "0" else "0 : 1 0"
        with pytest.raises(ValueError, match=f"row '{row[0]}' holds a "
                                             "probability that is neither"):
            load_rule_text(f"alphabet: 0 1\nneighborhood: 0\n{row}\n{other}\n")


class TestGuards:
    @pytest.mark.parametrize("block", [1, 3, 7, 64, 2 ** 16])
    def test_items_convert_the_numerators_a_block_at_a_time(
            self, block, monkeypatch):
        mu = evolve_measure(alternating_pair_measure(0, 9), fair_rule("a"))
        words = itertools.product(mu.alphabet, repeat=mu.length)
        expected = [(w[::-1], v) for w, v in
                    zip(words, mu.numerators.tolist()) if v]
        monkeypatch.setattr(cylinder, "_ITEMS_BLOCK", block)
        assert list(mu.items()) == expected

    def test_state_cap(self):
        with pytest.raises(ValueError):
            CylinderMeasure.uniform(BITS, 0, 25)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CylinderMeasure(BITS, 0, 1, (1, 1, 1), 2)
        with pytest.raises(ValueError):
            CylinderMeasure(BITS, 0, 1, (2, -1), 1)
        for ratios in [(HALF, HALF), (0.5, 0.5)]:  # would floor to zeros
            with pytest.raises(ValueError, match="integers"):
                CylinderMeasure(BITS, 0, 1, ratios, 1)

    @pytest.mark.parametrize("sites", [
        [(1, 1, 1)], [(1,), (1, 1, 1)],  # misaligned, even where the
        [(-1, 2)], [(-1, -1), (-1, -1)],  # sizes or signs multiply out
        [(0, 0)], [(1, 1), (0, 0)], [(HALF, HALF)], [(0.5, 0.5)]])
    def test_product_site_weight_validation(self, sites):
        with pytest.raises(ValueError):
            CylinderMeasure.product(BITS, 0, sites)

    def test_product_normalizes_each_site_by_its_total(self):
        mu = CylinderMeasure.product(BITS, 0, [(2, 6), (5, 0)])
        assert fields(mu) == fields(
            CylinderMeasure.product(BITS, 0, [(1, 3), (1, 0)]))
        assert mu.weights == (Fraction(1, 4), Fraction(3, 4), 0, 0)
