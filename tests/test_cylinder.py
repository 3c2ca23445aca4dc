"""Exact cylinder-measure evolution against brute-force enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import density
from pcalab.cylinder import (CylinderMeasure, TransitionFunction,
                             alternating_pair_measure, dump_rule_text,
                             evolve_measure, invariance_residual, lift_model,
                             load_rule_text, marginal, model_a_rule,
                             output_window, pushforward, total_variation)
from pcalab.density import exact_density
from pcalab.lattice import a_local, b_local, c_local
from pcalab.stream import RIGHT, UP

BITS = ("0", "1")
HALF = Fraction(1, 2)


def brute_step_a(mu: CylinderMeasure) -> dict:
    """Independent oracle: enumerate support words x arrow assignments."""
    out = {}
    length = mu.length - 1
    for word, weight in mu.items():
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
    for word, wgt in mu.items():
        dists = [f.rows[tuple(word[k + v - mu.start] for v in f.neighborhood)]
                 for k in range(start, start + length)]
        partial = [((), wgt)]
        for dist in dists:
            partial = [(w + (sym,), p * pr)
                       for w, p in partial
                       for sym, pr in zip(f.alphabet, dist) if pr]
        for w, p in partial:
            out[w] = out.get(w, Fraction(0)) + p
    base = len(f.alphabet)
    weights = [Fraction(0)] * base ** length
    for w, p in out.items():
        weights[sum(f.alphabet.index(s) * base ** j
                    for j, s in enumerate(w))] = p
    return CylinderMeasure(f.alphabet, start, length, tuple(weights))


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
    mu = CylinderMeasure(alphabet, draw(st.integers(-3, 3)), length,
                         _distribution(raw))
    return TransitionFunction(alphabet, hood, rows), mu


@settings(max_examples=150, deadline=None)
@given(rules_and_measures())
def test_sweep_equals_the_word_expansion(case):
    f, mu = case
    assert evolve_measure(mu, f) == reference_evolve(mu, f)


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
    mu = CylinderMeasure(("x", "y"), 0, length, _distribution(raw))
    return TransitionFunction(("x", "y"), (-1, 0), rows), mu


@settings(max_examples=60, deadline=None)
@given(large_denominator_rules())
def test_sweep_past_int64_equals_the_word_expansion(case):
    f, mu = case
    assert mu.den * _row_den(f) ** (mu.length - 1) >= 2 ** 63
    assert evolve_measure(mu, f) == reference_evolve(mu, f)


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
    mu = CylinderMeasure.mixture(
        (CylinderMeasure.delta(("x", "y"), 0, w), Fraction(1, len(words)))
        for w in words)
    assert 2 ** 62 < mu.den * _row_den(f) ** 2 < 2 ** 64
    assert evolve_measure(mu, f) == reference_evolve(mu, f)


class TestModelARule:
    def test_derived_from_a_local_equals_the_hand_table(self):
        hand = {
            ("0", "0"): (HALF, HALF),
            ("0", "1"): (Fraction(1), Fraction(0)),
            ("1", "0"): (Fraction(0), Fraction(1)),
            ("1", "1"): (HALF, HALF),
        }
        f = model_a_rule()
        assert f == TransitionFunction(BITS, (-1, 0), hand)
        assert dump_rule_text(f) == ("alphabet: 0 1\n"
                                     "neighborhood: -1 0\n"
                                     "00 : 1/2 1/2\n"
                                     "01 : 1 0\n"
                                     "10 : 0 1\n"
                                     "11 : 1/2 1/2\n")

    def test_deterministic_rows(self):
        f = model_a_rule()
        assert f.rows[("1", "0")] == (Fraction(0), Fraction(1))
        assert f.rows[("0", "1")] == (Fraction(1), Fraction(0))

    def test_coin_rows_and_row_sums(self):
        f = model_a_rule()
        assert f.rows[("0", "0")] == (HALF, HALF)
        assert f.rows[("1", "1")] == (HALF, HALF)
        assert all(sum(row) == 1 for row in f.rows.values())

    def test_table_validation(self):
        rows = model_a_rule().rows.copy()
        rows[("0", "0")] = (HALF, HALF, HALF)
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)
        rows = model_a_rule().rows.copy()
        del rows[("0", "0")]
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)
        rows = model_a_rule().rows.copy()
        rows[("0", "0")] = (HALF, Fraction(1, 3))
        with pytest.raises(ValueError):
            TransitionFunction(BITS, (-1, 0), rows)


class TestEvolveMeasure:
    def test_delta_pair_moves_deterministically(self):
        mu = CylinderMeasure.delta(BITS, -1, "01")
        out = evolve_measure(mu, model_a_rule())
        assert out.start == 0 and out.length == 1
        assert out.weight(("0",)) == 1

    def test_uniform_three_site_pair_statistic(self):
        mu = CylinderMeasure.uniform(BITS, -1, 3)
        out = evolve_measure(mu, model_a_rule())
        assert out.weight(("0", "0")) + out.weight(("1", "1")) == Fraction(3, 8)

    def test_uniform_two_site_marginal(self):
        mu = CylinderMeasure.uniform(BITS, -1, 2)
        out = evolve_measure(mu, model_a_rule())
        assert out.weight(("1",)) == HALF

    def test_all_ones_pair_statistic(self):
        mu = CylinderMeasure.delta(BITS, -1, "111")
        out = evolve_measure(mu, model_a_rule())
        assert out.weight(("0", "0")) + out.weight(("1", "1")) == HALF

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_matches_brute_force_enumeration(self, length):
        rng = np.random.default_rng(length)
        raw = [int(v) for v in rng.integers(1, 9, 2 ** length)]
        weights = tuple(Fraction(v, sum(raw)) for v in raw)
        mu = CylinderMeasure(BITS, 0, length, weights)
        out = evolve_measure(mu, model_a_rule())
        brute = brute_step_a(mu)
        assert sum(out.weights) == 1
        for word, p in brute.items():
            assert out.weight(word) == p

    def test_window_too_small(self):
        mu = CylinderMeasure.uniform(BITS, 0, 1)
        with pytest.raises(ValueError):
            evolve_measure(mu, model_a_rule())

    def test_alphabet_mismatch(self):
        mu = CylinderMeasure.uniform((".", "#"), 0, 3)
        with pytest.raises(ValueError):
            evolve_measure(mu, model_a_rule())


class TestMarginal:
    def test_identity_and_conservation(self):
        mu = CylinderMeasure.uniform(BITS, 2, 3)
        assert marginal(mu, 2, 3) == mu
        assert sum(marginal(mu, 3, 2).weights) == 1

    def test_products_factorize(self):
        dists = [(Fraction(1, 4), Fraction(3, 4)),
                 (Fraction(2, 5), Fraction(3, 5)),
                 (Fraction(1, 2), Fraction(1, 2))]
        mu = CylinderMeasure.product(BITS, 0, dists)
        assert marginal(mu, 1, 2) == CylinderMeasure.product(BITS, 1, dists[1:])

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
        mu = CylinderMeasure(BITS, 0, 5,
                             tuple(Fraction(v, sum(raw)) for v in raw))
        f = model_a_rule()
        big = evolve_measure(mu, f)
        for start, length in ((0, 3), (1, 3), (2, 3), (1, 4)):
            small = evolve_measure(marginal(mu, start, length), f)
            assert small == marginal(big, small.start, small.length)


class TestInvariance:
    @pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12])
    def test_alternating_mixture_is_invariant(self, length):
        mu = alternating_pair_measure(0, length)
        assert invariance_residual(mu, model_a_rule()) == 0

    def test_all_ones_is_not_invariant(self):
        mu = CylinderMeasure.delta(BITS, 0, "1111")
        assert invariance_residual(mu, model_a_rule()) > 0

    def test_total_variation_requires_matching_windows(self):
        with pytest.raises(ValueError):
            total_variation(CylinderMeasure.uniform(BITS, 0, 2),
                            CylinderMeasure.uniform(BITS, 0, 3))


def occupancy_word_measure(table, start, word):
    """Fixed occupancy glyphs, arrow components independently uniform."""
    dists = [tuple(HALF if s[0] == ch else Fraction(0) for s in table.alphabet)
             for ch in word]
    return CylinderMeasure.product(table.alphabet, start, dists)


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
        for which in ("b", "c"):
            table = lift_model(which)
            assert len(table.alphabet) == 4
            values = {p for row in table.rows.values() for p in row}
            assert values == {Fraction(0), HALF}
            assert all(sum(row) == 1 for row in table.rows.values())

    def test_single_rows(self):
        table = lift_model("b")
        carried = dict(zip(table.alphabet, table.rows[("#r", "#r")]))
        # both particles hop together: occupied for sure, fresh fair arrow
        assert carried == {".u": 0, ".r": 0, "#u": HALF, "#r": HALF}
        annihilated = dict(zip(table.alphabet, table.rows[("#u", "#r")]))
        assert annihilated == {".u": HALF, ".r": HALF, "#u": 0, "#r": 0}

    @pytest.mark.parametrize("which,local", [("b", b_local), ("c", c_local)])
    def test_one_step_occupancy_matches_enumeration(self, which, local):
        table = lift_model(which)
        for bits in itertools.product(".#", repeat=3):
            word = "".join(bits)
            mu = occupancy_word_measure(table, 0, word)
            out = pushforward(evolve_measure(mu, table),
                              lambda s: s[0], (".", "#"))
            brute = brute_particle_step(local, word, 2)
            for w, p in brute.items():
                assert out.weight(w) == p

    def test_full_line_turns_uniform(self):
        table = lift_model("b")
        mu = occupancy_word_measure(table, 0, "####")
        out = pushforward(evolve_measure(mu, table), lambda s: s[0],
                          (".", "#"))
        assert out == CylinderMeasure.uniform((".", "#"), 1, 3)

    @pytest.mark.parametrize("which,local", [("b", b_local), ("c", c_local)])
    def test_point_masses_evolve_deterministically(self, which, local):
        # fixing the arrow components pins the next occupancy completely
        table = lift_model(which)
        for word in itertools.product(table.alphabet, repeat=3):
            mu = CylinderMeasure.delta(table.alphabet, 0, word)
            out = pushforward(evolve_measure(mu, table), lambda s: s[0],
                              (".", "#"))
            cells = [int(s[0] == "#") for s in word]
            arrows = [RIGHT if s[1] == "r" else UP for s in word]
            want = tuple("#" if local(cells[j], cells[j + 1],
                                      arrows[j], arrows[j + 1]) else "."
                         for j in range(2))
            assert out == CylinderMeasure.delta((".", "#"), 1, want)


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_lifted_coalescing_occupancy_is_the_closed_form(self, n):
        # full occupancy with fair arrows on n + 1 sites; after n steps only
        # the last site is left, and it is occupied with d(n) exactly
        table = lift_model("c")
        mu = occupancy_word_measure(table, 0, "#" * (n + 1))
        for _ in range(n):
            mu = evolve_measure(mu, table)
        assert (mu.start, mu.length) == (n, 1)
        occupied = mu.weight(("#u",)) + mu.weight(("#r",))
        assert occupied == Fraction(math.comb(2 * n + 1, n), 4 ** n)


def _evolved(table, mu, n):
    for _ in range(n):
        mu = evolve_measure(mu, table)
    return mu


def _pair_agrees(mu):
    assert mu.length == 2
    return mu.weight(("0", "0")) + mu.weight(("1", "1"))


def _last_site_occupied(mu):
    return sum((w for word, w in mu.items() if word[-1][0] == "#"),
               Fraction(0))


def _model_a(init):
    def value(n):
        mu = (CylinderMeasure.uniform(BITS, 0, n + 2) if init is None
              else CylinderMeasure.delta(BITS, 0, init * (n + 2)))
        return _pair_agrees(_evolved(model_a_rule(), mu, n))
    return value


def _lifted(which, full):
    def value(n):
        table = lift_model(which)
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
        assert density._report(*key, n, np.zeros(2), 0, 1).exact == want, n


class TestMonteCarloConsistency:
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_cylinder_probabilities_match_lattice_frequencies(self, steps):
        from pcalab.lattice import Configuration, Model, evolve
        from pcalab.stream import UpdateStream

        length = steps + 3
        mu = CylinderMeasure.uniform(BITS, 0, length)
        for _ in range(steps):
            mu = evolve_measure(mu, model_a_rule())
        assert mu.length == 3

        trials = 4000
        counts = {}
        for trial in range(trials):
            stream = UpdateStream(1000 + steps, trial)
            init = Configuration.random_bits(stream, length)
            final = evolve(Model.A, init, stream, steps).final
            word = tuple(str(c) for c in final.cells)
            counts[word] = counts.get(word, 0) + 1
        for word in itertools.product(BITS, repeat=3):
            p = float(mu.weight(word))
            freq = counts.get(word, 0) / trials
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(freq - p) <= 4 * se + 1e-12


class TestRuleFiles:
    def test_round_trip(self):
        f = model_a_rule()
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


class TestGuards:
    def test_state_cap(self):
        with pytest.raises(ValueError):
            CylinderMeasure.uniform(BITS, 0, 25)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CylinderMeasure(BITS, 0, 1, (HALF, HALF, HALF))
        with pytest.raises(ValueError):
            CylinderMeasure(BITS, 0, 1, (Fraction(2), Fraction(-1)))
