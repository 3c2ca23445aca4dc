"""Density oracles (exact, DP, log-space) and Monte Carlo calibration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pcalab import density, packed
from pcalab.density import (EXACT_LIMIT, asymptotic_ratio, density_log,
                            exact_density, hitting_time_oracle,
                            interface_walk_oracle, mc_density,
                            mc_pair_statistic_A)
from pcalab.lattice import Configuration, Model, evolve
from pcalab.packed import pack_bits, words_for
from pcalab.stream import DOMAIN_UNIFORM, UpdateStream, block_bits_vec
from pcalab.verify import verify_proposition_bounds

from dict_oracles import hitting_time_reference, interface_walk_reference


def brute_walk_stays_below_two(n):
    """Enumerate all 2^(2n) sign paths; count those never reaching 2."""
    good = 0
    for signs in itertools.product((-1, 1), repeat=2 * n):
        pos, ok = 0, True
        for s in signs:
            pos += s
            if pos >= 2:
                ok = False
                break
        good += ok
    return Fraction(good, 4 ** n)


def brute_lazy_walk_survives(n):
    """Enumerate all 3^n lazy steps with weights 1-2-1; survival from 1."""
    total = 0
    for deltas in itertools.product((-1, 0, 1), repeat=n):
        pos, weight = 1, 1
        for d in deltas:
            pos += d
            weight *= 2 if d == 0 else 1
            if pos == 0:
                weight = 0
                break
        total += weight
    return Fraction(total, 4 ** n)


class TestExactDensity:
    def test_first_six_values(self):
        want = [Fraction(1), Fraction(3, 4), Fraction(5, 8), Fraction(35, 64),
                Fraction(63, 128), Fraction(231, 512)]
        assert [exact_density(n) for n in range(6)] == want

    def test_strictly_decreasing_in_unit_interval(self):
        values = [exact_density(n) for n in range(65)]
        assert all(0 < v <= 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_scaled_values_are_binomials(self):
        for n in range(65):
            scaled = exact_density(n) * 4 ** n
            assert scaled.denominator == 1
            assert scaled.numerator == math.comb(2 * n + 1, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exact_density(EXACT_LIMIT + 1)
        with pytest.raises(ValueError):
            exact_density(-1)


class TestHittingTimeOracle:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_paths(self, n):
        assert hitting_time_oracle(n) == brute_walk_stays_below_two(n)

    def test_known_small_values(self):
        assert hitting_time_oracle(0) == 1
        assert hitting_time_oracle(1) == Fraction(3, 4)
        assert hitting_time_oracle(2) == Fraction(5, 8)


class TestInterfaceWalkOracle:
    @pytest.mark.parametrize("n", range(8))
    def test_matches_brute_force_paths(self, n):
        assert interface_walk_oracle(n) == brute_lazy_walk_survives(n)

    def test_known_small_values(self):
        assert interface_walk_oracle(0) == 1
        assert interface_walk_oracle(1) == Fraction(3, 4)
        assert interface_walk_oracle(3) == Fraction(35, 64)


def test_dense_oracles_equal_the_dict_references():
    for n in range(41):
        assert interface_walk_oracle(n) == interface_walk_reference(n)
        assert hitting_time_oracle(n) == hitting_time_reference(n)


@pytest.mark.parametrize("n", [65, EXACT_LIMIT])
def test_dense_oracles_equal_the_dict_references_at_large_n(n):
    assert hitting_time_oracle(n) == hitting_time_reference(n)
    assert interface_walk_oracle(n) == interface_walk_reference(n)


def test_triple_oracle_identity():
    # every carry pass of the first 260 steps, and the widest arrays
    for n in itertools.chain(range(131), range(500, EXACT_LIMIT + 1)):
        d = exact_density(n)
        assert hitting_time_oracle(n) == d
        assert interface_walk_oracle(n) == d


@settings(max_examples=200, deadline=None)
@given(arrays(np.uint64, array_shapes(min_dims=2, max_dims=2, max_side=40),
              elements=st.integers(0, 2 ** 62 - 1)))
def test_limb_total_is_the_sum_of_every_count(limbs):
    limbs[-1] >>= 30  # the top row never carries out: below 2**32
    want = sum(int(v) << 32 * k for k, row in enumerate(limbs) for v in row)
    assert density._total(limbs) == want


class TestDensityLog:
    def test_dyadic_values_are_exact(self):
        assert density_log(5) == 0.451171875
        assert density_log(1) == 0.75
        assert density_log(0) == 1.0

    def test_relative_error_across_the_exact_regime(self):
        for n in range(EXACT_LIMIT + 1):
            exact = exact_density(n)
            rel = abs(density_log(n) - float(exact)) / float(exact)
            assert rel < 1e-12, f"n={n}: rel err {rel}"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            density_log(-1)


class TestAsymptotics:
    def test_large_n_ratio(self):
        assert 0.999 <= asymptotic_ratio(10 ** 4) <= 1.001
        assert abs(asymptotic_ratio(10 ** 6) - 1.0) < 1e-5

    def test_ratio_increases_toward_one(self):
        grid = [10, 20, 50, 100, 300, 1000, 3000, 10 ** 4]
        ratios = [asymptotic_ratio(n) for n in grid]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1 for r in ratios)


class TestMcDensity:
    def test_coalescing_full_line(self):
        rep = mc_density("c", "full", 2, 20_000, seed=11)
        assert rep.exact == Fraction(5, 8)
        assert rep.to_dict()["approx"] == float(Fraction(5, 8))
        assert rep.mc_halfwidth < 0.01
        assert abs(rep.mc_estimate - 0.625) < 4 * rep.mc_halfwidth

    def test_annihilating_full_line_one_step(self):
        rep = mc_density("b", "full", 1, 20_000, seed=12)
        assert rep.exact == Fraction(1, 2)
        assert abs(rep.mc_estimate - 0.5) < 4 * rep.mc_halfwidth

    def test_annihilating_fair_product_one_step(self):
        rep = mc_density("b", "iid", 1, 20_000, seed=13)
        assert rep.exact == Fraction(3, 8)
        assert abs(rep.mc_estimate - 0.375) < 4 * rep.mc_halfwidth

    def test_million_site_coin_flip(self):
        # one annihilation step from the full line leaves fair coins
        rep = mc_density("b", "full", 1, 2000, seed=14, sites_per_trial=500)
        assert abs(rep.mc_estimate - 0.5) < 0.002

    def test_biased_product_inits(self):
        # one-step densities from iid(p): arrival and hold events at a site
        # are independent with probability p/2 each
        p = 0.25
        rep_c = mc_density("c", "iid", 1, 20_000, seed=15, p=p)
        assert rep_c.exact is None
        want_c = 1 - (1 - p / 2) ** 2
        assert abs(rep_c.mc_estimate - want_c) < 4 * rep_c.mc_halfwidth
        rep_b = mc_density("b", "iid", 1, 20_000, seed=16, p=p)
        want_b = p * (1 - p / 2)
        assert abs(rep_b.mc_estimate - want_b) < 4 * rep_b.mc_halfwidth
        with pytest.raises(ValueError):
            mc_density("c", "iid", 1, 100, seed=0, p=1.5)

    def test_chunked_biased_init_matches_one_shot_draw(self, monkeypatch):
        seed, trials, width, p = 17, 23, 70, 0.3
        ids = np.arange(trials)
        words = block_bits_vec(seed, ids[:, None], 0,
                               np.arange(width)[None, :], DOMAIN_UNIFORM)
        bits = ((words >> np.uint64(11)) * 2.0 ** -53) < p
        want = pack_bits(bits.astype(np.uint8))
        monkeypatch.setattr(packed, "CHUNK_WORDS", 3 * width)
        got = density._iid_plane(seed, ids, words_for(width), width, p)
        assert np.array_equal(got, want.T)

    def test_determinism_and_seed_sensitivity(self):
        a = mc_density("c", "full", 3, 500, seed=5)
        b = mc_density("c", "full", 3, 500, seed=5)
        c = mc_density("c", "full", 3, 500, seed=6)
        assert a == b
        assert a.mc_estimate != c.mc_estimate

    def test_rejects_other_models(self):
        with pytest.raises(ValueError):
            mc_density("a", "full", 1, 10, seed=0)
        with pytest.raises(ValueError):
            mc_density("c", "typo", 1, 10, seed=0)
        with pytest.raises(ValueError):
            mc_density("c", "full", -1, 10, seed=0)


class TestPairStatistic:
    def test_uniform_start_matches_half_density(self):
        rep = mc_pair_statistic_A("uniform", 1, 30_000, seed=21)
        assert rep.exact == Fraction(3, 8)
        assert abs(rep.mc_estimate - 0.375) < 4 * rep.mc_halfwidth

    def test_ones_start_lags_one_step(self):
        rep = mc_pair_statistic_A("ones", 1, 30_000, seed=22)
        assert rep.exact == Fraction(1, 2)
        assert abs(rep.mc_estimate - 0.5) < 4 * rep.mc_halfwidth
        rep4 = mc_pair_statistic_A("ones", 4, 30_000, seed=23)
        assert rep4.exact == Fraction(35, 128)
        assert abs(rep4.mc_estimate - float(Fraction(35, 128))) \
            < 4 * rep4.mc_halfwidth

    def test_custom_word_runs(self):
        rep = mc_pair_statistic_A("0110", 2, 2000, seed=24)
        assert rep.exact is None
        assert 0.0 <= rep.mc_estimate <= 1.0

    @pytest.mark.parametrize("init", ["uniform", "ones", "zeros", "0110"])
    def test_packed_estimate_equals_the_scalar_reference(self, init):
        n, trials, seed, sites = 2, 300, 25, 16
        width = n + sites + 1
        per_trial = []
        for t in range(trials):
            st = UpdateStream(seed, t)
            if init == "uniform":
                cfg = Configuration(0, tuple(st.cell_bits(0, width).tolist()))
            elif init in ("ones", "zeros"):
                cfg = Configuration(0, (int(init == "ones"),) * width)
            else:
                cfg = Configuration(0, tuple(int(init[j % len(init)])
                                             for j in range(width)))
            cells = evolve(Model.A, cfg, st, n).final.cells
            agree = [a == b for a, b in zip(cells, cells[1:])]
            per_trial.append(sum(agree) / len(agree))
        fast = mc_pair_statistic_A(init, n, trials, seed, sites_per_trial=sites)
        assert fast.mc_estimate == float(np.mean(per_trial))


class TestPropositionBounds:
    @pytest.mark.parametrize("n", [1, 3])
    def test_bounds_hold(self, n):
        report = verify_proposition_bounds(n, 20_000, seed=31)
        assert report.suite == "proposition-bounds"
        assert (report.cases_total, report.cases_passed) == (7, 7)
        assert report.passed, report.failures

    @pytest.mark.parametrize("n", [1, 3])
    def test_bounds_are_d_n_above_and_half_d_n_minus_one_below(
            self, n, monkeypatch):
        upper = float(exact_density(n))
        lower = float(exact_density(n - 1) / 2)

        def pinned(estimates):
            def stub(init, n, trials, seed, sites_per_trial):
                return density.DensityReport(
                    "a", init, n, None, estimates[init], 0.0, trials, seed)
            return stub

        on_the_bounds = {"uniform": upper, "ones": lower, "zeros": 0.0}
        monkeypatch.setattr(density, "mc_pair_statistic_A",
                            pinned(on_the_bounds))
        assert verify_proposition_bounds(n, 2, seed=0).passed
        past_them = {"uniform": math.nextafter(upper, 2.0),
                     "ones": math.nextafter(lower, -1.0),
                     "zeros": math.nextafter(0.0, -1.0)}
        monkeypatch.setattr(density, "mc_pair_statistic_A",
                            pinned(past_them))
        failed = [case for case, _, _ in
                  verify_proposition_bounds(n, 2, seed=0).failures]
        assert [case.split(":")[0] for case in failed] == \
            ["uniform", "ones", "zeros"]
        assert "upper bound" in failed[0] and "lower bound" in failed[1]
        assert ">= 0 " in failed[2]

    @pytest.mark.parametrize("n, trials", [(3, 1), (0, 100)])
    def test_a_single_trial_or_n_below_one_is_refused(self, n, trials):
        # one trial has no standard error: its band would be infinite
        with pytest.raises(ValueError, match="n >= 1 and at least two"):
            verify_proposition_bounds(n, trials, 0)

    def test_broken_kernel_is_detected(self, monkeypatch):
        kernel_a = packed.kernel_a

        def broken(x, u, cycle=0):  # (left, cell) = (1, 0) now yields 0
            return kernel_a(x, u, cycle) & ~(packed.from_left(x, cycle) & ~x)

        monkeypatch.setattr(packed, "kernel_a", broken)
        report = verify_proposition_bounds(3, 1200, seed=32,
                                           sites_per_trial=24)
        assert not report.passed
        assert [case.split(":")[0] for case, _, _ in report.failures] == \
            ["uniform", "ones", "zeros"]


def test_meta_calibration_over_many_seeds():
    hits = total = 0
    for seed in range(100):
        for n in (1, 2, 3, 5, 10):
            rep = mc_density("c", "full", n, 200, seed=seed,
                             sites_per_trial=24)
            total += 1
            hits += abs(rep.mc_estimate - float(rep.exact)) \
                < 4 * rep.mc_halfwidth
    assert hits / total >= 0.95
