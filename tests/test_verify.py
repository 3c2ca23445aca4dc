"""Certificate suites: exact case counts, plus mutation sensitivity.

A suite looks its rules up at call time, so each mutation test sets a
broken rule on :mod:`pcalab.verify` (or the colour batch on
:mod:`pcalab.density`) and checks that the suite fails."""

import pytest

from pcalab import density, verify
from pcalab.lattice import GREEN, a_local, b_local, c_local, d_local
from pcalab.verify import (run_all, verify_color_uniformity,
                           verify_commutation, verify_domination,
                           verify_monotonicity, verify_periodic_orbit,
                           verify_projection)


class TestCommutation:
    def test_all_32_cases_pass(self):
        report = verify_commutation()
        assert (report.cases_total, report.cases_passed) == (32, 32)
        assert report.passed and not report.failures

    def test_mutated_rule_is_caught(self, monkeypatch):
        def broken(left, cell, arrow):
            if (left, cell) == (1, 0):
                return 0
            return a_local(left, cell, arrow)

        monkeypatch.setattr(verify, "a_local", broken)
        report = verify_commutation()
        assert not report.passed
        assert report.failures


class TestDomination:
    def test_all_16_cases_pass(self):
        report = verify_domination()
        assert (report.cases_total, report.cases_passed) == (16, 16)
        assert report.passed

    def test_swapped_kernels_fail(self, monkeypatch):
        monkeypatch.setattr(verify, "b_local", c_local)
        monkeypatch.setattr(verify, "c_local", b_local)
        report = verify_domination()
        assert not report.passed


class TestMonotonicity:
    def test_all_36_cases_pass(self):
        report = verify_monotonicity()
        assert (report.cases_total, report.cases_passed) == (36, 36)
        assert report.passed

    def test_annihilation_is_not_monotone(self, monkeypatch):
        monkeypatch.setattr(verify, "c_local", b_local)
        report = verify_monotonicity()
        assert not report.passed
        assert report.failures  # enumeration finds a violating case


class TestProjection:
    def test_all_36_cases_pass(self):
        report = verify_projection()
        assert (report.cases_total, report.cases_passed) == (36, 36)
        assert report.passed

    def test_wrong_merge_color_is_caught(self, monkeypatch):
        def broken(left, cell, left_arrow, arrow):
            out = d_local(left, cell, left_arrow, arrow)
            return GREEN if out else out  # force every survivor green

        monkeypatch.setattr(verify, "d_local", broken)
        report = verify_projection()
        assert not report.passed


class TestPeriodicOrbit:
    @pytest.mark.parametrize("width", range(4, 17, 2))
    def test_exhaustive_small_widths(self, width):
        report = verify_periodic_orbit(width)
        assert report.cases_total == 2 ** width
        assert report.passed

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            verify_periodic_orbit(5)
        with pytest.raises(ValueError):
            verify_periodic_orbit(2)
        with pytest.raises(ValueError):
            verify_periodic_orbit(18)  # past the cap

    def test_mutated_rule_breaks_the_orbit(self, monkeypatch):
        def lazy(left, cell, arrow):  # unequal pairs keep their cell
            return cell if left != cell else a_local(left, cell, arrow)

        monkeypatch.setattr(verify, "a_local", lazy)
        report = verify_periodic_orbit(6)
        assert not report.passed


class TestColorUniformity:
    def test_statistical_bands_hold(self):
        report = verify_color_uniformity(3, trials=30_000, seed=6)
        assert report.cases_total == 2
        assert report.passed, report.failures

    def test_initialization_is_fair(self):
        report = verify_color_uniformity(0, trials=10_000, seed=7)
        assert report.passed

    def test_all_blue_merges_are_caught(self, monkeypatch):
        color_density_batch = density.color_density_batch  # before patching

        def paint_everything_blue(n, trials, seed, sites):
            occupied, _ = color_density_batch(n, trials, seed, sites)
            return occupied, occupied

        monkeypatch.setattr(density, "color_density_batch",
                            paint_everything_blue)
        report = verify_color_uniformity(3, trials=4000, seed=8)
        assert not report.passed

    def test_n_past_the_exact_regime_is_refused_before_any_trial(
            self, monkeypatch):
        def never(n, trials, seed, sites):
            raise AssertionError("a refused run was simulated")

        monkeypatch.setattr(density, "color_density_batch", never)
        with pytest.raises(ValueError, match="exact regime"):
            verify_color_uniformity(600, trials=1000, seed=0)


def test_run_all_is_the_five_deterministic_suites():
    reports = run_all()
    assert [r.suite for r in reports] == [
        "commutation", "domination", "monotonicity", "projection",
        "periodic-orbit"]
    assert all(r.passed for r in reports)
    payload = [r.to_dict() for r in reports]
    assert all(set(d) == {"suite", "cases_total", "cases_passed", "passed",
                          "failures"} for d in payload)
