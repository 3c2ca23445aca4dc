"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every tolerance is pinned here; nothing is deferred.
"""

import time
from fractions import Fraction

import numpy as np

from pcalab.density import (asymptotic_ratio, check_proposition_bounds,
                            exact_density, hitting_time_oracle,
                            interface_walk_oracle, mc_density)
from pcalab.cylinder import (CylinderMeasure, alternating_pair_measure,
                             evolve_measure, invariance_residual,
                             model_a_rule)
from pcalab.lattice import (Configuration, Model, step_a, step_b, step_c,
                            step_d)
from pcalab.packed import step_planes
from pcalab.stream import UpdateRow, UpdateStream
from pcalab.verify import (verify_color_uniformity, verify_commutation,
                           verify_domination, verify_monotonicity,
                           verify_periodic_orbit, verify_projection)

from packed_window import (config_to_planes, evolve_packed, planes_to_config,
                           row_words)

_Z95 = 1.96


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_exact_density_table():
    t0 = time.perf_counter()
    want = [Fraction(1), Fraction(3, 4), Fraction(5, 8), Fraction(35, 64),
            Fraction(63, 128), Fraction(231, 512)]
    got = [exact_density(n) for n in range(6)]
    cross = all(hitting_time_oracle(n) == want[n] for n in range(2, 6))
    ok = got == want and cross
    report(1, ok, f"d(0..5) exact table + DP cross-check "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_02_triple_oracle_identity():
    t0 = time.perf_counter()
    ok = all(exact_density(n) == hitting_time_oracle(n)
             == interface_walk_oracle(n) for n in range(65))
    report(2, ok, f"closed form == hitting DP == walk DP for n <= 64 "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_03_asymptotic_ratio():
    t0 = time.perf_counter()
    ratio = asymptotic_ratio(10 ** 4)
    ok = 0.999 <= ratio <= 1.001
    report(3, ok, f"density_log(1e4)*sqrt(pi*1e4)/2 = {ratio:.6f} "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_04_lemma_suites():
    t0 = time.perf_counter()
    results = {
        "commutation 32": (verify_commutation(), 32),
        "domination 16": (verify_domination(), 16),
        "monotonicity 36": (verify_monotonicity(), 36),
        "projection 36": (verify_projection(), 36),
    }
    ok = all(r.passed and r.cases_total == total
             for r, total in results.values())
    for width in (4, 6, 8):
        orbit = verify_periodic_orbit(width)
        ok = ok and orbit.passed and orbit.cases_total == 2 ** width
    report(4, ok, f"all lemma suites exhaustive "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_05_invariance_of_the_alternating_mixture():
    t0 = time.perf_counter()
    rule = model_a_rule()
    ok = all(invariance_residual(alternating_pair_measure(0, length), rule) == 0
             for length in (2, 4, 6, 8, 10, 12, 14))
    report(5, ok, f"alternating mixture residual exactly 0 on even windows "
                  f"<= 14 ({time.perf_counter() - t0:.2f}s)")


def test_criterion_06_exact_one_step_pair_marginals():
    t0 = time.perf_counter()
    rule = model_a_rule()
    uniform = evolve_measure(CylinderMeasure.uniform(("0", "1"), -1, 3), rule)
    from_uniform = uniform.weight(("0", "0")) + uniform.weight(("1", "1"))
    ones = evolve_measure(CylinderMeasure.delta(("0", "1"), -1, "111"), rule)
    from_ones = ones.weight(("0", "0")) + ones.weight(("1", "1"))
    ok = from_uniform == Fraction(3, 8) and from_ones == Fraction(1, 2)
    report(6, ok, f"one-step pair stats exactly 3/8 (uniform) and 1/2 (ones) "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_07_monte_carlo_calibration():
    t0 = time.perf_counter()
    rep = mc_density("c", "full", 10, 100_000, seed=1, sites_per_trial=64)
    target = Fraction(352716, 1048576)
    ok = rep.exact == target and abs(rep.mc_estimate - float(target)) <= 0.01
    report(7, ok, f"coalescing density at n=10: {rep.mc_estimate:.5f} vs "
                  f"{float(target):.5f} +-0.01 ({time.perf_counter() - t0:.2f}s)")


def test_criterion_08_two_sided_bounds():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 3, 5):
        result = check_proposition_bounds(n, 100_000, seed=2)
        ok = ok and result.verdict
    report(8, ok, f"pair statistic inside [d(n-1)/2, d(n)] at n in 1,3,5 "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_09_color_uniformity():
    t0 = time.perf_counter()
    result = verify_color_uniformity(3, trials=100_000, seed=3)
    ok = result.passed
    report(9, ok, f"blue fraction 1/2 and blue density 35/128 within 4 SE "
                  f"({time.perf_counter() - t0:.2f}s)")


def _random_window_case(model, rng):
    hi = 3 if model is Model.D else 2
    width = int(rng.integers(2, 40))
    offset = int(rng.integers(-30, 30))
    cfg = Configuration(offset, tuple(int(c) for c in rng.integers(0, hi, width)))
    row = UpdateRow(offset, tuple(int(a) for a in rng.integers(0, 2, width)))
    return cfg, row


def test_criterion_10_kernel_equivalence_and_light_cone():
    t0 = time.perf_counter()
    scalars = {Model.A: step_a, Model.B: step_b, Model.C: step_c,
               Model.D: step_d}
    ok = True
    for model, scalar in scalars.items():
        rng = np.random.default_rng(10 + ord(model.value))
        for _ in range(10_000):
            cfg, row = _random_window_case(model, rng)
            planes = config_to_planes(cfg, model)
            u = row_words(row, cfg.offset, len(cfg))
            packed_out = planes_to_config(step_planes(model, planes, u),
                                          model, cfg.offset, len(cfg), skip=1)
            if packed_out != scalar(cfg, row):
                ok = False
                break
    rng = np.random.default_rng(99)
    for case in range(1000):
        width = int(rng.integers(8, 60))
        grow = int(rng.integers(1, 30))
        steps = int(rng.integers(1, min(width - 1, 10)))
        stream = UpdateStream(int(rng.integers(0, 2 ** 40)), case)
        wide = Configuration(-grow, tuple(
            int(c) for c in rng.integers(0, 2, width + 2 * grow)))
        narrow = wide.window(0, width)
        wide_fin = evolve_packed(Model.C, wide, stream, steps)
        narrow_fin = evolve_packed(Model.C, narrow, stream, steps)
        if wide_fin.window(narrow_fin.offset, narrow_fin.end) != narrow_fin:
            ok = False
            break
    report(10, ok, f"4x10^4 packed-vs-scalar windows, 10^3 widened pairs "
                   f"({time.perf_counter() - t0:.2f}s)")
