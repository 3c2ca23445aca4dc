"""Machine-checked certificates for the structural claims.

Every suite returns a :class:`CaseReport`.  Those in :data:`SUITES`
enumerate a finite case space exhaustively (no tolerance), the periodic
orbit on cycles of up to :data:`ORBIT_WIDTH_CAP` sites; those in
:data:`STATISTICAL` (colour uniformity, the pair-statistic bounds) check
four-standard-error bands and refuse runs with no standard error.  Suites
regenerate their case tables from the kernels, looked up at call time as
globals here and as ``density.color_density_batch``: a mutation test sets
a broken one there to show that its suite fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import density
from .lattice import (BLUE, EMPTY, GREEN, PARTICLE, _walk, a_local,
                      b_local, blue_cell, c_local, d_local, occupied_cell,
                      pair_cell)
from .stream import RIGHT, UP

ARROWS = (UP, RIGHT)

#: Widest cycle whose 2**width arrow rows the periodic-orbit suite walks:
#: 0.2 s at width 14 and 0.6 s at 16 on a 2-vCPU Xeon VM.  Two more sites
#: cost four times as much (2.6 s at 18), so wider cycles are refused.
ORBIT_WIDTH_CAP = 16


@dataclass
class CaseReport:
    suite: str
    cases_total: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def cases_passed(self) -> int:
        return self.cases_total - len(self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, case: str, expected, got) -> None:
        self.cases_total += 1
        if expected != got:
            self.failures.append((case, repr(expected), repr(got)))

    def to_dict(self) -> dict:
        return {"suite": self.suite, "cases_total": self.cases_total,
                "cases_passed": self.cases_passed, "passed": self.passed,
                "failures": [list(f) for f in self.failures]}


def verify_commutation() -> CaseReport:
    """Binary triples commute with the pair map: applying the keep/switch
    rule then marking equal neighbors equals marking first and running the
    annihilation rule.  All 32 (triple, arrow pair) cases."""
    report = CaseReport("commutation")
    for x2, x1, x0 in itertools.product((0, 1), repeat=3):
        for u1, u0 in itertools.product(ARROWS, repeat=2):
            upper = pair_cell(a_local(x2, x1, u1), a_local(x1, x0, u0))
            lower = b_local(pair_cell(x2, x1), pair_cell(x1, x0), u1, u0)
            report.record(f"x={x2}{x1}{x0} u={u1}{u0}", upper, lower)
    return report


def verify_domination() -> CaseReport:
    """Annihilation output never exceeds coalescence output; 16 cases."""
    report = CaseReport("domination")
    for left, cell in itertools.product((EMPTY, PARTICLE), repeat=2):
        for ul, u in itertools.product(ARROWS, repeat=2):
            b_out = b_local(left, cell, ul, u)
            c_out = c_local(left, cell, ul, u)
            report.record(f"y={left}{cell} u={ul}{u}",
                          True, b_out <= c_out)
    return report


def verify_monotonicity() -> CaseReport:
    """Coalescence is monotone: ordered inputs give ordered outputs for
    every shared arrow pair; 9 ordered window pairs x 4 arrow pairs."""
    report = CaseReport("monotonicity")
    windows = list(itertools.product((EMPTY, PARTICLE), repeat=2))
    for lo, hi in itertools.product(windows, repeat=2):
        if not all(a <= b for a, b in zip(lo, hi)):
            continue
        for ul, u in itertools.product(ARROWS, repeat=2):
            out_lo = c_local(lo[0], lo[1], ul, u)
            out_hi = c_local(hi[0], hi[1], ul, u)
            report.record(f"z={lo[0]}{lo[1]}<={hi[0]}{hi[1]} u={ul}{u}",
                          True, out_lo <= out_hi)
    return report


def verify_projection() -> CaseReport:
    """Dropping color information from the two-color model reproduces the
    annihilation model (blue only) and the coalescing model (any color);
    9 color windows x 4 arrow pairs, both projections per case."""
    report = CaseReport("projection")
    for left, cell in itertools.product((EMPTY, BLUE, GREEN), repeat=2):
        for ul, u in itertools.product(ARROWS, repeat=2):
            d_out = d_local(left, cell, ul, u)
            want_b = b_local(blue_cell(left), blue_cell(cell), ul, u)
            want_c = c_local(occupied_cell(left), occupied_cell(cell), ul, u)
            report.record(f"d={left}{cell} u={ul}{u}", (want_b, want_c),
                          (blue_cell(d_out), occupied_cell(d_out)))
    return report


def verify_periodic_orbit(width: int = 6) -> CaseReport:
    """On an even cycle, one update maps each alternating word to the other
    regardless of the arrows: the orbit has period 2.  Every row of arrows
    is checked, on even widths 4 to :data:`ORBIT_WIDTH_CAP`."""
    if width % 2 != 0 or not 4 <= width <= ORBIT_WIDTH_CAP:
        raise ValueError("the alternating orbit needs an even width from 4 "
                         f"to {ORBIT_WIDTH_CAP}")
    alt0 = tuple(j % 2 for j in range(width))
    alt1 = alt0[1:] + alt0[:1]
    report = CaseReport("periodic-orbit")
    for arrows in itertools.product(ARROWS, repeat=width):
        report.record(f"u={''.join(str(a) for a in arrows)}", (alt1, alt0),
                      tuple(_walk(a_local, alt, (arrows,), True)
                            for alt in (alt0, alt1)))
    return report


def verify_color_uniformity(n: int = 3, trials: int = 100_000,
                            seed: int = 0,
                            sites_per_trial: int = 64) -> CaseReport:
    """From full occupancy with i.i.d. fair colors, surviving particles
    stay fair: the blue fraction among occupied sites is 1/2 and the blue
    density is half the occupancy density, both within 4 standard errors.

    A run that cannot form a standard error (fewer than two trials keep a
    particle, or no band varies between trials) raises ``ValueError``."""
    if not 0 <= n <= density.EXACT_LIMIT:
        raise ValueError(f"color uniformity needs n in the exact regime [0, "
                         f"{density.EXACT_LIMIT}]; got n={n}")
    half_density = float(density.exact_density(n)) / 2.0
    occ_counts, blue_counts = density.color_density_batch(
        n, trials, seed, sites_per_trial)
    live = occ_counts > 0
    if np.count_nonzero(live) < 2:
        raise ValueError("color uniformity needs at least two trials that "
                         "keep a particle for a standard error")
    bands = (("blue fraction among occupied",
              blue_counts[live] / occ_counts[live], 0.5),
             ("blue density", blue_counts / (sites_per_trial + 1),
              half_density))
    ses = [float(values.std(ddof=1)) / np.sqrt(values.size)
           for _, values, _ in bands]
    # one band without spread beside one with it is a finding, not a
    # degenerate run: a batch that paints every merge blue gives exactly that
    if not any(ses):
        raise ValueError("color uniformity needs a spread between trials "
                         "for a standard error; every band has none")
    report = CaseReport("color-uniformity")
    for (name, values, target), se in zip(bands, ses):
        est = float(values.mean())
        ok = abs(est - target) <= 4.0 * se
        report.record(f"{name}: {est:.5f} vs {target:.5f} (se {se:.2e})",
                      True, bool(ok))
    return report


def verify_proposition_bounds(n: int, trials: int, seed: int,
                              sites_per_trial: int = 32) -> CaseReport:
    """Model ``a``'s pair statistic from the uniform, all-ones and
    all-zeros starts lies in [0, d(n)], the coalescing density, and from
    all ones reaches d(n-1)/2; a violation counts beyond four standard
    errors.  n outside [1, EXACT_LIMIT] or trials < 2 raise ``ValueError``."""
    if not 1 <= n <= density.EXACT_LIMIT or trials < 2:
        raise ValueError("proposition bounds need n >= 1 and at least two "
                         "trials for a standard error, and n <= "
                         f"{density.EXACT_LIMIT}, the exact regime; got n={n}")
    lower = float(density.exact_density(n - 1) / 2)
    upper = float(density.exact_density(n))
    report = CaseReport("proposition-bounds")
    for init in ("uniform", "ones", "zeros"):
        rep = density.mc_pair_statistic_A(init, n, trials, seed,
                                          sites_per_trial)
        est, band = rep.mc_estimate, 4.0 * rep.mc_halfwidth / density.Z95
        report.record(f"{init}: estimate {est:.6f} <= upper bound "
                      f"{upper:.6f} (band {band:.2e})", True,
                      est <= upper + band)
        report.record(f"{init}: estimate {est:.6f} >= 0 (band {band:.2e})",
                      True, est >= -band)
        if init == "ones":
            report.record(f"ones: estimate {est:.6f} >= lower bound "
                          f"{lower:.6f} (band {band:.2e})", True,
                          est >= lower - band)
    return report


SUITES = {
    "commutation": verify_commutation,
    "domination": verify_domination,
    "monotonicity": verify_monotonicity,
    "projection": verify_projection,
    "periodic-orbit": verify_periodic_orbit,
}


#: Statistical suites by CLI name, with the name of their function here:
#: it is looked up at call time, so a wrapper set on it here is what runs.
STATISTICAL = {"color-uniformity": "verify_color_uniformity",
               "proposition-bounds": "verify_proposition_bounds"}


def run_all() -> list[CaseReport]:
    """Run the five deterministic suites."""
    return [fn() for fn in SUITES.values()]
