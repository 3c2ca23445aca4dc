"""The benchmark's workloads: pcalab CLI argv lists and their output checks.

Standard library only, so the orchestrator can list and validate workloads
without importing pcalab.  Every operation is one ``pcalab.cli.main(argv)``
call; its check returns a list of problems, and an empty list means the
output is correct.  Expected values are computed here from first principles
(``math.comb``, the sizes an argv fixes), never taken from pcalab itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: Key under which a seed-free operation's digest is recorded.
ANY_SEED = "*"

_Z95 = 1.96  # pcalab reports 95% halfwidths; one standard error is hw / 1.96


def closed_form(n: int) -> Fraction:
    """d(n) = C(2n+1, n) / 4^n, the coalescing model's density at step n."""
    return Fraction(math.comb(2 * n + 1, n), 4 ** n)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Op:
    """One CLI call, the check on its stdout, and its recorded digest.

    ``work`` maps counts of ``tracing.Tracer`` to the values one call must
    show; the worker checks them on the untimed warm pass, run traced.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    digest: str | None = None
    work: dict[str, int] | None = None

    def problems(self, out: str, code) -> list[str]:
        if code != 0:
            return [f"exit status {code!r}"]
        try:
            found = self.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unparseable output: {exc!r}"]
        if self.digest is not None and sha256(out) != self.digest:
            found.append("stdout digest differs from the recorded one")
        return found

    def work_problems(self, counts: dict[str, int]) -> list[str]:
        return [f"{key} = {counts.get(key, 0)}, not {want}"
                for key, want in (self.work or {}).items()
                if counts.get(key, 0) != want]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int, dict], tuple[Op, ...]]
    calibrated: bool  # calls restated by the reference kernel (reference.py)


def load_expected() -> dict:
    """Recorded stdout digests: ``{label: {seed or "*": sha256}}``."""
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))["sha256"]


def _digest(expected: dict, label: str, seed: int | None) -> str | None:
    """The digest recorded for this seed, else the one for every seed."""
    table = expected.get(label, {})
    return table.get(str(seed), table.get(ANY_SEED))


def _op(expected: dict, label: str, argv: str, check, seed=None,
        work=None) -> Op:
    words = argv.split()
    if seed is not None:
        words += ["--seed", str(seed)]
    return Op(label, tuple(words), check, _digest(expected, label, seed),
              work)


# ---------------------------------------------------------------- checks

def _check_density(n: int, trials: int, seed: int):
    want = closed_form(n)

    def check(out: str) -> list[str]:
        (row,) = json.loads(out)
        found = []
        if Fraction(row["exact_num"], row["exact_den"]) != want:
            found.append(f"exact is not C({2 * n + 1},{n})/4^{n}")
        if (row["n"], row["trials"], row["seed"]) != (n, trials, seed):
            found.append("n, trials or seed echoed wrongly")
        se = row["halfwidth"] / _Z95
        if not abs(row["estimate"] - float(want)) <= 4.0 * se:
            found.append(f"estimate {row['estimate']!r} is more than 4 "
                         f"standard errors ({se:.3g}) from {float(want)!r}")
        return found
    return check


def _check_suites(names: tuple[str, ...] | None):
    def check(out: str) -> list[str]:
        reports = json.loads(out)
        found = [f"suite {r['suite']} failed" for r in reports
                 if not r["passed"] or r["cases_passed"] != r["cases_total"]]
        if names is not None and tuple(r["suite"] for r in reports) != names:
            found.append(f"suites run: {[r['suite'] for r in reports]}")
        return found
    return check


def _check_cylinder_total(out: str) -> list[str]:
    lines = out.splitlines()
    total = sum(Fraction(line.split()[1]) for line in lines[1:])
    return [] if total == 1 else [f"weights sum to {total}, not 1"]


def _check_lift(n: int):
    want = closed_form(n)

    def check(out: str) -> list[str]:
        weights = dict(line.split() for line in out.splitlines()[1:])
        occupied = Fraction(weights["#u"]) + Fraction(weights["#r"])
        if occupied != want:
            return [f"#u + #r = {occupied}, not d({n}) = {want}"]
        return []
    return check


def _check_rational(want: Fraction):
    def check(out: str) -> list[str]:
        return [] if out.strip() == str(want) else ["oracle value differs"]
    return check


def _check_svg(out: str) -> list[str]:
    if out.startswith("<svg ") and out.endswith("</svg>\n"):
        return []
    return ["output is not one complete <svg> document"]


def _check_cycle_text(width: int, steps: int):
    def check(out: str) -> list[str]:
        cells, footer = out.splitlines()
        found = []
        if len(cells) != width or set(cells) - {"0", "1"}:
            found.append(f"final row is not {width} binary cells")
        want = (f"# model=a steps={steps} offset=0 "
                f"particles={cells.count('1')}")
        if footer != want:
            found.append(f"footer {footer!r} != {want!r}")
        return found
    return check


# ------------------------------------------------------------- workloads

def _mc_deep(seed: int, expected: dict) -> tuple[Op, ...]:
    return (_op(expected, "density-c-n200",
                "density --model c --init full --n 200 --trials 100000 "
                "--sites 64 --format json",
                _check_density(200, 100_000, seed), seed),)


def _color_work(n: int, sites: int, trials: int, seed: int) -> dict:
    """Counts one color-uniformity call must show, fixed by its argv.

    The run spans ``n + sites + 1`` cells in 64-bit words, on two planes
    (occupancy and color).  It draws one color word per cell word and one
    arrow word per cell word and step, all under ``seed``, and steps every
    trial's words ``n`` times.  The suite's stdout holds only its verdict,
    the same for every seed; these counts catch a run that drew fewer
    trials, fewer steps or another seed's numbers.
    """
    words = trials * -(-(n + sites + 1) // 64)
    drawn = words * (1 + n)
    return {"stream.words": drawn, f"stream.words.seed={seed}": drawn,
            "packed.trial_words_stepped": words * n}


def _mc_wide(seed: int, expected: dict) -> tuple[Op, ...]:
    return (_op(expected, "color-uniformity-n16",
                "verify --suite color-uniformity --n 16 --sites 1024 "
                "--trials 100000",
                _check_suites(("color-uniformity",)), seed,
                _color_work(16, 1024, 100_000, seed)),)


def _exact(seed: int, expected: dict) -> tuple[Op, ...]:
    # Seed-free: every output is an exact rational or a fixed certificate.
    oracle = _check_rational(closed_form(512))
    return (
        _op(expected, "cylinder-a-L12",
            "evolve-cylinder --model a --init uniform --length 12",
            _check_cylinder_total),
        _op(expected, "lift-c-d6",
            "evolve-cylinder --lift c --init word:####### --steps 6 "
            "--marginal 6:1", _check_lift(6)),
        _op(expected, "oracle-hitting-512",
            "oracle --which hitting-time --n 512", oracle),
        _op(expected, "oracle-walk-512",
            "oracle --which interface-walk --n 512", oracle),
        _op(expected, "verify-all", "verify --suite all", _check_suites(None)),
    )


def _scalar_render(seed: int, expected: dict) -> tuple[Op, ...]:
    return (
        _op(expected, "render-d-svg",
            "render --model d --init full --width 400 --steps 300 "
            "--format svg --arrows", _check_svg, seed),
        _op(expected, "simulate-a-cycle",
            "simulate --model a --init uniform --width 1024 --steps 1024 "
            "--boundary cycle", _check_cycle_text(1024, 1024), seed),
    )


WORKLOADS = {w.name: w for w in (
    Workload("mc-deep",
             "Deep, narrow Monte Carlo (200 steps x 5 words): RNG about 62%, "
             "kernels 36%; where RNG hoisting and light-cone trimming show.",
             _mc_deep, False),
    Workload("mc-wide",
             "Shallow, wide two-plane Monte Carlo (16 steps x 17 words): "
             "unpack and reduce set memory; trimming skips nothing here.",
             _mc_wide, True),
    Workload("exact",
             "Exact Fraction cylinder engine (about 92% of the time), both DP "
             "oracles and the certificate suites; no RNG or packed work.",
             _exact, True),
    Workload("scalar-render",
             "Scalar reference steppers with merge genealogy and cycle "
             "boundary plus SVG rendering; the only workload on lattice/render.",
             _scalar_render, True),
)}
