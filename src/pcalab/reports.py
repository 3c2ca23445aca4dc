"""Serialization of density reports to the fixed CSV/JSON schemas."""

from __future__ import annotations

import json
import math

from .density import DensityReport

CSV_HEADER = "n,exact_num,exact_den,approx,estimate,halfwidth,trials,seed"


def row_fields(report: DensityReport) -> dict:
    """Schema fields in column order; rationals split into integer parts.

    A halfwidth that is not finite (a single trial has no spread) is
    ``None``: JSON ``null`` and an empty CSV cell, so both stay strict.
    """
    hw = report.mc_halfwidth
    return {
        "n": report.n,
        "exact_num": None if report.exact is None else report.exact.numerator,
        "exact_den": None if report.exact is None else report.exact.denominator,
        "approx": report.approx,
        "estimate": report.mc_estimate,
        "halfwidth": hw if math.isfinite(hw) else None,
        "trials": report.trials,
        "seed": report.seed,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(_cell(v) for v in row_fields(r).values())
                 for r in rows)
    return "\n".join(lines) + "\n"


def to_json(rows) -> str:
    return json.dumps([row_fields(r) for r in rows], indent=2) + "\n"


def write_report(rows, fmt: str) -> str:
    """Serialize reports in the ``csv`` or ``json`` schema."""
    if fmt == "csv":
        return to_csv(rows)
    if fmt == "json":
        return to_json(rows)
    raise ValueError(f"unknown report format {fmt!r}")
