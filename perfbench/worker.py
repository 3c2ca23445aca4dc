"""One fresh benchmark process: set up pcalab, then run one workload.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``--probe`` imports ``pcalab.cli``, builds its parser and prints the
monotonic clock at that moment, so the parent can time set-up from the
moment it spawned this process.  Otherwise the process sets up the same
way, runs one untimed warm pass over the workload's operations, then timed
passes until ``--seconds`` have elapsed, and prints one JSON line.  A
reference kernel timed before and after every call of a calibrated
workload restates the call at the nominal machine speed (see
``reference.py``).  Peak RSS is read after the warm pass, before the first
kernel runs.

Every pass's output is checked; an operation whose exit status or check
fails, or whose stdout differs from its first pass, counts as failed and is
never retried.  The warm pass also checks each operation's ``work`` counts
under the tracer.  With ``--trace 1`` untraced and traced passes alternate:
traced outputs must equal untraced ones bit for bit, and the result carries
per-layer metrics plus the spans file written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import NOMINAL_KERNEL_S, kernel_time  # noqa: E402
from tracing import PER_LAYER, Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS, load_expected, sha256  # noqa: E402

MIN_PASSES = 3  # timed passes per run, whatever --seconds says
MIN_TRACED_PASSES = 4  # two untraced and two traced


def load_cli():
    """Import the checkout's own pcalab (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import pcalab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pcalab imported from {cli.__file__}, not {SRC}")
    cli.build_parser()
    return cli


def call(cli, argv) -> tuple[str, int | None, float, str | None]:
    """Run ``cli.main(argv)`` with stdout captured: (out, status, s, error)."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - recorded and counted as failed
        status, error = None, traceback.format_exc(limit=3)
    return buf.getvalue(), status, time.perf_counter() - start, error


class Run:
    """Passes over one workload's operations, with the failure ledger."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}

    def run_op(self, op, audit: bool = False) -> float:
        """Run and check one operation; return the time of the call.

        With ``audit`` and ``op.work``, the call runs traced and the
        tracer's counts are checked against ``op.work``.
        """
        tracer = Tracer() if audit and op.work else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            out, status, seconds, error = call(self.cli, op.argv)
        self.attempted += 1
        found = [error] if error else op.problems(out, status)
        if tracer and not error:
            found += op.work_problems(tracer.counts)
        if self.first.setdefault(op.label, sha256(out)) != sha256(out):
            found.append("stdout differs from the first pass")
        if found:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in found)
        return seconds

    def run_pass(self, audit: bool = False) -> float:
        """Run every operation once; return the summed time of the calls."""
        return sum(self.run_op(op, audit) for op in self.ops)

    def timed_pass(self, before: float | None) -> tuple:
        """One pass; its raw time, its nominal time and the last kernel time.

        ``before`` is the kernel time just before the pass, or None for an
        uncalibrated workload, whose nominal time is its raw time.
        Otherwise the kernel is timed after every call, and each call is
        scaled by the mean of the kernel times around it.
        """
        raw = nominal = 0.0
        for op in self.ops:
            seconds = self.run_op(op)
            raw += seconds
            if before is None:
                nominal += seconds
                continue
            after = kernel_time()
            nominal += seconds * NOMINAL_KERNEL_S * 2 / (before + after)
            before = after
        return raw, nominal, before


def run_workload(cli, ops, seconds: float, trace: bool,
                 calibrated: bool) -> dict:
    """Warm pass, then timed passes; the ledger, samples and layer metrics."""
    run = Run(cli, ops)
    start = time.perf_counter()
    # warm: lazy set-up and page faults; checked and audited, not timed
    run.run_pass(audit=True)
    laps = [time.perf_counter() - start]  # a pass with its checks
    # the timed passes repeat the warm pass's work; the kernels add their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel = kernel_time() if calibrated else None
    raw: dict[bool, list[float]] = {False: [], True: []}
    nominal: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    spans: list[list] = []
    deadline = time.perf_counter() + seconds
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    k = 0
    # start a pass only if a typical one still ends before the deadline
    while (k < min_passes
           or time.perf_counter() + median(laps) <= deadline):
        start = time.perf_counter()
        is_traced = trace and k % 2 == 1
        if is_traced:
            tracer = Tracer()
            with tracer.installed():
                sample = run.timed_pass(kernel)
            layers.append(tracer.metrics())
            spans.append(tracer.spans)
        else:
            sample = run.timed_pass(kernel)
        raw[is_traced].append(sample[0])
        nominal[is_traced].append(sample[1])
        kernel = sample[2]
        laps.append(time.perf_counter() - start)
        k += 1
    wall_s = median(nominal[False])
    result = {"attempted": run.attempted, "failed": run.failed,
              "problems": run.problems[:20], "wall_s": wall_s,
              "wall_samples": raw[False], "peak_rss_mb": peak_rss_mb}
    if trace:
        per_layer = {m: (median if unit_of(m) in ("s", "fraction")
                         else median_low)(sample[m] for sample in layers)
                     for m in layers[0]}
        # at the nominal speed, as wall_s is; self times stay raw
        per_layer["traced_wall_s"] = median(nominal[True])
        per_layer["trace_overhead_frac"] = (per_layer["traced_wall_s"]
                                            / wall_s - 1)
        result["layers"] = {m: per_layer[m] for m in PER_LAYER}
        result["traced_samples"] = raw[True]
        result["spans"] = spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    if args.workload is None:
        parser.error("--workload is required without --probe")
    ops = WORKLOADS[args.workload].ops(args.seed, load_expected())
    result = run_workload(cli, ops, args.seconds, bool(args.trace),
                          WORKLOADS[args.workload].calibrated)
    spans = result.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s",
                                               "parent"],
                                    "passes": spans}), encoding="utf-8")
        result["spans_file"] = str(path.relative_to(HERE.parent))
    import numpy
    result.update(ready=ready, python=sys.version.split()[0],
                  numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
