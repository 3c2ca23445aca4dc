"""pcalab benchmark: four CLI workloads, each measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, a table

Run from the root of a checkout; the benchmark uses that checkout's
``src/pcalab`` and nothing installed.  With ``--trace 0`` it reports the
end-to-end metrics:

- ``wall_s``: median time of one warm pass over the workload's CLI calls,
  tracing off (the inputs are fixed, so this is the inverse of throughput),
  each call stated at the nominal machine speed measured by the reference
  kernel of ``reference.py`` (every workload but mc-deep, whose raw median
  it is); the raw median is printed beside it;
- ``setup_s``: median, over several fresh interpreters, of the time from
  spawning one until ``pcalab.cli`` is imported and its parser is built,
  each stated at the nominal start-up speed measured by the reference
  interpreter that ``reference.py`` spawns just before it;
- ``peak_rss_mb``: peak resident set of the workload's own process after
  its first pass.

``failed_frac`` (failed operations over attempted ones) is printed too; the
last line carries its parts as ``failed`` and ``attempted``.  With
``--trace 1`` a separate traced run reports the per-layer metrics of
``tracing.PER_LAYER`` instead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; exit status 0 means the
run completed, even if an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from reference import NOMINAL_START_S, START_ARGS  # noqa: E402
from tracing import PER_LAYER, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 8  # fresh interpreters per run, plus the workload's own
RUN_LIMIT_S = 170.0  # every process of one run ends within this


class BenchError(RuntimeError):
    """A run could not complete; no result is printed."""


def _spawn(args, deadline: float) -> tuple[str, float]:
    """Run a fresh interpreter; its stdout and the time it was spawned."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PCALAB_SEED")}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=deadline - spawned)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout, spawned


def _spawn_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker afresh, just after the start reference.

    Returns the worker's JSON line with ``setup_s``, its set-up time at the
    nominal start speed, added.
    """
    _, spawned = _spawn(START_ARGS, deadline)
    reference = time.monotonic() - spawned
    stdout, spawned = _spawn([str(WORKER), *args], deadline)
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = ((result["ready"] - spawned)
                         * NOMINAL_START_S / reference)
    return result, reference


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: the worker's result plus the metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup, references = [], []

    def probe(count: int) -> None:
        for _ in range(0 if trace else count):
            ready, reference = _spawn_worker(["--probe"], deadline)
            setup.append(ready["setup_s"])
            references.append(reference)

    # probes before and after the workload sample two moments of the run
    probe(SETUP_PROBES // 2)
    result, reference = _spawn_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(int(trace))], deadline)
    setup.append(result["setup_s"])
    references.append(reference)
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    if trace:
        values = result["layers"]
        metrics = {m: {"value": values[m], "unit": unit_of(m)}
                   for m in PER_LAYER}
    else:
        values = {"wall_s": result["wall_s"],
                  "setup_s": median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in END_TO_END.items()}
    result.update(metrics=metrics, setup_samples=setup,
                  start_reference_samples=references)
    return result


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def report(name: str, result: dict) -> None:
    """Human-readable lines; they precede the JSON result line."""
    print(f"== {name}")
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"raw wall median = {median(result['wall_samples']):.6g} s")
    if "traced_samples" in result:  # the units of the spans' self times
        print(f"raw traced wall median = "
              f"{median(result['traced_samples']):.6g} s")
    if result["start_reference_samples"]:
        print(f"raw start reference median = "
              f"{median(result['start_reference_samples']):.6g} s")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"fraction ({result['failed']}/{result['attempted']} operations)")
    print(f"samples: {len(result['wall_samples'])} untraced passes, "
          f"{len(result['setup_samples'])} set-ups"
          + (f", {len(result['traced_samples'])} traced passes"
             if "traced_samples" in result else ""))
    if "spans_file" in result:
        print(f"spans: {result['spans_file']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcalab" / "cli.py").is_file():
        print(f"error: no pcalab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first = results[names[0]]
    print(f"environment: python {first['python']}, numpy {first['numpy']}, "
          f"{os.cpu_count()} cores, src_lines {src_lines()}")
    if len(names) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
