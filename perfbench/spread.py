"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload mc-deep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload exact --seeds 1-10 --trace 1

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with ``n=4``) and the spread ``(q3 - q1) / median``, and the same for the raw medians
that ``run.py`` prints beside the calibrated ones.  The last line is the
same summary as JSON, with every run's values, so that two commits can be
compared run by run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RAW = re.compile(r"^raw (.+) median = (\S+) s$")


def parse_seeds(words: list[str]) -> list[int]:
    seeds = []
    for word in words:
        lo, _, hi = word.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges such as 1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    runs, raws = [], []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        raws.append({m.group(1): float(m.group(2)) for m in
                     map(RAW.match, proc.stdout.splitlines()) if m})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
            flush=True)
    summary = {
        "workload": args.workload, "seeds": seeds, "trace": args.trace,
        "seconds": args.seconds,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {m: dict(summarize([r["metrics"][m]["value"]
                                       for r in runs]), unit=v["unit"])
                    for m, v in runs[0]["metrics"].items()},
        "raw": {m: dict(summarize([r[m] for r in raws]), unit="s")
                for m in raws[0]},
    }
    for m, s in [*summary["metrics"].items(),
                 *((f"raw {m}", s) for m, s in summary["raw"].items())]:
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{m}: median {s['median']:.6g} {s['unit']}, "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {spread}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
