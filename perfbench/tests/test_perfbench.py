"""Self-tests of the benchmark: wrappers, checks, failure counting, spans.

    python3 -m pytest perfbench/tests -q

Small argv lists stand in for the full workloads so the suite stays fast.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402
from worker import Run, call, load_cli  # noqa: E402
from workloads import Op, WORKLOADS, closed_form  # noqa: E402

SMALL = (
    "density --model c --init full --n 10 --trials 300 --format json --seed 3",
    "verify --suite color-uniformity --n 2 --trials 400 --sites 64 --seed 1",
    "evolve-cylinder --model a --init uniform --length 5 --steps 2",
    "evolve-cylinder --lift c --init word:#### --steps 3 --marginal 3:1",
    "oracle --which hitting-time --n 12",
    "oracle --which interface-walk --n 12",
    "verify --suite all",
    "render --model d --init full --width 30 --steps 8 --format svg --arrows",
    "simulate --model a --init uniform --width 40 --steps 40 --boundary cycle",
)


@pytest.fixture(scope="module")
def cli():
    return load_cli()


def _outputs(cli, tracer=None) -> list[str]:
    if tracer is None:
        return [call(cli, argv.split())[0] for argv in SMALL]
    with tracer.installed():
        return [call(cli, argv.split())[0] for argv in SMALL]


def test_traced_outputs_equal_untraced_bit_for_bit(cli):
    plain = _outputs(cli)
    tracer = Tracer()
    assert _outputs(cli, tracer) == plain
    assert all(plain)
    # every layer was exercised, and every wrapper was removed afterwards
    assert {span[0] for span in tracer.spans} == {name for name, *_ in LAYERS}
    for _, module, attr, _ in LAYERS:
        assert not hasattr(getattr(sys.modules[module], attr), "__wrapped__")


def test_wrapped_function_returns_identical_array():
    from pcalab import stream
    trials = np.arange(50, dtype=np.int64)
    want = stream.block_bits_vec(7, trials, 3, 2)
    tracer = Tracer()
    with tracer.installed():
        got = stream.block_bits_vec(7, trials, 3, 2)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert tracer.counts["stream.words"] == 50


def test_self_times_of_siblings_never_exceed_their_parent(cli):
    tracer = Tracer()
    _outputs(cli, tracer)
    duration = [end - start for _, start, end, _ in tracer.spans]
    children = [0.0] * len(tracer.spans)
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        assert children[i] <= duration[i] + 1e-12, name
        if parent >= 0:
            assert tracer.spans[parent][1] <= start <= end <= \
                tracer.spans[parent][2]
    assert all(v >= -1e-12 for v in tracer.self_times().values())
    metrics = tracer.metrics()
    assert metrics["verify.cases"] == 2 + 32 + 16 + 36 + 36 + 64
    assert metrics["cylinder.evolve_measure.calls"] == 5


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    fake = types.ModuleType("perfbench_fake_layer")
    fake.inner = lambda: None
    fake.outer = lambda: (fake.inner(), fake.inner())
    sys.modules[fake.__name__] = fake
    try:
        layers = (("outer", fake.__name__, "outer", None),
                  ("inner", fake.__name__, "inner", None))
        tracer = Tracer(layers, clock=lambda: float(next(ticks)))
        with tracer.installed():
            fake.outer()
    finally:
        del sys.modules[fake.__name__]
    # outer 0..5, inner 1..2 and 3..4: outer self = 5 - 2
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def _one_op_run(cli, op: Op) -> Run:
    bench = Run(cli, (op,))
    bench.run_pass()
    return bench


def test_recorded_values_pass_and_corrupted_ones_fail(cli):
    argv = ("oracle", "--which", "hitting-time", "--n", "12")
    good = Op("oracle", argv, workloads._check_rational(closed_form(12)))
    assert _one_op_run(cli, good).failed == 0
    wrong = Op("oracle", argv, workloads._check_rational(Fraction(1, 3)))
    bad = _one_op_run(cli, wrong)
    assert (bad.attempted, bad.failed) == (1, 1)
    digest = Op("oracle", argv, good.check, digest="0" * 64)
    assert _one_op_run(cli, digest).failed == 1


def test_real_exact_op_fails_on_corrupted_recorded_digest(cli):
    corrupted = {"oracle-walk-512": {workloads.ANY_SEED: "0" * 64}}
    ops = WORKLOADS["exact"].ops(0, corrupted)
    (walk,) = [op for op in ops if op.label == "oracle-walk-512"]
    assert _one_op_run(cli, walk).failed == 1
    (real,) = [op for op in WORKLOADS["exact"].ops(0, workloads.load_expected())
               if op.label == "oracle-walk-512"]
    assert real.digest is not None
    assert _one_op_run(cli, real).failed == 0


def test_warm_pass_checks_work_counts(cli):
    argv = tuple(SMALL[1].split())  # n 2, sites 64, trials 400, seed 1
    check = workloads._check_suites(("color-uniformity",))

    def audited(work: dict) -> Run:
        bench = Run(cli, (Op("color", argv, check, work=work),))
        bench.run_pass(audit=True)
        return bench

    assert audited(workloads._color_work(2, 64, 400, 1)).failed == 0
    # another seed's numbers, fewer trials, fewer steps
    for wrong in (workloads._color_work(2, 64, 400, 2),
                  workloads._color_work(2, 64, 399, 1),
                  workloads._color_work(1, 64, 400, 1)):
        assert audited(wrong).failed == 1
    # counts are checked on audited passes only
    bench = Run(cli, (Op("color", argv, check,
                         work=workloads._color_work(2, 64, 400, 2)),))
    bench.run_pass()
    assert bench.failed == 0


def test_seed_free_digest_applies_to_every_seed():
    expected = {"color-uniformity-n16": {workloads.ANY_SEED: "a" * 64},
                "density-c-n200": {"3": "b" * 64}}
    for seed in (0, 3, 1000):
        (wide,) = WORKLOADS["mc-wide"].ops(seed, expected)
        assert wide.digest == "a" * 64
        assert wide.work[f"stream.words.seed={seed}"] == 28_900_000
    assert WORKLOADS["mc-deep"].ops(3, expected)[0].digest == "b" * 64
    assert WORKLOADS["mc-deep"].ops(4, expected)[0].digest is None


def test_density_and_lift_checks_catch_wrong_rationals(cli):
    out, status, _, _ = call(cli, SMALL[0].split())
    assert workloads._check_density(10, 300, 3)(out) == []
    assert workloads._check_density(11, 300, 3)(out)
    out, status, _, _ = call(cli, SMALL[3].split())
    assert workloads._check_lift(3)(out) == []
    assert workloads._check_lift(4)(out)


def test_exit_status_exception_and_drift_count_as_failed():
    class FakeCli:
        calls = 0

        @classmethod
        def main(cls, argv):
            cls.calls += 1
            if argv == ["boom"]:
                raise RuntimeError("boom")
            if argv == ["usage"]:
                raise SystemExit(2)
            print(cls.calls if argv == ["drift"] else "same")
            return 1 if argv == ["status"] else 0

    ops = tuple(Op(a, (a,), lambda out: []) for a in
                ("boom", "usage", "status", "drift", "ok"))
    bench = Run(FakeCli, ops)
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (5, 3)
    bench.run_pass()  # "drift" now differs from its first pass
    assert (bench.attempted, bench.failed) == (10, 7)
    assert FakeCli.calls == 10  # nothing retried


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
