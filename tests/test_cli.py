"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import json
import time
import warnings
from fractions import Fraction

import pytest

from pcalab import density, verify
from pcalab.cli import main
from pcalab.density import mc_density
from pcalab.reports import CSV_HEADER, to_csv, to_json, write_report
from pcalab.verify import CaseReport


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def assert_one_error_line(status, captured):
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestReports:
    def test_csv_schema_header_is_frozen(self):
        assert CSV_HEADER == \
            "n,exact_num,exact_den,approx,estimate,halfwidth,trials,seed"

    def test_csv_row_splits_the_rational(self):
        rep = mc_density("c", "full", 2, 400, seed=9)
        text = to_csv([rep])
        header, row = text.strip().split("\n")
        cells = row.split(",")
        assert header == CSV_HEADER
        assert cells[0] == "2" and cells[1] == "5" and cells[2] == "8"
        assert cells[6] == "400" and cells[7] == "9"

    def test_json_round_trips_exactly(self):
        rep = mc_density("c", "full", 1, 300, seed=4)
        parsed = json.loads(to_json([rep]))
        assert parsed == [{
            "n": 1,
            "exact_num": 3, "exact_den": 4,
            "approx": float(Fraction(3, 4)),
            "estimate": rep.mc_estimate,
            "halfwidth": rep.mc_halfwidth,
            "trials": 300, "seed": 4,
        }]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_report([], "yaml")

    def test_single_trial_reports_are_strict(self, capsys):
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        status, out = run(capsys, "density", "--model", "c", "--n", "2",
                          "--trials", "1", "--format", "json")
        assert status == 0
        (row,) = json.loads(out, parse_constant=refuse)
        assert row["halfwidth"] is None
        status, out = run(capsys, "density", "--model", "c", "--n", "2",
                          "--trials", "1", "--format", "csv")
        assert status == 0
        assert out.splitlines()[1].split(",")[5] == ""


class TestOracleCommand:
    def test_closed_form_prints_the_rational(self, capsys):
        status, out = run(capsys, "oracle", "--which", "closed-form", "--n", "5")
        assert status == 0 and out == "231/512\n"

    def test_all_oracles_agree(self, capsys):
        _, a = run(capsys, "oracle", "--which", "closed-form", "--n", "7")
        _, b = run(capsys, "oracle", "--which", "hitting-time", "--n", "7")
        _, c = run(capsys, "oracle", "--which", "interface-walk", "--n", "7")
        assert a == b == c

    def test_out_of_range_is_a_usage_error(self, capsys):
        status, _ = run(capsys, "oracle", "--which", "closed-form", "--n", "600")
        assert status == 2

    @pytest.mark.parametrize("which", ["log-density", "asymptotic-ratio"])
    def test_log_density_past_its_limit_is_refused_at_once(self, capsys,
                                                           which):
        t0 = time.perf_counter()
        status = main(["oracle", "--which", which, "--n", "10000001"])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert "10000000" in captured.err
        assert elapsed < 2.0


class TestVerifyCommand:
    def test_all_runs_five_suites(self, capsys):
        status, out = run(capsys, "verify", "--suite", "all")
        assert status == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all(entry["passed"] for entry in payload)

    def test_single_suite_text_mode(self, capsys):
        status, out = run(capsys, "verify", "--suite", "domination",
                          "--format", "text")
        assert status == 0
        assert out == "domination: pass (16/16)\n"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        broken = CaseReport("domination", 16, 15, [("y=11 u=10", "1", "0")])
        monkeypatch.setitem(verify.SUITES, "domination", lambda: broken)
        status, out = run(capsys, "verify", "--suite", "domination")
        assert status == 1
        assert json.loads(out)[0]["failures"]

    def test_color_uniformity_runs_when_named(self, capsys):
        status, out = run(capsys, "verify", "--suite", "color-uniformity",
                          "--n", "2", "--trials", "4000", "--seed", "3")
        assert status == 0
        assert json.loads(out)[0]["suite"] == "color-uniformity"


    def test_single_color_trial_is_an_input_error(self, capsys):
        status = main(["verify", "--suite", "color-uniformity", "--trials",
                       "1"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)

    @pytest.mark.parametrize("seed", ["1", "5"])
    def test_run_without_a_standard_error_is_an_input_error(self, capsys,
                                                            seed):
        # seed 1 keeps a particle in one trial only; seed 5 keeps one in
        # each, with equal blue fractions and equal blue densities
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main(["verify", "--suite", "color-uniformity",
                           "--trials", "2", "--n", "6", "--sites", "1",
                           "--seed", seed])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert "RuntimeWarning" not in captured.err


class TestDensityCommand:
    def test_csv_row_with_exact_value(self, capsys):
        status, out = run(capsys, "density", "--model", "c", "--init", "full",
                          "--n", "2", "--trials", "5000", "--seed", "1",
                          "--format", "csv")
        assert status == 0
        header, row = out.strip().split("\n")
        assert header == CSV_HEADER
        cells = row.split(",")
        assert (cells[1], cells[2]) == ("5", "8")
        est, hw = float(cells[4]), float(cells[5])
        assert abs(est - 5 / 8) < 4 * hw

    def test_documented_invocation_hits_the_exact_value(self, capsys):
        status, out = run(capsys, "density", "--model", "c", "--init", "full",
                          "--n", "2", "--trials", "100000", "--seed", "1",
                          "--format", "csv")
        assert status == 0
        cells = out.strip().split("\n")[1].split(",")
        assert (cells[1], cells[2]) == ("5", "8")
        assert abs(float(cells[4]) - 5 / 8) < float(cells[5])

    def test_full_and_alternating_map_to_binary_inits(self, capsys):
        _, full = run(capsys, "density", "--model", "a", "--init", "full",
                      "--n", "1", "--trials", "400", "--seed", "3",
                      "--format", "json")
        _, ones = run(capsys, "density", "--model", "a", "--init", "ones",
                      "--n", "1", "--trials", "400", "--seed", "3",
                      "--format", "json")
        assert json.loads(full) == json.loads(ones)
        status, _ = run(capsys, "density", "--model", "a", "--init",
                        "alternating", "--n", "1", "--trials", "400",
                        "--seed", "3")
        assert status == 0

    def test_pair_statistic_for_the_binary_model(self, capsys):
        status, out = run(capsys, "density", "--model", "a", "--init",
                          "uniform", "--n", "1", "--trials", "5000",
                          "--seed", "2", "--format", "json")
        assert status == 0
        row = json.loads(out)[0]
        assert (row["exact_num"], row["exact_den"]) == (3, 8)


    def test_memory_error_is_an_input_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(density, "mc_density", exhausted)
        status = main(["density", "--model", "c", "--n", "3", "--trials",
                       "1000000000000"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)


class TestSimulateAndRender:
    def test_simulate_json_payload(self, capsys):
        status, out = run(capsys, "simulate", "--model", "c", "--init", "full",
                          "--width", "20", "--steps", "6", "--seed", "8",
                          "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["model"] == "c" and payload["offset"] == 6
        assert len(payload["cells"]) == 14
        assert payload["particles"] == payload["cells"].count("#")

    def test_render_text_and_svg(self, capsys):
        status, out = run(capsys, "render", "--model", "b", "--init", "uniform",
                          "--width", "16", "--steps", "4", "--seed", "5")
        assert status == 0 and len(out.splitlines()) == 5
        status, svg = run(capsys, "render", "--model", "d", "--init", "full",
                          "--width", "12", "--steps", "3", "--seed", "5",
                          "--format", "svg", "--arrows")
        assert status == 0 and svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")

    def test_custom_word_init(self, capsys):
        status, out = run(capsys, "simulate", "--model", "a", "--init",
                          "word:01", "--width", "8", "--steps", "0",
                          "--seed", "0")
        assert status == 0 and out.splitlines()[0] == "01010101"

    def test_bad_word_glyphs_are_usage_errors(self, capsys):
        status, _ = run(capsys, "simulate", "--model", "b", "--init",
                        "word:0x", "--width", "8", "--steps", "1")
        assert status == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--model", "c", "--frobnicate"])
        assert err.value.code == 2


class TestEvolveCylinderCommand:
    def test_alternating_mixture_is_reported_invariant(self, capsys):
        status, out = run(capsys, "evolve-cylinder", "--model", "a", "--init",
                          "alternating-mix", "--length", "8", "--steps", "1",
                          "--residual")
        assert status == 0
        assert "residual 0" in out

    def test_rule_file_round_trip(self, capsys, tmp_path):
        from pcalab.cylinder import dump_rule_text, model_a_rule
        path = tmp_path / "rule.txt"
        path.write_text(dump_rule_text(model_a_rule()), encoding="utf-8")
        status, out = run(capsys, "evolve-cylinder", "--rule-file", str(path),
                          "--init", "word:01", "--start", "-1", "--steps", "1",
                          "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["weights"] == {"0": "1"}

    def test_missing_rule_file_is_an_input_error(self, capsys, tmp_path):
        status = main(["evolve-cylinder", "--rule-file",
                       str(tmp_path / "missing.txt")])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_word_listed_twice_is_named(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("alphabet: 0 1\nneighborhood: -1 0\n"
                        "00 : 1/2 1/2\n01 : 1 0\n10 : 0 1\n"
                        "11 : 1/2 1/2\n11 : 1 0\n", encoding="utf-8")
        status = main(["evolve-cylinder", "--rule-file", str(path),
                       "--init", "uniform", "--length", "3"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert "'11'" in captured.err

    def test_window_past_the_cap_is_refused_at_once(self, capsys,
                                                     monkeypatch):
        from pcalab import cylinder

        def never(mu, f):
            raise AssertionError("a refused window was evolved")

        monkeypatch.setattr(cylinder, "evolve_measure", never)
        t0 = time.perf_counter()
        status = main(["evolve-cylinder", "--length", "21"])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert elapsed < 2.0

    def test_lifted_word_init(self, capsys):
        status, out = run(capsys, "evolve-cylinder", "--lift", "b", "--init",
                          "word:##", "--steps", "1")
        assert status == 0
        assert "window start=1 length=1" in out


    @pytest.mark.parametrize("argv", [
        ["--init", "word:0123"],
        ["--lift", "c", "--init", "word:xy"],
    ])
    def test_bad_word_is_named(self, capsys, argv):
        status = main(["evolve-cylinder", *argv])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert repr(argv[-1][5:]) in captured.err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        argv = ["density", "--model", "c", "--init", "full", "--n", "3",
                "--trials", "2000", "--seed", "7", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_a_usage_error(self, capsys):
        status = main(["oracle", "--which", "closed-form", "--n", "1",
                       "--out", "/nonexistent-dir/report.txt"])
        capsys.readouterr()
        assert status == 2

    def test_environment_seed_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PCALAB_SEED", "123")
        _, from_env = run(capsys, "simulate", "--model", "c", "--init",
                          "uniform", "--width", "12", "--steps", "2",
                          "--format", "json")
        monkeypatch.delenv("PCALAB_SEED")
        _, explicit = run(capsys, "simulate", "--model", "c", "--init",
                          "uniform", "--width", "12", "--steps", "2",
                          "--seed", "123", "--format", "json")
        assert json.loads(from_env) == json.loads(explicit)
