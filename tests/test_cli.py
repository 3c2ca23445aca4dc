"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import itertools
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

import pcalab
from pcalab import cli, cylinder, density, lattice, packed, verify
from pcalab.cli import main
from pcalab.density import mc_density
from pcalab.verify import CaseReport


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def assert_one_error_line(status, captured):
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


DENSITY = ("density", "--model", "c", "--init", "full")
CSV_HEADER = "n,exact_num,exact_den,approx,estimate,halfwidth,trials,seed"


class TestReports:
    def test_csv_schema_header_is_frozen(self, capsys):
        status, out = run(capsys, *DENSITY, "--n", "1", "--trials", "10",
                          "--format", "csv")
        assert status == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_csv_row_splits_the_rational(self, capsys):
        status, out = run(capsys, *DENSITY, "--n", "2", "--trials", "400",
                          "--seed", "9", "--format", "csv")
        header, row = out.strip().split("\n")
        cells = row.split(",")
        assert status == 0
        assert header == ",".join(mc_density("c", "full", 2, 400,
                                             seed=9).to_dict())
        assert cells[0] == "2" and cells[1] == "5" and cells[2] == "8"
        assert cells[6] == "400" and cells[7] == "9"

    def test_json_round_trips_exactly(self, capsys):
        rep = mc_density("c", "full", 1, 300, seed=4)
        want = [{
            "n": 1,
            "exact_num": 3, "exact_den": 4,
            "approx": float(Fraction(3, 4)),
            "estimate": rep.mc_estimate,
            "halfwidth": rep.mc_halfwidth,
            "trials": 300, "seed": 4,
        }]
        assert [rep.to_dict()] == want
        status, out = run(capsys, *DENSITY, "--n", "1", "--trials", "300",
                          "--seed", "4", "--format", "json")
        assert status == 0 and json.loads(out) == want

    def test_unknown_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([*DENSITY, "--n", "1", "--format", "yaml"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("option", [["--seed", "5"], ["--format", "text"]])
    def test_seed_and_format_are_not_options(self, capsys, option):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--which", "closed-form", "--n", "3", *option])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and option[0] in captured.err


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
        broken = CaseReport("domination", 16, [("y=11 u=10", "1", "0")])
        monkeypatch.setitem(verify.SUITES, "domination", lambda: broken)
        status, out = run(capsys, "verify", "--suite", "domination")
        assert status == 1
        assert json.loads(out)[0]["failures"]

    def test_color_uniformity_runs_when_named(self, capsys):
        status, out = run(capsys, "verify", "--suite", "color-uniformity",
                          "--n", "2", "--trials", "4000", "--seed", "3")
        assert status == 0
        assert json.loads(out)[0]["suite"] == "color-uniformity"


    def test_proposition_bounds_pass_at_the_defaults(self, capsys):
        status, out = run(capsys, "verify", "--suite", "proposition-bounds")
        assert status == 0
        [entry] = json.loads(out)
        assert entry["suite"] == "proposition-bounds"
        assert (entry["cases_total"], entry["passed"]) == (7, True)

    def test_broken_kernel_fails_proposition_bounds(self, capsys,
                                                    monkeypatch):
        kernel_a = packed.kernel_a

        def broken(x, u, cycle=0):  # (left, cell) = (1, 0) now yields 0
            return kernel_a(x, u, cycle) & ~(packed.from_left(x, cycle) & ~x)

        monkeypatch.setattr(packed, "kernel_a", broken)
        status, out = run(capsys, "verify", "--suite", "proposition-bounds",
                          "--trials", "2000", "--format", "text")
        assert status == 1
        assert out.startswith("proposition-bounds: FAIL")

    @pytest.mark.parametrize("argv", [["--trials", "1"], ["--n", "0"],
                                      ["--n", "513"]])
    def test_proposition_bounds_input_errors(self, capsys, argv):
        status = main(["verify", "--suite", "proposition-bounds", *argv])
        assert_one_error_line(status, capsys.readouterr())

    @pytest.mark.parametrize("suite, n", [("proposition-bounds", "514"),
                                          ("color-uniformity", "600")])
    def test_n_past_the_exact_limit_names_the_n_given(self, capsys,
                                                      monkeypatch, suite, n):
        def never(*args):
            raise AssertionError("a refused run was simulated")

        monkeypatch.setattr(density, "mc_pair_statistic_A", never)
        monkeypatch.setattr(density, "color_density_batch", never)
        status = main(["verify", "--suite", suite, "--n", n, "--trials",
                       "10"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert f"n={n}" in captured.err and "512" in captured.err
        assert "density_log" not in captured.err

    @pytest.mark.parametrize("width", ["0", "2", "5", "-4"])
    def test_periodic_orbit_width_errors(self, capsys, width):
        status = main(["verify", "--suite", "periodic-orbit", "--width",
                       width])
        assert_one_error_line(status, capsys.readouterr())

    @pytest.mark.parametrize("width", ["18", "1000000"])
    def test_periodic_orbit_past_the_width_cap_walks_no_row(
            self, capsys, monkeypatch, width):
        def walk(*args):
            raise AssertionError("a row of arrows was walked")

        monkeypatch.setattr(verify, "_walk", walk)
        status = main(["verify", "--suite", "periodic-orbit", "--width",
                       width])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err == ("error: the alternating orbit needs an even "
                                "width from 4 to 16\n")

    @pytest.mark.parametrize("option, suite", [
        *itertools.product(["--n", "--trials", "--sites"],
                           ["all", *verify.SUITES]),
        *(("--width", suite) for suite in ["all", *verify.SUITES,
                                           *verify.STATISTICAL]
          if suite != "periodic-orbit")])
    def test_option_the_suite_does_not_read_is_refused(self, capsys, option,
                                                       suite):
        status = main(["verify", "--suite", suite, option, "6"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err.startswith(f"error: {option} applies only to")

    @pytest.mark.parametrize("suite", ["all", *verify.SUITES])
    def test_seed_outside_a_seeded_suite_is_refused(self, capsys, suite):
        status = main(["verify", "--suite", suite, "--seed", "5"])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err == ("error: --seed applies only to --suite "
                                "color-uniformity|proposition-bounds\n")

    def test_environment_seed_is_never_refused(self, capsys, monkeypatch):
        _, plain = run(capsys, "verify", "--suite", "all")
        monkeypatch.setenv("PCALAB_SEED", "5")
        status, from_env = run(capsys, "verify", "--suite", "all")
        assert status == 0 and from_env == plain

    @pytest.mark.parametrize("suite", sorted(verify.STATISTICAL))
    def test_statistical_options_default_to_3_100000_64(self, capsys,
                                                         monkeypatch, suite):
        calls = []
        monkeypatch.setattr(verify, verify.STATISTICAL[suite],
                            lambda *args: calls.append(args)
                            or CaseReport(suite, 1))
        status, _ = run(capsys, "verify", "--suite", suite, "--seed", "7")
        assert status == 0 and calls == [(3, 100_000, 7, 64)]

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


    @pytest.mark.parametrize("argv", [
        ["--model", "c", "--init", "full", "--p", "0.9"],
        ["--model", "a", "--p", "0.3"]])
    def test_p_outside_an_iid_particle_run_is_refused(self, capsys, argv):
        status = main(["density", "--n", "3", "--trials", "1000", *argv])
        assert_one_error_line(status, capsys.readouterr())

    def test_iid_occupancy_defaults_to_one_half(self, capsys):
        argv = ("density", "--model", "c", "--init", "iid", "--n", "2",
                "--trials", "200", "--format", "json")
        _, default = run(capsys, *argv)
        status, half = run(capsys, *argv, "--p", "0.5")
        assert status == 0 and default == half

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

    @pytest.mark.parametrize("particle", ["-1", "999"])
    def test_highlight_id_naming_no_particle_is_an_input_error(self, capsys,
                                                               particle):
        # -1 is the id of every empty cell; 999 is past the last merge
        status = main(["render", "--model", "c", "--init", "alternating",
                       "--width", "12", "--steps", "3",
                       "--highlight-particle", particle])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert "no particle" in captured.err

    @pytest.mark.parametrize("highlight", [["--highlight-site", "18"],
                                           ["--highlight-particle", "35"]])
    def test_highlight_replays_the_ids_once(self, capsys, monkeypatch,
                                            highlight):
        # one pass over the births of the run: a row a step at most
        calls, rows = [], []
        births = lattice._births

        def counted(traj):
            calls.append(traj)
            return (rows.append(born) or born for born in births(traj))

        monkeypatch.setattr(lattice, "_births", counted)
        status, _ = run(capsys, "render", "--model", "c", "--width", "30",
                        "--steps", "12", *highlight)
        assert status == 0 and len(calls) == 1 and len(rows) <= 13

    @pytest.mark.parametrize("argv, message", [
        (["--model", model, highlight, "4"], "carry no merge log")
        for model in "ab"
        for highlight in ("--highlight-site", "--highlight-particle")
    ] + [
        # an empty cell, and one site past each end of the final window
        (["--model", "c", "--init", "zeros", "--highlight-site", "5"],
         "no surviving particle at site 5"),
        (["--model", "c", "--highlight-site", "2"],
         "no surviving particle at site 2"),
        (["--model", "c", "--highlight-site", "12"],
         "no surviving particle at site 12"),
    ])
    def test_genealogy_refusals_name_their_cause(self, capsys, argv,
                                                 message):
        # the window is sites 0 .. 11, and sites 3 .. 11 after three steps
        status = main(["render", "--width", "12", "--steps", "3", *argv])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert message in captured.err

    @pytest.mark.parametrize("argv, site", [
        (["--model", "c", "--init", "zeros"], 4064),  # an empty cell
        (["--model", "c"], 2),  # left of the final window
        (["--model", "d"], 4065),  # past its right end
    ])
    def test_a_site_with_no_survivor_unpacks_only_the_final_row(
            self, capsys, monkeypatch, argv, site):
        # the run keeps its bit planes, so the refusal reads one row, a
        # call for each of its planes, and walks nothing
        widths, unpack = [], packed.unpack_bits

        def spied(words, width):
            widths.append(width)
            return unpack(words, width)

        monkeypatch.setattr(packed, "unpack_bits", spied)
        status = main(["render", *argv, "--steps", "4000",
                       "--highlight-site", str(site)])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert f"no surviving particle at site {site}" in captured.err
        assert len(widths) == (2 if "d" in argv else 1)

    def test_highlight_site_and_particle_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["render", "--model", "c", "--width", "12", "--steps", "3",
                  "--highlight-particle", "0", "--highlight-site", "5"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with" in captured.err


class TestEvolveCylinderCommand:
    def test_alternating_mixture_is_reported_invariant(self, capsys):
        status, out = run(capsys, "evolve-cylinder", "--model", "a", "--init",
                          "alternating-mix", "--length", "8", "--steps", "1",
                          "--residual")
        assert status == 0
        assert "residual 0" in out

    def test_rule_file_round_trip(self, capsys, tmp_path):
        from cylinder_helpers import dump_rule_text
        from pcalab.cylinder import fair_rule
        path = tmp_path / "rule.txt"
        path.write_text(dump_rule_text(fair_rule("a")), encoding="utf-8")
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

    @pytest.mark.parametrize("argv, message", [
        (["--length", "2", "--steps", "-3"], "steps must be >= 0"),
        (["--marginal", "3"], "--marginal must be START:LENGTH"),
        (["--marginal", "a:b"], "--marginal must be START:LENGTH"),
    ])
    def test_bad_steps_or_marginal_is_named(self, capsys, argv, message):
        status = main(["evolve-cylinder", *argv])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--init", "word:0110", "--length", "8", "--steps", "0"],
        ["--lift", "c", "--init", "word:##", "--length", "9"],
    ])
    def test_length_with_a_word_init_is_refused(self, capsys, argv):
        status = main(["evolve-cylinder", *argv])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert "--length" in captured.err

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evolve-cylinder", "--seed", "5"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed" in captured.err

    def test_length_defaults_to_four_sites(self, capsys):
        _, default = run(capsys, "evolve-cylinder", "--steps", "0")
        status, four = run(capsys, "evolve-cylinder", "--steps", "0",
                           "--length", "4")
        assert status == 0 and default == four
        assert default.startswith("window start=0 length=4\n")

    @pytest.mark.parametrize("argv", [
        ["--init", "word:0123"],
        ["--lift", "c", "--init", "word:xy"],
    ])
    def test_bad_word_is_named(self, capsys, argv):
        status = main(["evolve-cylinder", *argv])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert repr(argv[-1][5:]) in captured.err


def _payload(table, mu, steps, residual, marginal):
    """The report of ``evolve-cylinder --format json``, as ``json.dumps``
    of the payload writes it, built from the measure's own items."""
    res = cylinder.invariance_residual(mu, table) if residual else None
    for _ in range(steps):
        mu = cylinder.evolve_measure(mu, table)
    if marginal is not None:
        mu = cylinder.marginal(mu, *marginal)
    payload = {"start": mu.start, "length": mu.length,
               "weights": {"".join(w): str(Fraction(v, mu.den))
                           for w, v in mu.items()}}
    if res is not None:
        payload["residual"] = str(res)
    return json.dumps(payload, indent=2) + "\n"


#: Symbols whose JSON form needs an escape: a quote, a backslash, non-ASCII.
ODD_RULE = ("alphabet: \" \\ \u00e9\nneighborhood: -1 0\n"
            + "".join(f"{a}{b} : 1/2 1/4 1/4\n" for a in '"\\\u00e9'
                      for b in '"\\\u00e9'))


class TestStreamedOutput:
    """Each handler checks its input, then hands ``main`` text chunks."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "a", "--steps", "3"],
        ["render", "--model", "c", "--steps", "3"],
        ["render", "--model", "d", "--steps", "3", "--format", "svg"],
        ["density", "--model", "c", "--n", "1", "--trials", "10"],
        ["oracle", "--which", "closed-form", "--n", "3"],
        ["verify", "--suite", "commutation"],
        ["evolve-cylinder", "--length", "3"],
        ["evolve-cylinder", "--length", "3", "--format", "json"],
    ])
    def test_every_handler_returns_chunks_not_one_str(self, argv):
        # writelines would write a bare str one character at a time
        args = cli.build_parser().parse_args(argv)
        chunks, status = cli._HANDLERS[args.command](args)
        assert status == 0 and not isinstance(chunks, str)
        chunks = list(chunks)
        assert chunks and all(isinstance(c, str) for c in chunks)

    @pytest.mark.parametrize("argv", [
        ["--marginal", "3"],
        ["--length", "4", "--marginal", "2:5"],  # refused after evolving
        ["--length", "21"],  # past STATE_CAP
    ])
    def test_refused_run_leaves_stdout_empty_and_out_untouched(
            self, capsys, tmp_path, argv):
        out, fresh = tmp_path / "x", tmp_path / "y"
        out.write_bytes(b"kept\n")
        for extra in ([], ["--out", str(out)], ["--out", str(fresh)]):
            status = main(["evolve-cylinder", *argv, *extra])
            assert_one_error_line(status, capsys.readouterr())
        assert out.read_bytes() == b"kept\n" and not fresh.exists()

    def test_failure_while_drawing_is_one_error_line(self, capsys,
                                                     monkeypatch):
        def exhausted(*args):
            yield "<svg>\n"
            raise MemoryError

        monkeypatch.setattr(cli, "render", exhausted)
        status = main(["render", "--model", "c", "--steps", "3"])
        captured = capsys.readouterr()
        # the chunks drawn before the failure are written; that is all
        assert status == 2 and captured.out == "<svg>\n"
        assert captured.err == "error: not enough memory for this run\n"

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("argv, steps, marginal", [
        (["--length", "3"], 1, None),
        (["--length", "6", "--start", "-2"], 2, (0, 3)),
        (["--init", "word:0110"], 1, None),
        (["--init", "alternating-mix", "--length", "5"], 1, (1, 2)),
        (["--lift", "c", "--length", "3"], 2, None),
        (["--lift", "c", "--init", "word:#.#"], 1, (1, 1)),
        (["--rule-file", "ODD", "--length", "2"], 1, None),
        (["--rule-file", "ODD", "--init", "word:\u00e9\"\\"], 0, (1, 2)),
    ])
    def test_json_report_is_json_dumps_byte_for_byte(
            self, capsys, tmp_path, argv, steps, marginal, residual):
        rule = tmp_path / "odd.txt"
        rule.write_text(ODD_RULE, encoding="utf-8")
        argv = [str(rule) if a == "ODD" else a for a in argv]
        args = cli.build_parser().parse_args(["evolve-cylinder", *argv])
        table = (cylinder.load_rule_file(args.rule_file) if args.rule_file
                 else cylinder.fair_rule(args.lift) if args.lift
                 else cylinder.fair_rule("a"))
        want = _payload(table, cli._parse_cylinder_init(args, table), steps,
                        residual, marginal)
        extra = ["--steps", str(steps), "--format", "json"]
        if residual:
            extra.append("--residual")
        if marginal is not None:
            extra += ["--marginal", f"{marginal[0]}:{marginal[1]}"]
        status, out = run(capsys, "evolve-cylinder", *argv, *extra)
        assert status == 0 and out == want

    @staticmethod
    def fresh_peaks(*argvs):
        """Each argv run at once in a fresh interpreter, stdout to the null
        device; each child reports the peak resident set of its own image
        in MB (VmHWM: its ru_maxrss would start at this process's peak,
        which Linux carries across the fork and exec)."""
        code = ("import os, sys\n"
                "from pcalab.cli import main\n"
                "sys.stdout = open(os.devnull, 'w', encoding='utf-8')\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(next(int(line.split()[1]) / 1024 for line in\n"
                "           open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')), file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(pcalab.__file__))}
        runs = [subprocess.Popen([sys.executable, "-c", code, *argv],
                                 env=env, stderr=subprocess.PIPE, text=True)
                for argv in argvs]
        return [float(p.communicate(timeout=60)[1]) for p in runs]

    def test_peak_memory_does_not_grow_with_the_output(self):
        cylinder_argv = ["evolve-cylinder", "--model", "a", "--init",
                         "uniform", "--length", "18"]
        svg, text, as_json = self.fresh_peaks(
            ["render", "--model", "c", "--steps", "1000", "--format", "svg"],
            cylinder_argv, [*cylinder_argv, "--format", "json"])
        # joined before writing: 236 MB, and 53 (text) and 85 MB (JSON)
        assert svg < 80 and text < 50
        assert as_json <= text + 4

    def test_a_long_render_holds_its_run_and_no_more(self):
        # a render keeps the bit planes of its run, 4000 steps of a
        # 4065-cell window here: 2 bits a cell and step, about 5 MB, and
        # unpacks one row as it is drawn.  It peaked at 33 MB (text) and
        # 34.5 MB (SVG); tuples of every configuration and arrow row, about
        # 130 MB, peaked at 156.8 and 158.4 MB
        argv = ["render", "--model", "c", "--steps", "4000"]
        text, svg = self.fresh_peaks(argv, [*argv, "--format", "svg"])
        assert text < 45 and svg < 45
        # the last survivor's ancestry walked back one run of sites a row
        # adds its 16,274 marked cells, about 3 MB (35.6 and 37.4 MB); a
        # replay of every particle id of every cell peaked at 224 MB
        argv += ["--highlight-site", "4064"]
        text, svg = self.fresh_peaks(argv, [*argv, "--format", "svg"])
        assert text < 45 and svg < 45


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

    SEEDED = (["simulate", "--model", "c", "--steps", "2"],
              ["render", "--model", "d", "--steps", "2"],
              ["density", "--model", "b", "--n", "1", "--trials", "10"],
              ["density", "--model", "a", "--n", "1", "--trials", "10"],
              ["verify", "--suite", "color-uniformity", "--trials", "10"],
              ["verify", "--suite", "proposition-bounds", "--trials", "10"])

    @pytest.mark.parametrize("value", ["bad", "", "1.5"])
    @pytest.mark.parametrize("argv", SEEDED)
    def test_malformed_environment_seed_is_named(self, capsys, monkeypatch,
                                                 argv, value):
        monkeypatch.setenv("PCALAB_SEED", value)
        status = main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err == "error: PCALAB_SEED must be an integer\n"

    # the stream keys its bits by seed and trial modulo 2^64, so each
    # refused value printed the same cells as the kept one beside it
    @pytest.mark.parametrize("option, kept, refused", [
        ("--seed", "0", "18446744073709551616"),
        ("--seed", "18446744073709551613", "-3"),
        ("--trial", "18446744073709551615", "-1")])
    @pytest.mark.parametrize("command", ["simulate", "render"])
    def test_seeds_and_trials_outside_the_stream_range_are_refused(
            self, capsys, command, option, kept, refused):
        argv = [command, "--model", "c", "--init", "uniform", "--steps", "4",
                "--width", "60"]
        assert run(capsys, *argv, option, kept)[0] == 0
        status = main([*argv, option, refused])
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err.startswith(f"error: {option} must lie in ")

    @pytest.mark.parametrize("value", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("argv", SEEDED)
    def test_environment_seed_outside_the_stream_range_is_named(
            self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("PCALAB_SEED", value)
        status = main(argv)
        captured = capsys.readouterr()
        assert_one_error_line(status, captured)
        assert captured.err.startswith("error: PCALAB_SEED must lie in ")

    @pytest.mark.parametrize("argv", [
        [*SEEDED[0], "--seed", "3"], [*SEEDED[3], "--seed", "3"],
        ["verify", "--suite", "all"], ["verify", "--suite", "commutation"],
        ["oracle", "--which", "closed-form", "--n", "2"],
        ["evolve-cylinder", "--steps", "1"],
        ["verify", "--suite", "periodic-orbit"]])
    def test_a_run_that_reads_no_seed_ignores_a_malformed_one(
            self, capsys, monkeypatch, argv):
        plain = run(capsys, *argv)
        monkeypatch.setenv("PCALAB_SEED", "bad")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0
