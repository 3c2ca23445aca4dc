"""Property test of the CLI's exit-code and output contract over its argv
grammar: every invocation exits 0, 1 (only a failed verify suite) or 2,
never shows a traceback, prints strict JSON under ``--format json`` and
prints the same bytes when repeated.  ``PCALAB_SEED`` is drawn beside the
argv: unset, an integer or a malformed string.  ``--rule-file`` names one of
a fixed set of rule files: a valid table and one defect each."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab import verify
from pcalab.cli import main

SMALL = st.integers(-2, 40)
SEEDS = st.integers(-3, 2 ** 64)
ENV_SEEDS = st.one_of(st.none(), SEEDS.map(str),
                      st.sampled_from(["", "bad", "1.5", "0x10", "seed7"]))


def _word(glyphs):
    return st.text(st.sampled_from(glyphs), max_size=5).map("word:".__add__)


def _options(draw, pairs):
    """Argv words for each ``(flag, strategy)`` pair the draw keeps."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is True else [flag, str(value)]
    return argv


@st.composite
def simulate_or_render(draw):
    command = draw(st.sampled_from(["simulate", "render"]))
    model = draw(st.sampled_from("abcd"))
    inits = st.one_of(
        st.sampled_from(["full", "ones", "zeros", "alternating", "uniform",
                         "blue", "typo"]),
        _word("01.#BGx"))
    pairs = [("--init", inits), ("--width", SMALL), ("--steps", SMALL),
             ("--trial", st.integers(-2, 5)),
             ("--boundary", st.sampled_from(["line", "cycle"])),
             ("--seed", SEEDS)]
    if command == "render":
        pairs += [("--arrows", st.just(True)),
                  ("--highlight-particle", SMALL),
                  ("--highlight-site", SMALL),
                  ("--format", st.sampled_from(["text", "svg"]))]
    else:
        pairs += [("--format", st.sampled_from(["text", "json"]))]
    return [command, "--model", model] + _options(draw, pairs)


@st.composite
def density_argv(draw):
    model = draw(st.sampled_from("abc"))
    inits = st.one_of(
        st.sampled_from(["full", "iid", "uniform", "ones", "zeros",
                         "alternating", "typo"]),
        _word("01x"), st.text(st.sampled_from("01"), max_size=4))
    pairs = [("--init", inits), ("--sites", SMALL), ("--seed", SEEDS),
             ("--p", st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, -0.1])),
             ("--format", st.sampled_from(["text", "csv", "json"]))]
    return (["density", "--model", model,
             "--n", str(draw(st.integers(-1, 6))),
             "--trials", str(draw(st.integers(-1, 50)))]
            + _options(draw, pairs))


@st.composite
def oracle_argv(draw):
    which = draw(st.sampled_from(["closed-form", "hitting-time",
                                  "interface-walk", "log-density",
                                  "asymptotic-ratio"]))
    return (["oracle", "--which", which, "--n", str(draw(st.integers(-1, 6)))]
            + _options(draw, [("--seed", SEEDS)]))


@st.composite
def verify_argv(draw):
    suite = draw(st.sampled_from(
        ["all", *verify.SUITES, *verify.STATISTICAL]))
    pairs = [("--width", SMALL), ("--n", st.integers(-1, 6)),
             ("--trials", st.integers(-1, 50)), ("--sites", SMALL),
             ("--seed", SEEDS), ("--format", st.sampled_from(["json", "text"]))]
    return ["verify", "--suite", suite] + _options(draw, pairs)


def _rule(neighborhood: str, last_row: str) -> bytes:
    """A binary rule file whose first three rows are fixed."""
    return (f"alphabet: 0 1\nneighborhood: {neighborhood}\n"
            f"00 : 1/2 1/2\n01 : 1 0\n10 : 0 1\n{last_row}").encode()


#: Rule files by name: one valid table, then one defect each.  The test
#: writes them once to a temporary directory and passes their paths.
RULE_FILES = {
    "valid.rule": _rule("-1 0", "11 : 1/3 2/3\n"),
    "empty-neighborhood.rule": b"alphabet: 0 1\nneighborhood:\n : 1/2 1/2\n",
    "repeated-offsets.rule": _rule("0 0", "11 : 0 1\n"),
    "zero-denominator.rule": _rule("-1 0", "11 : 1/0 1\n"),
    "decimal.rule": _rule("-1 0", "11 : 0.5 0.5\n"),
    "exponent.rule": _rule("-1 0", "11 : 1e0 0\n"),
    "underscore.rule": _rule("-1 0", "11 : 1_0/2_0 0\n"),
    "unsorted-offsets.rule": _rule("0 -1", "11 : 0 1\n"),
    "missing-row.rule": _rule("-1 0", ""),
    "foreign-symbol.rule": _rule("-1 0", "12 : 0 1\n"),
    "not-utf8.rule": b"alphabet: 0 1\nneighborhood: 0\n\xff : 1 0\n",
}


@pytest.fixture(scope="module")
def rule_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("rules")
    for name, data in RULE_FILES.items():
        (path / name).write_bytes(data)
    return path


@st.composite
def evolve_cylinder_argv(draw):
    """Argv words; a ``--rule-file`` value is a name in :data:`RULE_FILES`,
    which the test resolves in its rule directory."""
    rule = draw(st.sampled_from([[], ["--model", "a"], ["--lift", "b"],
                                 ["--lift", "c"]])
                | st.sampled_from(sorted(RULE_FILES)).map(
                    lambda name: ["--rule-file", name]))
    inits = st.one_of(
        st.sampled_from(["uniform", "alternating-mix", "typo"]),
        _word("01.#x"))
    marginals = st.tuples(st.integers(-2, 6), st.integers(-1, 6)).map(
        lambda t: f"{t[0]}:{t[1]}") | st.sampled_from(["3", "a:b"])
    pairs = [("--start", st.integers(-3, 3)),
             ("--length", st.integers(-1, 6)), ("--init", inits),
             ("--steps", st.integers(-1, 6)), ("--residual", st.just(True)),
             ("--marginal", marginals),
             ("--format", st.sampled_from(["text", "json"]))]
    return ["evolve-cylinder"] + rule + _options(draw, pairs)


ARGV = st.one_of(simulate_or_render(), density_argv(), oracle_argv(),
                 verify_argv(), evolve_cylinder_argv())


def _run(argv, env_seed):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("PCALAB_SEED", None)
        if env_seed is not None:
            os.environ["PCALAB_SEED"] = env_seed
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _refuse(name):
    raise ValueError(f"non-JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(ARGV, ENV_SEEDS)
def test_argv_grammar_keeps_the_exit_and_output_contract(rule_dir, argv,
                                                        env_seed):
    argv = [str(rule_dir / word) if word in RULE_FILES else word
            for word in argv]
    status, out, err = _run(argv, env_seed)
    assert status in (0, 1, 2), (argv, status, err)
    assert status != 1 or argv[0] == "verify", (argv, err)
    assert "Traceback" not in err
    if status == 2:
        assert out == ""
        assert err.count("\n") >= 1
    if status != 2 and "json" in argv:
        json.loads(out, parse_constant=_refuse)
    assert _run(argv, env_seed) == (status, out, err)
