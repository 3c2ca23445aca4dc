"""Command-line entry point.

Subcommands: simulate, density, oracle, verify, render, evolve-cylinder.
The whole pipeline is a pure function of (argv, PCALAB_SEED): repeated
invocations produce byte-identical output.  Exit status: 0 on success,
1 when a verification suite fails, 2 on usage or input errors.  Each
handler checks its input, then returns its output as an iterable of text
chunks, which ``main`` writes as they are drawn.
"""

from __future__ import annotations

import argparse
import itertools
import json
import json.encoder
import math
import os
import sys
from collections.abc import Iterable

from . import cylinder, density, packed, verify
from .lattice import (BLUE, GLYPHS, GREEN, Configuration, Model, lineage,
                      particle_count)
from .packed import evolve_run as evolve  # traced as cli.evolve
from .render import render
from .stream import DOMAIN_COLOR, UpdateStream

def _resolve_seed(seed: int | None) -> int:
    name = "--seed" if seed is not None else "PCALAB_SEED"
    try:
        seed = int(os.environ.get(name, 0) if seed is None else seed)
    except ValueError:
        raise ValueError("PCALAB_SEED must be an integer") from None
    if seed not in range(2 ** 64):  # the stream reads seeds modulo 2^64
        raise ValueError(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def _build_init(model: Model, init: str, width: int,
                stream: UpdateStream) -> Configuration:
    if width < 1:
        raise ValueError("width must be >= 1")
    if init == "uniform" or (init == "full" and model is Model.D):
        cells = (stream.cell_bits(0, width).tolist() if init == "uniform"
                 else (1,) * width)
        if model is Model.D:  # an occupied cell is BLUE on a colour bit
            colors = stream.cell_bits(0, width, DOMAIN_COLOR).tolist()
            cells = [b * (GREEN - c) for b, c in zip(cells, colors)]
        return Configuration(0, tuple(cells))
    tiles = {"full": (1,), "ones": (1,), "zeros": (0,), "alternating": (0, 1)}
    if model is Model.D:
        tiles["blue"] = (BLUE,)
    if init.startswith("word:"):
        glyphs, word = GLYPHS[model], init[5:]
        if not word or any(ch not in glyphs for ch in word):
            raise ValueError(f"custom word {word!r} uses glyphs outside "
                             f"model {model.value}'s alphabet")
        tiles[init] = tuple(map(glyphs.index, word))
    if init not in tiles:
        raise ValueError(f"unknown init {init!r} for model {model.value}")
    tile = tiles[init]
    return Configuration(0, tuple(tile[j % len(tile)] for j in range(width)))


def _run_args(args) -> tuple[Model, Configuration, UpdateStream]:
    model = Model(args.model)
    if args.trial not in range(2 ** 64):  # the stream reads it modulo 2^64
        raise ValueError(f"--trial must lie in [0, 2^64), got {args.trial}")
    stream = UpdateStream(_resolve_seed(args.seed), args.trial)
    width = args.width if args.width is not None else args.steps + 65
    return model, _build_init(model, args.init, width, stream), stream


def _cmd_simulate(args) -> tuple[Iterable[str], int]:
    model, init, stream = _run_args(args)
    final = packed.evolve_final(model, init, stream, args.steps,
                                boundary=args.boundary)
    cells = "".join(GLYPHS[model][c] for c in final.cells)
    if args.format == "json":
        payload = {
            "model": model.value,
            "boundary": args.boundary,
            "steps": args.steps,
            "seed": stream.seed,
            "offset": final.offset,
            "cells": cells,
            "particles": particle_count(final),
        }
        return (json.dumps(payload, indent=2) + "\n",), 0
    return (f"{cells}\n# model={model.value} steps={args.steps} "
            f"offset={final.offset} particles={particle_count(final)}\n",), 0


def _cmd_render(args) -> tuple[Iterable[str], int]:
    traj = evolve(*_run_args(args), args.steps, boundary=args.boundary)
    pid, site = args.highlight_particle, args.highlight_site
    marked = frozenset()
    if pid is not None or site is not None:
        marked = lineage(traj, pid, site)
    return render(traj, args.format, args.arrows, marked), 0


def _cmd_density(args) -> tuple[Iterable[str], int]:
    model, seed = Model(args.model), _resolve_seed(args.seed)
    if args.p is not None and (model is Model.A or args.init != "iid"):
        raise ValueError("--p applies only to --model b|c --init iid")
    if model is Model.A:
        init = {"full": "ones", "alternating": "01"}.get(args.init, args.init)
        if init.startswith("word:"):
            init = init[5:]
        rep = density.mc_pair_statistic_A(init, args.n, args.trials, seed,
                                          args.sites)
    else:
        rep = density.mc_density(model, args.init, args.n, args.trials,
                                 seed, args.sites,
                                 p=0.5 if args.p is None else args.p)
    if args.format == "json":
        return (json.dumps([rep.to_dict()], indent=2) + "\n",), 0
    if args.format == "csv":
        row = rep.to_dict()
        cells = ("" if v is None else str(v) for v in row.values())
        return (f"{','.join(row)}\n{','.join(cells)}\n",), 0
    exact = "?" if rep.exact is None else str(rep.exact)
    return (f"model={rep.model} init={rep.init} n={rep.n} exact={exact} "
            f"estimate={rep.mc_estimate!r} halfwidth={rep.mc_halfwidth!r} "
            f"trials={rep.trials} seed={rep.seed}\n",), 0


def _cmd_oracle(args) -> tuple[Iterable[str], int]:
    which, n = args.which, args.n
    if which == "closed-form":
        return (f"{density.exact_density(n)}\n",), 0
    if which == "hitting-time":
        return (f"{density.hitting_time_oracle(n)}\n",), 0
    if which == "interface-walk":
        return (f"{density.interface_walk_oracle(n)}\n",), 0
    if which == "log-density":
        return (f"{density.density_log(n)!r}\n",), 0
    if which == "asymptotic-ratio":
        return (f"{density.asymptotic_ratio(n)!r}\n",), 0
    raise ValueError(f"unknown oracle {which!r}")


#: The statistical suites' options and the values they take when not given.
_STATISTICAL_DEFAULTS = {"n": 3, "trials": 100_000, "sites": 64}


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    suite = args.suite
    if args.width is not None and suite != "periodic-orbit":
        raise ValueError("--width applies only to --suite periodic-orbit")
    given = {k: getattr(args, k) for k in (*_STATISTICAL_DEFAULTS, "seed")
             if getattr(args, k) is not None}
    if given and suite not in verify.STATISTICAL:
        raise ValueError(f"--{next(iter(given))} applies only to --suite "
                         + "|".join(verify.STATISTICAL))
    if suite == "all":
        results = verify.run_all()
    elif suite in verify.STATISTICAL:
        run = getattr(verify, verify.STATISTICAL[suite])
        opts = {**_STATISTICAL_DEFAULTS, **given}
        results = [run(opts["n"], opts["trials"], _resolve_seed(args.seed),
                       opts["sites"])]
    elif suite == "periodic-orbit":
        width = args.width if args.width is not None else 6
        results = [verify.verify_periodic_orbit(width)]
    else:
        results = [verify.SUITES[suite]()]
    ok = all(r.passed for r in results)
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in results], indent=2) + "\n"
    else:
        lines = [f"{r.suite}: {'pass' if r.passed else 'FAIL'} "
                 f"({r.cases_passed}/{r.cases_total})" for r in results]
        text = "\n".join(lines) + "\n"
    return (text,), 0 if ok else 1


def _parse_cylinder_init(args, table: cylinder.TransitionFunction):
    start = args.start
    length = 4 if args.length is None else args.length
    if args.init == "uniform":
        return cylinder.CylinderMeasure.uniform(table.alphabet, start, length)
    if args.init == "alternating-mix":
        if table.alphabet != ("0", "1"):
            raise ValueError("alternating-mix needs the binary alphabet")
        return cylinder.alternating_pair_measure(start, length)
    if args.init.startswith("word:"):
        if args.length is not None:
            raise ValueError("--length does not apply to a word: init, "
                             "which spans its own window")
        word = args.init[5:]
        # a glyph fixes a symbol's first character: the whole symbol of a
        # plain or rule-file alphabet, the occupancy of a lifted one, whose
        # two arrows then share the site evenly
        glyphs = "".join(dict.fromkeys(s[0] for s in table.alphabet))
        if not word or any(ch not in glyphs for ch in word):
            raise ValueError(f"custom word {word!r} uses glyphs outside "
                             f"{glyphs!r}")
        return cylinder.CylinderMeasure.product(
            table.alphabet, start,
            [[int(s[0] == ch) for s in table.alphabet] for ch in word])
    raise ValueError(f"unknown cylinder init {args.init!r}")


def _cmd_evolve_cylinder(args) -> tuple[Iterable[str], int]:
    if args.steps < 0:
        raise ValueError("steps must be >= 0")
    if args.marginal:
        try:
            start, length = (int(t) for t in args.marginal.split(":"))
        except ValueError:
            raise ValueError("--marginal must be START:LENGTH") from None
    table = (cylinder.load_rule_file(args.rule_file) if args.rule_file
             else cylinder.fair_rule(args.lift or args.model))
    mu = _parse_cylinder_init(args, table)
    residual = None
    if args.residual:
        residual = cylinder.invariance_residual(mu, table)
    for _ in range(args.steps):
        mu = cylinder.evolve_measure(mu, table)
    if args.marginal:
        mu = cylinder.marginal(mu, start, length)
    # (word, v/den in lowest terms), as str(Fraction) prints it; read once
    weights = (("".join(w), f"{v // g}" if g == mu.den
                else f"{v // g}/{mu.den // g}")
               for w, v in mu.items() for g in (math.gcd(v, mu.den),))
    if args.format == "json":  # json.dumps(payload, indent=2), by hand;
        # json.dumps(s) returns quote(s) for a str s, at three times the cost
        quote = json.encoder.encode_basestring_ascii
        head = (f'{{\n  "start": {mu.start},\n  "length": {mu.length},\n'
                f'  "weights": {{')
        seps = itertools.chain(("\n",), itertools.repeat(",\n"))
        body = (f"{sep}    {quote(w)}: {quote(p)}"
                for sep, (w, p) in zip(seps, weights))
        tail = ("\n  }" + ("" if residual is None else
                           f',\n  "residual": {quote(str(residual))}')
                + "\n}\n")
    else:
        head = f"window start={mu.start} length={mu.length}\n"
        body = (f"{w} {p}\n" for w, p in weights)
        tail = "" if residual is None else f"residual {residual}\n"
    return itertools.chain((head,), body, (tail,)), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcalab",
        description="Simulate and exactly verify the four lattice models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmts=(), seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="default taken from PCALAB_SEED, else 0")
        if fmts:
            p.add_argument("--format", choices=fmts, default=fmts[0])
        p.add_argument("--out", default=None, help="write output to a file")

    for name in ("simulate", "render"):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True,
                       choices=[m.value for m in Model])
        p.add_argument("--init", default="full")
        p.add_argument("--width", type=int, default=None,
                       help="default steps + 65")
        p.add_argument("--steps", type=int, default=16)
        p.add_argument("--trial", type=int, default=0)
        p.add_argument("--boundary", choices=("line", "cycle"),
                       default="line")
        if name == "render":
            p.add_argument("--arrows", action="store_true")
            group = p.add_mutually_exclusive_group()
            group.add_argument("--highlight-particle", type=int, default=None)
            group.add_argument("--highlight-site", type=int, default=None)
            add_common(p, ("text", "svg"))
        else:
            add_common(p, ("text", "json"))

    p = sub.add_parser("density")
    p.add_argument("--model", required=True, choices=("a", "b", "c"))
    p.add_argument("--init", default="full")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--sites", type=int, default=64)
    p.add_argument("--p", type=float, default=None,
                   help="occupancy probability for --model b|c --init iid, "
                        "default 0.5")
    add_common(p, ("text", "csv", "json"))

    p = sub.add_parser("oracle")
    p.add_argument("--which", required=True,
                   choices=("closed-form", "hitting-time", "interface-walk",
                            "log-density", "asymptotic-ratio"))
    p.add_argument("--n", type=int, required=True)
    add_common(p, seed=False)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all",
                   choices=("all", *verify.SUITES, *verify.STATISTICAL))
    p.add_argument("--width", type=int, default=None,
                   help="cycle width for periodic-orbit: even, from 4 "
                        f"to {verify.ORBIT_WIDTH_CAP}, default 6")
    for key, default in _STATISTICAL_DEFAULTS.items():
        p.add_argument(f"--{key}", type=int, default=None,
                       help=f"statistical suites only, default {default}")
    add_common(p, ("json", "text"))

    p = sub.add_parser("evolve-cylinder")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--model", choices=("a",), default="a")
    group.add_argument("--lift", choices=("b", "c"))
    group.add_argument("--rule-file", default=None)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, default=None,
                   help="default 4; a word: init spans its own window")
    p.add_argument("--init", default="uniform")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--residual", action="store_true",
                   help="also report the invariance residual of the init")
    p.add_argument("--marginal", default=None, metavar="START:LENGTH")
    add_common(p, ("text", "json"), seed=False)
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "render": _cmd_render,
    "density": _cmd_density,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "evolve-cylinder": _cmd_evolve_cylinder,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failure = "cannot read input"  # an input file that cannot be read
    try:
        chunks, status = _HANDLERS[args.command](args)
        # --out is opened only once the handler has accepted the run; a
        # failure while the chunks are drawn or written leaves them partial
        failure = "cannot write output"
        if args.out is None:
            sys.stdout.writelines(chunks)
        else:
            with open(args.out, "w", encoding="utf-8") as out:
                out.writelines(chunks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {failure}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this run", file=sys.stderr)
        return 2
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
