"""Outside-in tracing of pcalab's layers for the benchmark's traced run.

Each wrapper replaces a public function at the module attribute where its
callers look it up (``pcalab.packed.step_planes``, ``pcalab.stream.
block_bits_vec``, ...), so no code under ``src/`` changes.  ``cli`` binds
``evolve`` and ``render`` by name, so those two are wrapped on
``pcalab.cli``.  Modules are fetched with ``importlib`` because the package
namespace shadows the module ``pcalab.render`` with the function ``render``.

Spans ``(name, start, end, parent)`` are kept in memory.  A span's self
time is its duration minus the time its child spans cover.  Counts are
computed from argument and result shapes, not measured inside pcalab.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _support(mu) -> int:
    return sum(1 for w in mu.weights if w)


def _step_planes_counts(args, kwargs, result) -> dict[str, int]:
    planes = _arg(args, kwargs, 1, "planes")
    u = _arg(args, kwargs, 2, "u")
    moved = u.nbytes + sum(p.nbytes for p in planes)
    return {"packed.trial_words_stepped": u.size,
            "packed.step_planes.bytes": moved + sum(p.nbytes for p in result)}


def _block_bits_counts(args, kwargs, result) -> dict[str, int]:
    seed = _arg(args, kwargs, 0, "seed")
    return {"stream.words": result.size,
            f"stream.words.seed={seed}": result.size}


def _evolve_measure_counts(args, kwargs, result) -> dict[str, int]:
    return {"cylinder.support_in": _support(_arg(args, kwargs, 0, "mu")),
            "cylinder.states_out": _support(result)}


#: (span name, module, attribute, computed counts or None)
LAYERS = (
    ("cli.main", "pcalab.cli", "main", None),
    ("cli.evolve", "pcalab.cli", "evolve", None),
    ("cli.render", "pcalab.cli", "render", None),
    ("stream.block_bits_vec", "pcalab.stream", "block_bits_vec",
     _block_bits_counts),
    ("stream.bits_range", "pcalab.stream", "bits_range", None),
    ("packed.batch_arrow_words", "pcalab.packed", "batch_arrow_words", None),
    ("packed.batch_cell_words", "pcalab.packed", "batch_cell_words", None),
    ("packed.step_planes", "pcalab.packed", "step_planes",
     _step_planes_counts),
    ("packed.unpack_bits", "pcalab.packed", "unpack_bits",
     lambda a, k, r: {"packed.unpack_bits.bytes_out": r.nbytes}),
    ("density.mc_density", "pcalab.density", "mc_density", None),
    ("density.hitting_time_oracle", "pcalab.density", "hitting_time_oracle",
     None),
    ("density.interface_walk_oracle", "pcalab.density",
     "interface_walk_oracle", None),
    ("verify.verify_color_uniformity", "pcalab.verify",
     "verify_color_uniformity",
     lambda a, k, r: {"verify.cases": r.cases_total}),
    ("verify.run_all", "pcalab.verify", "run_all",
     lambda a, k, r: {"verify.cases": sum(c.cases_total for c in r)}),
    ("cylinder.evolve_measure", "pcalab.cylinder", "evolve_measure",
     _evolve_measure_counts),
    ("cylinder.marginal", "pcalab.cylinder", "marginal", None),
)

#: Per-layer metrics of the traced run, in BENCHMARK.json order.
PER_LAYER = (
    "stream.block_bits_vec.self_s", "stream.block_bits_vec.calls",
    "stream.words",
    "packed.batch_arrow_words.self_s", "packed.batch_cell_words.self_s",
    "packed.step_planes.self_s", "packed.step_planes.calls",
    "packed.trial_words_stepped", "packed.step_planes.bytes",
    "packed.unpack_bits.self_s", "packed.unpack_bits.bytes_out",
    "verify.verify_color_uniformity.self_s", "density.mc_density.self_s",
    "cylinder.evolve_measure.self_s", "cylinder.evolve_measure.calls",
    "cylinder.support_in", "cylinder.states_out", "cylinder.marginal.self_s",
    "density.hitting_time_oracle.self_s",
    "density.interface_walk_oracle.self_s", "verify.run_all.self_s",
    "verify.cases",
    "cli.evolve.self_s", "stream.bits_range.self_s",
    "stream.bits_range.calls", "cli.render.self_s",
    "cli.main.self_s", "traced_wall_s", "trace_overhead_frac",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith((".bytes", ".bytes_out")):
        return "bytes"
    return "count"


class Tracer:
    """Span recorder whose wrappers exist only between install/uninstall."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += int(value)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore."""
        try:
            for name, module, attr, counter in self.layers:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            while self._saved:
                mod, attr, fn = self._saved.pop()
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans and counts define (0 if unused)."""
        self_s = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(base, 0)
            elif base:
                out[metric] = self.counts.get(metric, 0)
        return out
