"""Outside-in tracing of the arcposet layers, for the benchmark's traced passes.

The library has no tracing of its own, so the functions of each layer are
wrapped from outside.  ``from .x import y`` copies the function reference
into the importing module, so a wrapper is installed at every arcposet
module that binds the function, not only where it is defined; methods are
wrapped on their class.  Each call of a wrapped function records a span
(id, name, start, end, parent span, job id, self time) in memory; hot tiny
calls (``swap``, ``SymmetricMatrix`` construction, the binary diagrams
yielded) are only counted.  A span's self time is its duration minus the
durations of its child spans.  For a generator, the span covers the time
spent inside it, resume by resume.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "verify", "matrix", "transform", "diagram", "families", "poset", "crossing", "complexes", "snf")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.job: int | None = None
        self._stack: list[list] = []  # open frames: [span id, name, start, child seconds]
        self._ids = 0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def _parent(self) -> int | None:
        return self._stack[-1][0] if self._stack else None

    def _open(self, span_id: int, name: str) -> list:
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> tuple[float, float]:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        own = duration - frame[3]
        self.self_s[frame[1]] += own
        return end, own

    def _record(self, span_id, name, start, end, parent, own) -> None:
        self.spans.append((span_id, name, start, end, parent, self.job, own))

    def call(self, name, fn, args, kwargs, after):
        self.counts[name + ".calls"] += 1
        before = {key: self.counts[key] for key in after.watch} if after else None
        parent = self._parent()
        frame = self._open(self._new_id(), name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end, own = self._close(frame)
            self._record(frame[0], name, frame[2], end, parent, own)
        if after:
            after(self, args, result, before)
        return result

    def generate(self, name, fn, args, kwargs):
        self.counts[name + ".calls"] += 1
        parent = self._parent()
        span_id = self._new_id()
        gen = fn(*args, **kwargs)
        start = end = None
        own_total = 0.0
        try:
            while True:
                frame = self._open(span_id, name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end, own = self._close(frame)
                    own_total += own
                    if start is None:
                        start = frame[2]
                self.counts[name + ".yielded"] += 1
                yield item
        finally:
            gen.close()
            self._record(span_id, name, start, end, parent, own_total)

    def write_spans(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "job", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped: (module, attribute path, how, hook run after each call)
#   span  -- a span per call
#   gen   -- a generator, timed inside each resume, yields counted
#   count -- the call is only counted
#   count-yields -- a generator whose yields are only counted
# A hook gets the counters it ``watch``es as they were before the call.


def _hook(*watch: str):
    def decorate(after):
        after.watch = watch
        return after

    return decorate


def _delta(source: str, target: str):
    @_hook(source)
    def after(tracer, args, result, before):
        tracer.counts[target] += tracer.counts[source] - before[source]

    return after


def _add(target: str, amount):
    @_hook()
    def after(tracer, args, result, before):
        tracer.counts[target] += amount(args, result)

    return after


def _both(*hooks):
    @_hook(*(key for hook in hooks for key in hook.watch))
    def after(tracer, args, result, before):
        for hook in hooks:
            hook(tracer, args, result, before)

    return after


@_hook()
def _poset_init(tracer, args, result, before):
    n = len(args[0].elements)
    tracer.counts["poset.FinitePoset.init.elements"] += n
    tracer.counts["poset.leq_cells"] += n * n


@_hook()
def _snf(tracer, args, result, before):
    entries, _, ncols = args
    tracer.counts["snf.invariant_factors.nnz_in"] += sum(1 for v in entries.values() if v)
    tracer.counts["snf.invariant_factors.rank_out"] += len(result)
    tracer.counts["complexes.cells_to_snf"] += ncols


TARGETS = [
    ("cli", "run", "span", None),
    ("verify", "run_check", "span", None),
    ("matrix", "enumerate_matrices", "span", _add("matrix.enumerate_matrices.results", lambda a, r: len(r))),
    ("matrix", "SymmetricMatrix.__init__", "count", None),
    ("transform", "realize_matrix", "span", None),
    ("transform", "blow_up", "span", None),
    ("transform", "canonicalize", "span", _delta("transform.swap.calls", "transform.canonicalize.swaps")),
    ("transform", "swap", "count", None),
    ("transform", "beta_inverse", "span", None),
    ("transform", "swap_orbit", "span", None),
    ("diagram", "block_matrix", "span", None),
    ("diagram", "is_regular", "span", None),
    (
        "families",
        "matrix_family_covers",
        "span",
        _add("families.matrix_family_covers.edges", lambda a, r: sum(map(len, r[1]))),
    ),
    ("families", "build_M", "span", None),
    (
        "families",
        "build_D",
        "span",
        _both(
            _add("families.build_D.kept", lambda a, r: len(r)),
            _delta("families.enumerate_binary_diagrams.yielded", "families.build_D.scanned"),
        ),
    ),
    ("families", "enumerate_binary_diagrams", "count-yields", None),
    ("poset", "FinitePoset.__init__", "span", _poset_init),
    ("poset", "FinitePoset.stats_text", "span", None),
    ("poset", "FinitePoset.check_order_map", "span", None),
    ("poset", "chain_stats_from_covers", "span", None),
    ("crossing", "noncrossing_subset_masks", "gen", None),
    ("complexes", "noncrossing_complex", "span", None),
    ("complexes", "SimplicialComplex.__init__", "span", None),
    ("complexes", "SimplicialComplex.faces", "span", _add("complexes.faces", lambda a, r: len(r))),
    (
        "complexes",
        "reduced_homology",
        "span",
        _both(
            _delta("complexes.faces", "complexes.faces_before_collapse"),
            _delta("complexes.cells_to_snf", "complexes.faces_after_collapse"),
        ),
    ),
    ("complexes", "write_facets", "span", None),
    ("complexes", "read_facets", "span", None),
    ("snf", "invariant_factors", "span", _snf),
]


def _span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.replace('__init__', 'init')}"


def _wrap(tracer: Tracer, name: str, how: str, fn, after):
    if how == "span":

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after)

    elif how == "gen":

        def wrapper(*args, **kwargs):
            return tracer.generate(name, fn, args, kwargs)

    elif how == "count":
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            return fn(*args, **kwargs)

    else:  # "count-yields"
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[yielded] += 1
                yield item

    return functools.wraps(fn)(wrapper)


def install() -> Tracer:
    """Wrap every target in the imported arcposet package; return the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"arcposet.{layer}") for layer in LAYERS}
    bindings = [importlib.import_module("arcposet"), *modules.values()]
    for layer, path, how, after in TARGETS:
        name = _span_name(layer, path)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(modules[layer], class_name)
            setattr(owner, attribute, _wrap(tracer, name, how, owner.__dict__[attribute], after))
            continue
        original = getattr(modules[layer], path)
        wrapper = _wrap(tracer, name, how, original, after)
        for module in bindings:
            for bound, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the pass; a ratio with a zero base reads 0."""
    c, s = tracer.counts, tracer.self_s
    suppression = importlib.import_module("arcposet.families").suppression_descendants.cache_info()
    removed = c["complexes.faces_before_collapse"] - c["complexes.faces_after_collapse"]
    return {
        "cli.run.self_s": s["cli.run"],
        "cli.run.calls": c["cli.run.calls"],
        "verify.run_check.self_s": s["verify.run_check"],
        "matrix.enumerate_matrices.self_s": s["matrix.enumerate_matrices"],
        "matrix.enumerate_matrices.results": c["matrix.enumerate_matrices.results"],
        "matrix.SymmetricMatrix.constructed": c["matrix.SymmetricMatrix.init.calls"],
        "transform.realize_matrix.self_s": s["transform.realize_matrix"],
        "transform.realize_matrix.calls": c["transform.realize_matrix.calls"],
        "transform.blow_up.self_s": s["transform.blow_up"],
        "transform.canonicalize.self_s": s["transform.canonicalize"],
        "transform.canonicalize.calls": c["transform.canonicalize.calls"],
        "transform.swap.calls": c["transform.swap.calls"],
        "transform.swaps_per_canonicalize": _ratio(
            c["transform.canonicalize.swaps"], c["transform.canonicalize.calls"]
        ),
        "transform.beta_inverse.self_s": s["transform.beta_inverse"],
        "transform.swap_orbit.self_s": s["transform.swap_orbit"],
        "diagram.block_matrix.self_s": s["diagram.block_matrix"],
        "diagram.block_matrix.calls": c["diagram.block_matrix.calls"],
        "diagram.is_regular.self_s": s["diagram.is_regular"],
        "families.matrix_family_covers.self_s": s["families.matrix_family_covers"],
        "families.matrix_family_covers.edges": c["families.matrix_family_covers.edges"],
        "families.build_M.self_s": s["families.build_M"],
        "families.build_D.self_s": s["families.build_D"],
        "families.enumerate_binary_diagrams.yielded": c["families.enumerate_binary_diagrams.yielded"],
        "families.build_D.kept_frac": _ratio(c["families.build_D.kept"], c["families.build_D.scanned"]),
        "families.suppression_descendants.hits": suppression.hits,
        "families.suppression_descendants.misses": suppression.misses,
        "poset.FinitePoset.init.self_s": s["poset.FinitePoset.init"],
        "poset.FinitePoset.init.elements": c["poset.FinitePoset.init.elements"],
        "poset.leq_cells": c["poset.leq_cells"],
        "poset.FinitePoset.stats_text.self_s": s["poset.FinitePoset.stats_text"],
        "poset.FinitePoset.stats_text.calls": c["poset.FinitePoset.stats_text.calls"],
        "poset.chain_stats_from_covers.self_s": s["poset.chain_stats_from_covers"],
        "poset.FinitePoset.check_order_map.self_s": s["poset.FinitePoset.check_order_map"],
        "crossing.noncrossing_subset_masks.self_s": s["crossing.noncrossing_subset_masks"],
        "crossing.noncrossing_subset_masks.yielded": c["crossing.noncrossing_subset_masks.yielded"],
        "complexes.noncrossing_complex.self_s": s["complexes.noncrossing_complex"],
        "complexes.SimplicialComplex.init.self_s": s["complexes.SimplicialComplex.init"],
        "complexes.SimplicialComplex.faces.self_s": s["complexes.SimplicialComplex.faces"],
        "complexes.faces": c["complexes.faces"],
        "complexes.reduced_homology.self_s": s["complexes.reduced_homology"],
        "complexes.cells_to_snf": c["complexes.cells_to_snf"],
        "complexes.collapse_removed_frac": _ratio(removed, c["complexes.faces_before_collapse"]),
        "complexes.write_facets.self_s": s["complexes.write_facets"],
        "complexes.read_facets.self_s": s["complexes.read_facets"],
        "snf.invariant_factors.self_s": s["snf.invariant_factors"],
        "snf.invariant_factors.calls": c["snf.invariant_factors.calls"],
        "snf.invariant_factors.nnz_in": c["snf.invariant_factors.nnz_in"],
        "snf.invariant_factors.rank_out": c["snf.invariant_factors.rank_out"],
        "trace.spans": len(tracer.spans),
    }
