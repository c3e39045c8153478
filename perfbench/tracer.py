"""Per-layer timing shims installed around zeroreg's public functions.

Nothing inside ``src/zeroreg`` is instrumented.  For a traced run the
benchmark replaces each function or method named in ``SHIMS`` by a
wrapper, in every ``zeroreg`` module namespace that holds it (a module
that did ``from .normality import hilbert_function`` keeps its own
reference, so patching the defining module alone would miss those
calls), and restores every original when the run ends.

Spans are aggregated in memory per name: call count, inclusive time and
self time.  Self time is a span's duration minus the time covered by the
wrapped spans it caused, so code that is not wrapped (private helpers,
unlisted public functions) counts toward the nearest wrapped caller and
the self times of all spans add up to the time spent inside root spans.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections import defaultdict

import zeroreg.cli as cli
from zeroreg import exactalg, forms, harness, jsonio, normality, projection, scheme, separation

# (name, owner, attribute, kind).  kind is "span" (reported as
# <name>.calls and <name>.self_s), "count" (calls only, no timing) or
# "yields" (items yielded by a generator); the last two report their
# count under the name itself.
SHIMS = (
    ("exactalg.rank", exactalg.Matrix, "rank", "span"),
    ("exactalg.kernel_basis", exactalg.Matrix, "kernel_basis", "span"),
    ("exactalg.colspace_add", exactalg.ColumnSpace, "add", "span"),
    ("forms.evaluate_form", forms, "evaluate_form", "span"),
    ("forms.series_mul", forms, "series_mul", "span"),
    ("forms.rational_roots", forms, "rational_roots", "span"),
    ("scheme.germ_evaluate_form", scheme.CurvilinearGerm, "evaluate_form", "span"),
    ("scheme.invariant_t", scheme, "invariant_t", "span"),
    ("scheme.max_collinear_length", scheme, "max_collinear_length", "span"),
    ("scheme.contact_length.calls", scheme, "contact_length", "count"),
    ("scheme.subschemes_enumerated", scheme, "enumerate_subschemes", "yields"),
    ("normality.phi", normality.SchemeEvaluator, "phi", "span"),
    ("normality.columns", normality.SchemeEvaluator, "column", "count"),
    ("normality.min_normal_degree", normality, "min_normal_degree", "span"),
    ("normality.hilbert_function", normality, "hilbert_function", "span"),
    ("normality.hilbert_function_values", normality, "hilbert_function_values", "span"),
    ("separation.separator_forms", separation, "separator_forms", "span"),
    ("separation.family_rank", separation, "family_rank", "span"),
    ("projection.curve_fiber", projection, "curve_fiber", "span"),
    ("projection.plane_fiber", projection, "plane_fiber", "span"),
    ("projection.classify_fiber", projection, "classify_fiber", "span"),
    ("harness.run_suite", harness, "run_suite", "span"),
    ("harness.gen_scheme", harness, "gen_scheme", "span"),
    ("jsonio.loads", jsonio, "scheme_loads", "span"),
    ("jsonio.loads", jsonio, "curve_loads", "span"),
    ("jsonio.loads", jsonio, "subspace_loads", "span"),
    ("jsonio.loads", jsonio, "recipe_loads", "span"),
    ("jsonio.canonical_json", jsonio, "canonical_json", "span"),
    ("cli.main", cli, "main", "span"),
    ("cli.build_parser", cli, "build_parser", "span"),
    ("cli.parse_args", argparse.ArgumentParser, "parse_args", "span"),
)

LAYERS = ("exactalg", "forms", "scheme", "normality", "separation", "projection",
          "harness", "jsonio", "cli")

# spans whose inclusive time is reported as well as their self time
TOTAL_TIME = ("normality.min_normal_degree", "normality.hilbert_function",
              "normality.hilbert_function_values")


def _rank_cells(stat, args, result):
    stat.cells += args[0].nrows * args[0].ncols


def _useful_add(stat, args, result):
    stat.useful += result is True


class Stat:
    __slots__ = ("calls", "total", "self", "cells", "useful")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.cells = 0
        self.useful = 0


class Tracer:
    """Installs the shims on entry and removes them on exit."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.suite_s = defaultdict(float)
        # each entry collects the time of the wrapped children of an open
        # span; stack[0] is a sentinel that collects the root spans
        self._stack = [0.0]
        self._patches = []

    def __enter__(self):
        try:
            for name, owner, attr, kind in SHIMS:
                original = getattr(owner, attr)
                self._install(owner, attr, original, self._wrap(name, original, kind))
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc):
        self._remove()
        return False

    def _install(self, owner, attr, original, shim):
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, shim)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "zeroreg" and not name.startswith("zeroreg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, shim)

    def _remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, kind):
        stat = self.stats[name]
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "yields":
            @functools.wraps(fn)
            def yielding(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    stat.calls += 1
                    yield item
            return yielding
        hook = {"exactalg.rank": _rank_cells,
                "exactalg.colspace_add": _useful_add}.get(name)
        suite_s = self.suite_s if name == "harness.run_suite" else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - children
                stack[-1] += elapsed
            if hook is not None:
                hook(stat, args, result)
            if suite_s is not None:
                suite_s[args[0] if args else kwargs["name"]] += elapsed
            return result
        return span

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; every shim is
        reported, with zeros for layers the run did not reach."""
        out = {}
        for name, _, _, kind in SHIMS:
            stat = self.stats[name]
            if kind == "span":
                out[name + ".calls"] = (stat.calls, "count")
                out[name + ".self_s"] = (stat.self, "s")
            else:
                out[name] = (stat.calls, "count")
        for name in TOTAL_TIME:
            out[name + ".total_s"] = (self.stats[name].total, "s")
        out["exactalg.rank.cells"] = (self.stats["exactalg.rank"].cells, "count")
        add = self.stats["exactalg.colspace_add"]
        out["exactalg.colspace_add.useful_ratio"] = (
            add.useful / add.calls if add.calls else 0.0, "ratio")
        for layer, value in self.layer_self_s().items():
            out[layer + ".self_s"] = (value, "s")
        for suite in harness.SUITE_NAMES:
            out["harness.suite_s." + suite] = (self.suite_s.get(suite, 0.0), "s")
        return out
