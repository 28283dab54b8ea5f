"""Per-layer tracing of varlp from outside the package.

The tracer wraps the public functions of each varlp module, plus a few
public methods, and records one span per call: name, start, end and the
enclosing span.  A module imports its siblings' functions by name (for
example ``from .norms import interval_integral`` in ``constructions`` and
``k0``), so every binding of a wrapped function object in every
``varlp.*`` namespace is replaced, not only the defining one.  Spans stay
in memory; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("exponent", "grid", "norms", "operators", "k0", "constructions", "cli")

# public methods wrapped besides the module-level functions: (module, class, method)
METHODS = (
    ("exponent", "ExponentFunction", "values"),
    ("grid", "MeasurableSet", "mask_on"),
    ("grid", "GridDomain", "points"),
)


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; spans accumulate
    in ``spans`` as [name, start, end, parent index, time in wrapped children].
    ``box_sums_cells`` counts the grid cells passed to ``operators.box_sums``."""

    def __init__(self):
        self.spans = []
        self.box_sums_cells = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_cells = name == "operators.box_sums"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cells:
                f = args[0] if args else kwargs["f"]
                self.box_sums_cells += f.values.size
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"varlp.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"varlp.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "varlp" or mod_name.startswith("varlp.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def function_totals(self):
        """name -> [calls, inclusive seconds of outermost calls, self seconds]."""
        out = {}
        spans = self.spans
        for i, (name, t0, t1, parent, child) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (t1 - t0) - child
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row[1] += t1 - t0
        return out


def layer_metrics(tracer, passes):
    """Per-pass per-layer metrics named as in BENCHMARK.json (without
    ``cli.import_s`` and ``trace.overhead_s``, which are measured elsewhere)."""
    totals = tracer.function_totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def self_s(layer):
        return sum(row[2] for name, row in totals.items()
                   if name.startswith(layer + ".")) / passes

    solves = calls("norms.interval_indicator_norm")
    m = {
        "operators.box_sums.calls": calls("operators.box_sums"),
        "operators.box_sums.s": seconds("operators.box_sums"),
        "operators.box_sums.cells": tracer.box_sums_cells / passes,
        "operators.fractional_maximal.s": seconds("operators.fractional_maximal"),
        "operators.riesz_potential.s": seconds("operators.riesz_potential"),
        "operators.fractional_maximal_uncentered.s":
            seconds("operators.fractional_maximal_uncentered"),
        "operators.maximal_pair_lower_bound.s": seconds("operators.maximal_pair_lower_bound"),
        "operators.self_s": self_s("operators"),
        "grid.mask_on.calls": calls("grid.mask_on"),
        "grid.mask_on.s": seconds("grid.mask_on"),
        "grid.points.s": seconds("grid.points"),
        "norms.interval_integral.calls": calls("norms.interval_integral"),
        "norms.interval_integral.s": seconds("norms.interval_integral"),
        "norms.interval_indicator_norm.calls": solves,
        "norms.interval_indicator_norm.s": seconds("norms.interval_indicator_norm"),
        "norms.interval_integral_per_solve":
            calls("norms.interval_integral") / solves if solves else 0.0,
        "norms.luxemburg_norm.calls": calls("norms.luxemburg_norm"),
        "norms.luxemburg_norm.s": seconds("norms.luxemburg_norm"),
        "exponent.values.calls": calls("exponent.values"),
        "exponent.values.s": seconds("exponent.values"),
        "norms.set_norm.s": seconds("norms.set_norm"),
        "norms.harmonic_mean.s": seconds("norms.harmonic_mean"),
        "norms.self_s": self_s("norms"),
        "exponent.conjugate.calls": calls("exponent.conjugate"),
        "exponent.sobolev_dual.calls": calls("exponent.sobolev_dual"),
        "k0.k0alpha_constant.s": seconds("k0.k0alpha_constant"),
        "k0.norm_harmonic_sandwich.s": seconds("k0.norm_harmonic_sandwich"),
        "k0.self_s": self_s("k0"),
        "constructions.build_l1_failure.s": seconds("constructions.build_l1_failure"),
        "constructions.build_blowup.s": seconds("constructions.build_blowup"),
        "constructions.self_s": self_s("constructions"),
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": self_s("cli"),
    }
    return m
