"""Spans and counters around kahlerlab's public functions, from outside.

The package knows nothing about being measured: :class:`Tracer` replaces
each public function listed in :data:`SPANS` by a recording wrapper while
it is installed, and puts every original back when it is removed.  Modules
bind functions at import (``eval_monomials`` lives in ``_kernels`` but is
called through ``sections``, ``fscurrents`` and ``polynomials``), so every
module attribute of the package that holds a function is patched, and for
methods the class attribute is.

A span records its name, its parent span, start and end.  A layer's self
time is the span's duration minus the time its child spans cover.
"""

import contextlib
import functools
import importlib
import os
import sys
import time

# (metric prefix, module of kahlerlab, attribute path in that module)
SPANS = [
    ("config.parse_config", "config", "parse_config"),
    ("geometry.quadrature_nodes", "geometry", "quadrature_nodes"),
    ("geometry.omega_basis_matrix", "geometry", "Manifold.omega_basis_matrix"),
    ("kernels.eval_monomials", "_kernels", "eval_monomials"),
    ("polynomials.eval", "polynomials", "ChartPoly.eval"),
    ("polynomials.multiply", "polynomials", "SectionPoly.multiply"),
    ("sections.gram", "sections", "SectionSpace.gram"),
    ("sections.coeff_matrix", "sections", "SectionSpace.coeff_matrix"),
    ("sections.basis_values", "sections", "SectionSpace.basis_values"),
    ("sections.reduced_section_values", "sections",
     "SectionSpace.reduced_section_values"),
    ("cache.cache_get", "cache", "cache_get"),
    ("cache.cache_put", "cache", "cache_put"),
    ("testforms.test_form_dictionary", "testforms", "test_form_dictionary"),
    ("testforms.chi", "testforms", "TestForm.chi"),
    ("testforms.hessian", "testforms", "TestForm.hessian"),
    ("bundles.ddc_pairing", "bundles", "ddc_pairing"),
    ("bundles.pair_omega_basis", "bundles", "pair_omega_basis"),
    ("bundles.curvature_pairing", "bundles", "curvature_pairing"),
    ("fscurrents.fs_pairing", "fscurrents", "fs_pairing"),
    ("fscurrents.fs_wedge_pairing", "fscurrents", "fs_wedge_pairing"),
    ("fscurrents.reduced_hessian", "fscurrents",
     "ReducedHessianField.__call__"),
    ("fscurrents.descriptor_form_pairing", "fscurrents",
     "descriptor_form_pairing"),
    ("fscurrents.descriptor_wedge_pairing", "fscurrents",
     "descriptor_wedge_pairing"),
    ("zeros.sample_section", "zeros", "sample_section"),
    ("zeros.zeros_on_curve", "zeros", "zeros_on_curve"),
    ("zeros.common_zeros", "zeros", "common_zeros"),
    ("zeros.zero_pairing", "zeros", "zero_pairing"),
    ("zeros.log_norm", "zeros", "Section.log_norm"),
    ("distance.approximation_run", "distance", "approximation_run"),
    ("distance.ds_distance", "distance", "ds_distance"),
    ("experiments.run_study", "experiments", "run_study"),
    ("experiments.emit_report", "experiments", "emit_report"),
]

# counters summed over the spans' calls: name -> unit
COUNTERS = {
    "geometry.nodes": "count",
    "kernels.eval_monomials.bytes": "B",
    "sections.gram.diagonal": "count",
    "sections.gram.modes": "count",
    "sections.gram.nodes": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "B",
    "zeros.curve_zeros": "count",
    "zeros.common_zeros.failed": "count",
    "distance.cells": "count",
    "distance.cells_failed": "count",
    "reports.bytes": "B",
}

# extremes over the calls: name -> unit
MAXIMA = {
    "sections.dim_max": "count",
    "sections.cond_max": "ratio",
}

# useful outcomes over attempts, derived from calls and counters
RATIOS = ("cache.hit_ratio", "zeros.common_zeros.ok_ratio")


def _count_result(tracer, name, args, result):
    """Counters read from a finished call's arguments and result."""
    add = tracer.add
    if name == "geometry.quadrature_nodes":
        add("geometry.nodes", result.num_nodes)
    elif name == "kernels.eval_monomials":
        # computed output size: one complex128 per (point, monomial)
        add("kernels.eval_monomials.bytes", 16 * len(args[0]) * len(args[1]))
    elif name == "sections.gram":
        # coeff_matrix memoizes, so gram runs once per orthonormalization
        add(f"sections.gram.{args[0].gram_method}", 1)
    elif name == "sections.coeff_matrix":
        space = args[0]
        tracer.raise_to("sections.dim_max", space.dim)
        tracer.raise_to("sections.cond_max", space.gram_condition)
    elif name == "cache.cache_get":
        add("cache.misses" if result is None else "cache.hits", 1)
    elif name == "cache.cache_put":
        cache = sys.modules["kahlerlab.cache"]
        add("cache.bytes_written",
            os.path.getsize(cache.cache_path(args[0], args[1])))
    elif name == "zeros.zeros_on_curve":
        add("zeros.curve_zeros", len(result.points))
    elif name == "distance.approximation_run":
        rows = result["rows"]
        add("distance.cells", len(rows))
        add("distance.cells_failed",
            sum(r["status"] != "ok" for r in rows))
    elif name == "experiments.emit_report":
        add("reports.bytes", sum(os.path.getsize(result[k])
                                 for k in ("csv", "json", "svg")))


def _resolve(module, path):
    """(owner, attribute name, original function) of one span target."""
    owner = importlib.import_module(f"kahlerlab.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == "kahlerlab" or key.startswith("kahlerlab."))]


def per_layer_names():
    """Every per-layer metric name a traced run reports, with its unit."""
    names = {}
    for span, _, _ in SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update(COUNTERS)
    names.update(MAXIMA)
    names.update(dict.fromkeys(RATIOS, "ratio"))
    return names


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans = []        # [name, parent index, start, end, child time]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    def add(self, name, amount):
        self.counters[name] += amount

    def raise_to(self, name, value):
        self.maxima[name] = max(self.maxima[name], float(value))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, time.perf_counter(), None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "zeros.common_zeros":
                    self.add("zeros.common_zeros.failed", 1)
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
            _count_result(self, name, args, result)
            return result

        traced.__traced__ = fn
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # import every target module before scanning for bindings: a module
        # imported later would bind a wrapper and keep it after uninstall
        targets = [(name, *_resolve(module, path))
                   for name, module, path in SPANS]
        modules = _package_modules()
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self, runs=1):
        """Per-layer metrics, each summed over the recorded calls and
        divided by ``runs`` (maxima and ratios are not divided)."""
        calls = dict.fromkeys((s for s, _, _ in SPANS), 0)
        self_s = dict.fromkeys(calls, 0.0)
        for name, _, start, end, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / runs
            out[f"{name}.self_s"] = self_s[name] / runs
        for name, value in self.counters.items():
            out[name] = value / runs
        out.update(self.maxima)
        hits = self.counters["cache.hits"]
        lookups = hits + self.counters["cache.misses"]
        out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        tried = calls["zeros.common_zeros"]
        failed = self.counters["zeros.common_zeros.failed"]
        out["zeros.common_zeros.ok_ratio"] = ((tried - failed) / tried
                                              if tried else 0.0)
        return out
