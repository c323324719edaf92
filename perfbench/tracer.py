"""Spans and counters around bmhadamard's public functions, from outside.

The tracer wraps functions and methods of the loaded ``bmhadamard``
modules; nothing under ``src/`` knows about it.  A module that bound a
public name by ``from ... import`` holds its own reference, so every
binding of a wrapped object is patched: module globals, module-level
dicts (``cli.SUITES``) and class aliases (``TowerElement.__rmul__``).
``uninstall`` puts every original back.

Spans (name, start, end, parent span, verdict id) stay in memory until
the run ends.  Hot operators get counters only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# Per-layer metrics reported by a traced run, with their units.  A
# ``.count`` or ``.self_s`` metric reads the counter or span of the same
# name; the few ratios are derived in ``layer_metrics``.
LAYER_METRICS = [
    ("exactfield.mul.count", "count"),
    ("exactfield.inverse.count", "count"),
    ("exactfield.field_sqrt.count", "count"),
    ("exactfield.field_sqrt.self_s", "s"),
    ("exactfield.complex_conj.count", "count"),
    ("exactfield.embed_signature.count", "count"),
    ("exactfield.embed_signature.self_s", "s"),
    ("fastfield.FlatTower.count", "count"),
    ("fastfield.FlatTower.self_s", "s"),
    ("fastfield.mul.count", "count"),
    ("fastfield.sub.count", "count"),
    ("fastfield.inv.count", "count"),
    ("fastfield.sparse_rank.self_s", "s"),
    ("fastfield.sparse_rank.rows", "count"),
    ("fastfield.sparse_rank.pivot_yield", "ratio"),
    ("linalg.solve.count", "count"),
    ("linalg.solve.self_s", "s"),
    ("ratfunc.RatQ.count", "count"),
    ("ratfunc.ratfunc_specialize.count", "count"),
    ("ratfunc.r_value_at.count", "count"),
    ("scheme.ParametricScheme.count", "count"),
    ("scheme.ParametricScheme.self_s", "s"),
    ("scheme.p_at.count", "count"),
    ("scheme.p_at.self_s", "s"),
    ("typeii.case_a_symbolic.count", "count"),
    ("typeii.case_a_symbolic.self_s", "s"),
    ("typeii.family_coefficients.count", "count"),
    ("typeii.family_coefficients.self_s", "s"),
    ("typeii.is_type_ii.self_s", "s"),
    ("typeii.is_hadamard.self_s", "s"),
    ("typeii.span_condition.self_s", "s"),
    ("identities.scan.nomura_symmetric_k.self_s", "s"),
    ("identities.scan.jones_adjacency.self_s", "s"),
    ("identities.scan.jones_component.self_s", "s"),
    ("identities.ns_symbolic.count", "count"),
    ("identities.q_values.count", "count"),
    ("identities.verify_converse.self_s", "s"),
    ("identities.verify_core_identities.self_s", "s"),
    ("intervals.element_sign.count", "count"),
    ("intervals.element_sign.self_s", "s"),
    ("intervals.abs_is_one.count", "count"),
    ("intervals.abs_is_one.self_s", "s"),
    ("invariants.haagerup_bruteforce.self_s", "s"),
    ("invariants.haagerup_formula.self_s", "s"),
    ("invariants.check_inverse_inequivalence.self_s", "s"),
    ("nomura.JonesGraph.self_s", "s"),
    ("nomura.adjacent.count", "count"),
    ("nomura.adjacent.hit_ratio", "ratio"),
    ("nomura.component_labels.self_s", "s"),
    ("nomura.check_symmetric.self_s", "s"),
    ("nomura.jones_structure_report.self_s", "s"),
    ("pell.descent_oracle.self_s", "s"),
    ("serialize.dump_json.self_s", "s"),
    ("serialize.report.bytes", "bytes"),
] + [(f"cli.suite.{suite}.self_s", "s")
     for suite in ("scheme", "identities", "families", "section5", "section6",
                   "appendixB")]

# Generator work that ``span_condition`` hands to ``sparse_rank`` is
# recorded under this span and counted as span_condition's self time.
_GENERATOR_SPAN = "typeii.span_condition.generators"


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, verdict id]
        self.counts = Counter()
        self.verdict = None
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.counts[name] += 1
        self.spans.append([name, _clock(), None, parent, self.verdict])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(idx)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def counted(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def patch_function(self, module, attr, make):
        """Replace every binding of ``module.attr`` in the package."""
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if value is orig:
                    self._set(mod, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            self._set_item(value, key, wrapper)

    def patch_method(self, cls, attr, make):
        """Replace ``cls.attr`` and every alias of it in the class body."""
        orig = cls.__dict__[attr]
        wrapper = make(orig)
        for name, value in list(vars(cls).items()):
            if value is orig:
                self._set(cls, name, wrapper)

    def install(self):
        from bmhadamard import (cli, exactfield, fastfield, identities,
                                intervals, invariants, linalg, nomura, pell,
                                ratfunc, scheme, serialize, typeii)

        span, count = self.spanned, self.counted
        te = exactfield.TowerElement
        self.patch_method(te, "__mul__", count("exactfield.mul"))
        self.patch_method(te, "inverse", count("exactfield.inverse"))
        self.patch_function(exactfield, "field_sqrt",
                            span("exactfield.field_sqrt"))
        self.patch_function(exactfield, "complex_conj",
                            count("exactfield.complex_conj"))
        self.patch_function(exactfield, "embed_signature",
                            span("exactfield.embed_signature"))

        ft = fastfield.FlatTower
        self.patch_method(ft, "__init__", span("fastfield.FlatTower"))
        self.patch_method(ft, "mul", count("fastfield.mul"))
        self.patch_method(ft, "sub", count("fastfield.sub"))
        self.patch_method(ft, "inv", count("fastfield.inv"))
        self.patch_function(fastfield, "sparse_rank", self._sparse_rank)

        self.patch_function(linalg, "solve", span("linalg.solve"))

        self.patch_method(ratfunc.RatQ, "__init__", count("ratfunc.RatQ"))
        for name in ("ratfunc_specialize", "r_value_at"):
            self.patch_function(ratfunc, name, count(f"ratfunc.{name}"))

        ps = scheme.ParametricScheme
        self.patch_method(ps, "__init__", span("scheme.ParametricScheme"))
        self.patch_method(ps, "p_at", span("scheme.p_at"))

        for name in ("case_a_symbolic", "family_coefficients", "is_type_ii",
                     "is_hadamard", "span_condition"):
            self.patch_function(typeii, name, span(f"typeii.{name}"))

        self.patch_function(identities, "scan_nonvanishing", self._scan)
        for name in ("ns_symbolic", "verify_converse",
                     "verify_core_identities"):
            self.patch_function(identities, name, span(f"identities.{name}"))

        for name in ("element_sign", "abs_is_one"):
            self.patch_function(intervals, name, span(f"intervals.{name}"))
        for name in ("haagerup_bruteforce", "haagerup_formula",
                     "check_inverse_inequivalence"):
            self.patch_function(invariants, name, span(f"invariants.{name}"))

        jg = nomura.JonesGraph
        self.patch_method(jg, "__init__", span("nomura.JonesGraph"))
        self.patch_method(jg, "adjacent", self._adjacent)
        self.patch_method(jg, "component_labels",
                          span("nomura.component_labels"))
        for name in ("check_symmetric", "jones_structure_report"):
            self.patch_function(nomura, name, span(f"nomura.{name}"))

        self.patch_function(pell, "descent_oracle", span("pell.descent_oracle"))
        self.patch_function(serialize, "dump_json", self._dump_json)
        for suite, fn in list(cli.SUITES.items()):
            self.patch_function(cli, fn.__name__, span(f"cli.suite.{suite}"))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    # -- wrappers that record more than one number ---------------------------

    def _scan(self, fn):
        def wrapper(expr_id, case, q_set=None):
            if q_set is not None:
                self.counts["identities.q_values"] += len(q_set)
            idx = self.begin(f"identities.scan.{expr_id}")
            try:
                return fn(expr_id, case, q_set)
            finally:
                self.end(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _sparse_rank(self, fn):
        def rows_pulled(rows):
            it = iter(rows)
            while True:
                idx = self.begin(_GENERATOR_SPAN)
                try:
                    row = next(it, None)
                finally:
                    self.end(idx)
                if row is None:
                    return
                self.counts["fastfield.sparse_rank.rows"] += 1
                yield row

        def wrapper(rows, flat):
            idx = self.begin("fastfield.sparse_rank")
            try:
                rank = fn(rows_pulled(rows), flat)
            finally:
                self.end(idx)
            self.counts["fastfield.sparse_rank.pivots"] += rank
            return rank
        wrapper.__wrapped__ = fn
        return wrapper

    def _adjacent(self, fn):
        counts = self.counts

        def wrapper(graph, ab, cd):
            counts["nomura.adjacent"] += 1
            hit = fn(graph, ab, cd)
            if hit:
                counts["nomura.adjacent.hits"] += 1
            return hit
        wrapper.__wrapped__ = fn
        return wrapper

    def _dump_json(self, fn):
        def wrapper(payload):
            idx = self.begin("serialize.dump_json")
            try:
                text = fn(payload)
            finally:
                self.end(idx)
            self.counts["serialize.report.bytes"] += len(text.encode())
            return text
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Span self time summed by name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def summary(self):
        return {"counts": dict(self.counts), "self_s": self.self_times()}


def layer_metrics(summary):
    """The LAYER_METRICS values of one traced run's ``summary``."""
    counts, self_s = summary["counts"], summary["self_s"]
    self_s = dict(self_s)
    self_s["typeii.span_condition"] = (self_s.get("typeii.span_condition", 0.0)
                                       + self_s.get(_GENERATOR_SPAN, 0.0))
    rows = counts.get("fastfield.sparse_rank.rows", 0)
    tests = counts.get("nomura.adjacent", 0)
    derived = {
        "fastfield.sparse_rank.rows":
            rows,
        "fastfield.sparse_rank.pivot_yield":
            counts.get("fastfield.sparse_rank.pivots", 0) / rows if rows else 0.0,
        "nomura.adjacent.hit_ratio":
            counts.get("nomura.adjacent.hits", 0) / tests if tests else 0.0,
        "serialize.report.bytes":
            counts.get("serialize.report.bytes", 0),
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".count"):
            value = counts.get(name[:-len(".count")], 0)
        else:
            value = self_s.get(name[:-len(".self_s")], 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bmhadamard"
                                    or name.startswith("bmhadamard."))]
