"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each listed public function of the package by
a wrapper, under every name its callers look it up by: the defining
module's attribute, each `from ... import` binding in the other package
modules, and the package namespace.  Methods are wrapped on their class.
`Tracer.uninstall()` puts the originals back.

A span records (name, start, end, parent) in flat arrays kept in memory;
`write()` saves them when the run ends.  Leaf functions called millions of
times are counted, not spanned.  Self time is a span's duration minus the
part covered by its traced child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, metric prefix, mode); mode "span" or "count".
TARGETS = (
    ("model", "instance_from_dict", "model.instance_from_dict", "span"),
    ("model", "sample_state", "model.sample_state", "span"),
    ("geometry", "pareto_frontier", "geometry.pareto_frontier", "span"),
    ("geometry", "line_side", "geometry.line_side", "count"),
    ("prob_oracle", "segment_probabilities", "prob_oracle.segment_probabilities", "span"),
    ("prob_oracle", "unique_probabilities", "prob_oracle.unique_probabilities", "span"),
    ("prob_oracle", "subset_product_sum", "prob_oracle.subset_product_sum", "count"),
    ("lp_core", "solve_slope_lp", "lp_core.solve_slope_lp", "span"),
    ("lp_core", "solve_lp", "lp_core.solve_lp", "span"),
    ("symmetric_schemes", "slope_algorithm", "symmetric_schemes.slope_algorithm", "span"),
    ("symmetric_schemes", "SlopeSchemeExecutor.recommend", "symmetric_schemes.recommend", "span"),
    ("symmetric_schemes", "SlopeSchemeExecutor.recommendation_distribution",
     "symmetric_schemes.recommendation_distribution", "span"),
    ("symmetric_schemes", "bicriteria_scheme", "symmetric_schemes.bicriteria_scheme", "span"),
    ("independent_schemes", "f_of_S", "independent_schemes.f_of_S", "span"),
    ("independent_schemes", "g_curve", "independent_schemes.g_curve", "span"),
    ("independent_schemes", "fptas_select", "independent_schemes.fptas_select", "span"),
    ("independent_schemes", "actions_greedy", "independent_schemes.actions_greedy", "span"),
    ("independent_schemes", "actions_reduce", "independent_schemes.actions_reduce", "span"),
    ("exact_oracle", "enumerate_prior", "exact_oracle.enumerate_prior", "span"),
    ("exact_oracle", "optimal_scheme_bruteforce", "exact_oracle.optimal_scheme_bruteforce", "span"),
    ("exact_oracle", "persuasiveness_check", "exact_oracle.persuasiveness_check", "span"),
    ("exact_oracle", "expected_utilities", "exact_oracle.expected_utilities", "span"),
    ("simulate", "estimate", "simulate.estimate", "span"),
)


def _solve_lp_counts(args, kwargs, result, counts: Counter) -> None:
    lp = args[0] if args else kwargs["lp"]
    counts["lp_core.solve_lp.rows"] += len(lp.rows)
    counts["lp_core.solve_lp.cols"] += len(lp.objective)


def _slope_lp_counts(args, kwargs, result, counts: Counter) -> None:
    counts["lp_core.solve_slope_lp.feasible"] += result is not None


def _enumerate_counts(args, kwargs, result, counts: Counter) -> None:
    counts["exact_oracle.enumerate_prior.states"] += len(result)


def _estimate_counts(args, kwargs, result, counts: Counter) -> None:
    counts["simulate.samples"] += result.samples


# Counts drawn from a call's arguments or result, by metric prefix.
RESULT_COUNTS = {
    "lp_core.solve_lp": _solve_lp_counts,
    "lp_core.solve_slope_lp": _slope_lp_counts,
    "exact_oracle.enumerate_prior": _enumerate_counts,
    "simulate.estimate": _estimate_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()  # metric prefixes whose function exists

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        on_result = RESULT_COUNTS.get(name)
        stack, counts = self._stack, self.counts
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self, package: str = "persuade") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, attr, metric, mode in TARGETS:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:  # a method, wrapped once on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                self._set(cls, meth, original, self._span(metric, original))
                self.installed.add(metric)
                continue
            original = getattr(home, attr, None)
            if original is None:  # removed by a later change: reads as absent
                continue
            wrapper = self._span(metric, original) if mode == "span" else self._count(metric, original)
            self.installed.add(metric)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Per-name calls, inclusive seconds (outermost spans only, so a
        recursive call is not counted twice) and self seconds, plus counts."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child[i]
            outer = True
            p = self.span_parent[i]
            while p >= 0:
                if self.span_name[p] == self.span_name[i]:
                    outer = False
                    break
                p = self.span_parent[p]
            if outer:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Save every span as [name, start, end, parent] rows."""
        rows = [
            [self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_start))
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")
