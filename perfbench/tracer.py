"""In-memory span tracer around chmopt's public layer boundaries.

``Tracer.installed()`` wraps the layer entry points for the length of a
``with`` block and restores the originals afterwards. Each wrapped call
records one span: name, start, end, the index of the span that caused it,
and attributes read at the boundary. Objective calls are counted, not
spanned: a sweep makes millions of them and a span each would bury the
optimizers' own cost. ``layer_metrics`` turns a span list into the
per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import statistics
import time

import numpy as np

from chmopt import chm, core, forest, fselect, harness, optimizers
from chmopt.benchmarks import REGISTRY
from workloads import EvalCounter

NAME, START, END, PARENT, ATTRS = range(5)

OPTIMIZER_METHODS = optimizers.OPTIMIZER_NAMES
CELL_METHODS = harness.ALL_METHODS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs):
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[ATTRS].update(attrs)
        self._stack.pop()

    def _span(self, name, describe=None):
        """Wrapper factory: one span per call, attributes from ``describe``."""
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.close(index, **(describe(args, result) if describe else {}))
            return wrapper
        return wrap

    def _optimizer_run(self, fn):
        @functools.wraps(fn)
        def run(opt, pop, obj, bounds, rng):
            before = obj.used
            index = self.open("optimizers.run")
            try:
                return fn(opt, pop, obj, bounds, rng)
            finally:
                self.close(index, method=opt.name, evals=obj.used - before)
        return run

    def _forest_fit(self, fn):
        @functools.wraps(fn)
        def fit(model, X, y):
            key = hashlib.blake2b(np.ascontiguousarray(X).tobytes()
                                  + np.ascontiguousarray(y).tobytes()
                                  + repr((np.shape(X), model.seed, model.params)).encode(),
                                  digest_size=16).hexdigest()
            index = self.open("forest.fit")
            try:
                return fn(model, X, y)
            finally:
                self.close(index, key=key,
                           trees=(model.params.n_trees, model.params.max_depth))
        return fit

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced boundary; yields the evaluation counter."""
        patches = [
            (harness, "run_experiment", self._span("harness.run_experiment")),
            (harness, "run_cell", self._span(
                "harness.run_cell", lambda a, r: {"function": a[1], "method": a[2]})),
            (harness, "aggregate_records", self._span("harness.aggregate_records")),
            (harness, "export_results", self._span("harness.export_results")),
            (harness, "chm_run", self._span(
                "chm.chm_run", lambda a, r: {"iterations": len(r[1].iterations) if r else 0})),
            (fselect, "chm_run", self._span(
                "chm.chm_run", lambda a, r: {"iterations": len(r[1].iterations) if r else 0})),
            (harness, "run_segmented", self._span("chm.run_segmented")),
            (fselect, "run_segmented", self._span("chm.run_segmented")),
            (chm, "probe_all", self._span("chm.probe_all")),
            (chm, "evaluate_population", self._span("core.evaluate_population")),
            (fselect, "run_feature_selection", self._span("fselect.run_feature_selection")),
            (fselect, "fs_cost", self._span(
                "fselect.fs_cost", lambda a, r: {"seed": a[4] if len(a) > 4 else None})),
            (forest.RandomForest, "fit", self._forest_fit),
            (forest.RandomForest, "predict", self._span(
                "forest.predict", lambda a, r: {"rows": len(a[1])})),
        ]
        patches += [(cls, "run", self._optimizer_run)
                    for cls in optimizers.OPTIMIZER_CLASSES.values()]
        undo = []
        try:
            for owner, attr, wrap in patches:
                undo.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, wrap(getattr(owner, attr)))
            with EvalCounter() as counter:
                yield counter
        finally:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _self_ns(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, evals: int, wall_s: float, *, baseline_seed=None,
                  search_trees=None) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None where the pass made no call."""
    own = _self_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total_ns(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    m: dict[str, float | None] = {"benchmarks.evals": evals}

    opt_spans = by_name.get("optimizers.run", [])
    for method in OPTIMIZER_METHODS:
        mine = [i for i in opt_spans if spans[i][ATTRS]["method"] == method]
        n_evals = sum(spans[i][ATTRS]["evals"] for i in mine)
        self_ns = sum(own[i] for i in mine)
        m[f"optimizers.{method}.runs"] = len(mine) or None
        m[f"optimizers.{method}.evals"] = n_evals or None
        m[f"optimizers.{method}.self_s"] = self_ns / 1e9 if mine else None
        m[f"optimizers.{method}.us_per_eval"] = self_ns / 1e3 / n_evals if n_evals else None

    runs = by_name.get("chm.chm_run", [])
    run_ms = [dur(i) / 1e6 for i in runs]
    iterations = sum(spans[i][ATTRS]["iterations"] for i in runs)
    probes = by_name.get("chm.probe_all", [])
    segmented = [dur(i) / 1e6 for i in by_name.get("chm.run_segmented", [])]
    m["chm.runs"] = len(runs) or None
    m["chm.run_ms_p50"] = statistics.median(run_ms) if runs else None
    m["chm.run_ms_p90"] = _quantile(run_ms, 0.9) if runs else None
    m["chm.iterations"] = iterations or None
    m["chm.probe_share"] = (total_ns("chm.probe_all") / total_ns("chm.chm_run")
                            if runs else None)
    m["chm.self_us_per_iter"] = ((sum(own[i] for i in runs) + sum(own[i] for i in probes))
                                 / 1e3 / iterations if iterations else None)
    m["chm.segmented_ms_p50"] = statistics.median(segmented) if segmented else None

    cells = by_name.get("harness.run_cell", [])
    for method in CELL_METHODS:
        mine = [dur(i) / 1e6 for i in cells if spans[i][ATTRS]["method"] == method]
        m[f"harness.cell_ms.{method}"] = statistics.fmean(mine) if mine else None
    groups: dict[tuple, int] = {}
    for i in cells:
        key = (spans[i][ATTRS]["function"], spans[i][ATTRS]["method"])
        groups[key] = groups.get(key, 0) + dur(i)
    m["harness.group_s_max"] = max(groups.values()) / 1e9 if groups else None
    m["harness.group_s_sum"] = sum(groups.values()) / 1e9 if groups else None
    m["harness.export_s"] = (total_ns("harness.export_results") / 1e9
                             if "harness.export_results" in by_name else None)
    m["harness.aggregate_ms"] = (total_ns("harness.aggregate_records") / 1e6
                                 if "harness.aggregate_records" in by_name else None)

    fits = by_name.get("forest.fit", [])
    search = [dur(i) / 1e6 for i in fits if spans[i][ATTRS]["trees"] == search_trees]
    report = [dur(i) / 1e6 for i in fits if spans[i][ATTRS]["trees"] != search_trees]
    predicts = by_name.get("forest.predict", [])
    rows = sum(spans[i][ATTRS]["rows"] for i in predicts)
    m["forest.fits"] = len(fits) or None
    m["forest.fit_ms.search"] = statistics.fmean(search) if search else None
    m["forest.fit_ms.report"] = statistics.fmean(report) if report else None
    m["forest.predict_calls"] = len(predicts) or None
    m["forest.predict_us_per_row"] = total_ns("forest.predict") / 1e3 / rows if rows else None

    costs = by_name.get("fselect.fs_cost", [])
    in_fselect = bool(by_name.get("fselect.run_feature_selection"))
    m["fselect.mask_evals"] = evals if in_fselect else None
    m["fselect.fs_cost_calls"] = len(costs) or None
    m["fselect.distinct_fit_ratio"] = (len({spans[i][ATTRS]["key"] for i in fits}) / len(fits)
                                       if fits else None)
    m["fselect.fit_share"] = total_ns("forest.fit") / 1e9 / wall_s if fits else None
    m["fselect.baseline_fits"] = (sum(1 for i in costs if spans[i][ATTRS]["seed"] == baseline_seed)
                                  if in_fselect else None)
    return m


def objective_costs(seed: int, points: int = 256, repeats: int = 15) -> tuple[float, float]:
    """(raw formula ns per call, extra ns of BudgetedObjective.evaluate).

    Times every registry formula on the same seeded points, directly and
    through a budgeted objective; best of ``repeats`` for each.
    """
    rng = core.SeededRng(seed)
    cases = [(spec.formula, [core.random_position(spec.bounds, rng) for _ in range(points)])
             for spec in REGISTRY.values()]
    calls = points * len(cases)
    raw = budgeted = float("inf")
    for _ in range(repeats):
        t = time.perf_counter_ns()
        for fn, xs in cases:
            for x in xs:
                fn(x)
        raw = min(raw, time.perf_counter_ns() - t)
        t = time.perf_counter_ns()
        for fn, xs in cases:
            evaluate = core.BudgetedObjective(fn, calls).evaluate
            for x in xs:
                evaluate(x)
        budgeted = min(budgeted, time.perf_counter_ns() - t)
    return raw / calls, (budgeted - raw) / calls
