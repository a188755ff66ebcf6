"""The benchmark's workloads: inputs from a seed, one timed call, digests.

Every workload has two profiles. ``full`` is what a run times. ``tiny`` is
the canary that every run checks against the golden table, the source of
per-layer numbers for layers the full profile never calls, and the
self-test's input. See README.md for why each workload exists.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

from chmopt import core, fselect, harness
from chmopt.forest import ForestParams

DEFAULT_SEED = 1234
HELD_OUT_SEED = 90017  # recorded in golden.json; kept out of tuning runs
SWEEP_WORKERS = 2

SEARCH_FOREST = ForestParams(n_trees=15, max_depth=6)
REPORT_FOREST = ForestParams(n_trees=50, max_depth=12)
TINY_SEARCH_FOREST = ForestParams(n_trees=3, max_depth=3)
TINY_REPORT_FOREST = ForestParams(n_trees=5, max_depth=4)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    """Full-precision JSON text: floats keep every digit through repr."""
    return json.dumps(obj, sort_keys=True)


class EvalCounter:
    """Sums ``used`` over every BudgetedObjective built while it is installed.

    It hooks construction only, so it adds no work to an evaluation. The
    budget counter is the contract every optimizer keeps, so the sum is the
    number of budgeted objective evaluations of the trajectory.
    """

    def __init__(self):
        self.objectives = []
        self._original = None

    def __enter__(self):
        original = core.BudgetedObjective.__init__
        objectives = self.objectives

        def init(obj, fn, cap):
            original(obj, fn, cap)
            objectives.append(obj)

        self._original = original
        core.BudgetedObjective.__init__ = init
        return self

    def __exit__(self, *exc):
        core.BudgetedObjective.__init__ = self._original

    @property
    def evals(self) -> int:
        return sum(obj.used for obj in self.objectives)


class Sweep:
    """``run_experiment`` over the 28-function registry and all six methods."""

    name = "sweep"
    profiles = {
        "full": dict(repetitions=4),
        "tiny": dict(functions=("ackley02", "beale", "matyas", "rastrigin"),
                     repetitions=1, iterations=2, population_size=8,
                     budget_override=(20, 40)),
    }

    def setup(self, profile: str, seed: int):
        # skip_on_error keeps a failing cell a failed operation instead of
        # aborting the pass; it does not enter the exported records
        return harness.ExperimentPlan(name="bench", base_seed=seed, workers=SWEEP_WORKERS,
                                      skip_on_error=True, **self.profiles[profile])

    def run(self, plan, out_dir: str):
        return harness.run_experiment(plan, out_dir)

    def operations(self, plan) -> list[str]:
        return [f"{f}/{m}/{r}" for f in plan.functions for m in plan.methods
                for r in range(plan.repetitions)]

    def digests(self, plan, result, out_dir: str) -> dict[str, str]:
        """One digest per cell, from the exported full-precision runs.jsonl."""
        ops = {}
        with open(os.path.join(out_dir, plan.name, "raw", "runs.jsonl")) as fh:
            for line in fh:
                record = json.loads(line)
                key = f"{record['function']}/{record['method']}/{record['repetition']}"
                ops[key] = digest(line.strip())
        return ops

    def violations(self, plan, result) -> set[str]:
        """Cells that break the budget, errored or hold a non-finite fitness."""
        bad = set()
        for r in result.records:
            if (r.error is not None or r.fe_used > plan.per_run_cap(r.function)
                    or not math.isfinite(r.best_fitness) or r.best_fitness < 0):
                bad.add(f"{r.function}/{r.method}/{r.repetition}")
        return bad

    def evals(self, result, counter) -> int:
        return sum(r.fe_used for r in result.records)


class FeatureSelection:
    """``run_feature_selection_all`` with every method on a synthetic oracle dataset.

    The full profile is acceptance criterion 9's configuration with four
    repetitions per run.
    """

    name = "fselect-desk"
    methods = harness.ALL_METHODS
    profiles = {
        "full": {"dataset": (300, 9, 0.1, 7),
                 "search": dict(repetitions=4, population_size=10, iterations=4,
                                maxfe_probing=25, maxfe_fit=50, forest_params=SEARCH_FOREST,
                                report_forest_params=REPORT_FOREST)},
        "tiny": {"dataset": (60, 3, 0.1, 7),
                 "search": dict(repetitions=1, population_size=4, iterations=1,
                                maxfe_probing=4, maxfe_fit=10, forest_params=TINY_SEARCH_FOREST,
                                report_forest_params=TINY_REPORT_FOREST)},
    }

    def setup(self, profile: str, seed: int):
        spec = self.profiles[profile]
        dataset = fselect.make_synthetic_dataset(*spec["dataset"])
        return dataset, dict(spec["search"], seed=seed)

    def run(self, inputs, out_dir: str):
        dataset, kwargs = inputs
        return fselect.run_feature_selection_all(dataset, methods=self.methods, **kwargs)

    def operations(self, inputs) -> list[str]:
        reps = inputs[1]["repetitions"]
        return [f"{m}/{r}" for m in self.methods for r in range(reps)] + ["report"]

    def digests(self, inputs, report, out_dir: str) -> dict[str, str]:
        """One digest per (method, repetition) search, plus the report rows."""
        ops = {}
        for method, details in report.runs.items():
            for d in details:
                ops[f"{method}/{d['repetition']}"] = digest(canonical({
                    "mask": list(d["mask"]), "search_cost": d["search_cost"],
                    "test_error": d["test_error"], "n_features": d["n_features"]}))
        ops["report"] = digest(canonical(report.to_records()))
        return ops

    def violations(self, inputs, report) -> set[str]:
        """Searches whose mask or errors fall outside their valid ranges."""
        dataset = inputs[0]
        bad = set()
        for method, details in report.runs.items():
            for d in details:
                if (len(d["mask"]) != dataset.n_features
                        or not 0.0 <= d["test_error"] <= 1.0
                        or not 0.0 <= d["search_cost"] <= 1.0):
                    bad.add(f"{method}/{d['repetition']}")
        rows = {r.method for r in report.rows}
        if rows != set(self.methods) | {fselect.BASELINE_METHOD}:
            bad.add("report")
        return bad

    def evals(self, report, counter) -> int:
        return counter.evals


WORKLOADS = {w.name: w for w in (Sweep(), FeatureSelection())}
