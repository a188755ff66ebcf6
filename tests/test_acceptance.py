"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive fixture runs the full default experiment (28 functions x 6
methods x 50 repetitions, bucket budgets, population 20, 4 iterations) once
and is shared by the criteria that read it.
"""
import collections
import math
import os
import sys
import time
import warnings

import pytest

from chmopt.benchmarks import REGISTRY, get_benchmark, list_benchmarks
from chmopt.chm import ChmConfig, chm_run
from chmopt.core import (
    BudgetedObjective,
    SeededRng,
    best_of,
    evaluate_population,
    random_population,
)
from chmopt.forest import ForestParams
from chmopt.fselect import make_synthetic_dataset, run_feature_selection_all
from chmopt.harness import CHM_METHOD, ExperimentPlan, replay_record, run_experiment
from chmopt.optimizers import OPTIMIZER_NAMES, make_optimizer

from benchmark_checks import local_minimality_check
from conftest import config_budget, report_row, run_segmented_mirror


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _live_reporting(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:>2} {name}: {status}{suffix}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)


@pytest.fixture(scope="module")
def full_results(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("acceptance_results"))
    plan = ExperimentPlan(name="acceptance", repetitions=50, base_seed=1234,
                          workers=min(os.cpu_count() or 1, 4))
    started = time.time()
    result = run_experiment(plan, out_dir=out_dir)
    wall = time.time() - started
    return result, out_dir, wall


def test_criterion_1_registry_fidelity():
    started = time.time()
    minimality_failures = []
    reference_failures = []
    for spec in REGISTRY.values():
        if not local_minimality_check(spec, 1e-3, 1000, SeededRng(7)):
            minimality_failures.append(spec.name)
        if abs(spec.reference_value - spec.formula(spec.optimum)) > 1e-12:
            reference_failures.append(spec.name)
    elapsed = time.time() - started
    ok = (len(REGISTRY) == 28 and not minimality_failures
          and not reference_failures and elapsed < 5.0)
    report(1, "registry fidelity", ok,
           f"28 specs, minimality fails={minimality_failures}, "
           f"reference fails={reference_failures}, {elapsed:.2f}s")
    assert len(REGISTRY) == 28
    assert minimality_failures == []
    assert reference_failures == []
    assert elapsed < 5.0


@pytest.mark.slow
def test_criterion_2_min_fitness_reproduction(full_results):
    result, _, wall = full_results
    hits = []
    misses = []
    for function in result.plan.functions:
        stats = result.stats[(function, CHM_METHOD)]
        (hits if stats.min_fitness < 1e-4 else misses).append(function)
    ok = len(hits) >= 26 and wall < 600.0
    report(2, "hybrid min-fitness reproduction", ok,
           f"{len(hits)}/28 functions < 1e-4, misses={misses}, plan wall {wall:.0f}s")
    assert len(hits) >= 26
    assert wall < 600.0


@pytest.mark.slow
def test_criterion_3_suite_ordering(full_results):
    result, _, _ = full_results
    sums = dict(result.leaderboard.suite_sum_fitness)
    chm_sum = sums[CHM_METHOD]
    worse = {m: v for m, v in sums.items() if m != CHM_METHOD}
    ok = all(chm_sum < v for v in worse.values())
    report(3, "suite-sum ordering", ok,
           "chm %.4f vs " % chm_sum
           + ", ".join(f"{m} {v:.3f}" for m, v in sorted(worse.items())))
    for method, value in worse.items():
        assert chm_sum < value, method


@pytest.mark.slow
def test_criterion_4_selection_dominance(full_results):
    result, _, _ = full_results
    totals = collections.Counter()
    for (function, method), stats in result.stats.items():
        if method == CHM_METHOD:
            for name, count in stats.selection_counts:
                totals[name] += count
    ok = all(totals["de"] >= totals[m] for m in OPTIMIZER_NAMES)
    report(4, "DE selection dominance", ok,
           ", ".join(f"{m} {totals[m]}" for m in OPTIMIZER_NAMES))
    for method in OPTIMIZER_NAMES:
        assert totals["de"] >= totals[method], method


def test_criterion_5_budget_invariants():
    rng = SeededRng(4242)
    functions = [get_benchmark(n) for n in ("matyas", "treccani", "eggcrate")]
    violations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            spec = rng.choice(functions)
            k = rng.randrange(2, 6)
            kinds = rng.sample(list(OPTIMIZER_NAMES), k)
            config = ChmConfig(
                iterations=rng.randrange(1, 4),
                optimizers=tuple(make_optimizer(kind) for kind in kinds),
                population_size=rng.randrange(4, 11),
                maxfe_probing=rng.randrange(5, 41),
                maxfe_fit=rng.randrange(10, 81),
                convergence_epsilon=0.0,
                convergence_patience=10,
            )
            _, trace = chm_run(config, spec.formula, spec.bounds,
                               rng.randrange(10 ** 9),
                               reference_value=spec.reference_value)
            if trace.total_fe > config_budget(config):
                violations += 1
            for it in trace.iterations:
                if any(fe > config.maxfe_probing for fe in it["probe_fe"]):
                    violations += 1
                if it["fit_fe"] > config.maxfe_fit:
                    violations += 1
    report(5, "budget invariants (1000 randomized mini-runs)", violations == 0,
           f"{violations} violations")
    assert violations == 0


@pytest.mark.slow
def test_criterion_6_elitism_monotonicity(full_results):
    functions = ("matyas", "rastrigin", "rosenbrock", "schaffer03", "brent")
    violations = 0
    for kind in OPTIMIZER_NAMES:
        optimizer = make_optimizer(kind)
        for name in functions:
            spec = get_benchmark(name)
            for seed in range(100):
                rng = SeededRng(seed)
                pop = random_population(6, spec.bounds, rng.derive("init"))
                evaluate_population(pop, BudgetedObjective(spec.formula, 6))
                before = best_of(pop).cost
                out = optimizer.run(pop, BudgetedObjective(spec.formula, 150),
                                    spec.bounds, rng.derive("run"))
                if best_of(out).cost > before:
                    violations += 1
    result, _, _ = full_results
    trace_violations = 0
    for (function, method), lines in result.traces.items():
        if method != CHM_METHOD:
            continue
        by_rep = collections.defaultdict(list)
        for record in lines:
            by_rep[record["repetition"]].append(record)
        for records in by_rep.values():
            records.sort(key=lambda r: r["iteration"])
            history = [r["best_fitness"] for r in records]
            if any(a < b for a, b in zip(history, history[1:])):
                trace_violations += 1
    ok = violations == 0 and trace_violations == 0
    report(6, "elitism and monotone best-so-far", ok,
           f"run violations={violations}, trace violations={trace_violations}")
    assert violations == 0
    assert trace_violations == 0


@pytest.mark.slow
def test_criterion_7_determinism_replay(full_results):
    result, _, _ = full_results
    rng = SeededRng(777)
    sample = rng.sample(result.records, 50)
    mismatches = []
    for record in sample:
        again = replay_record(result.plan, record)
        if (again.best_fitness != record.best_fitness
                or again.fe_used != record.fe_used):
            mismatches.append((record.function, record.method, record.repetition))
    report(7, "bit-exact replay of 50 cells", not mismatches,
           f"mismatches={mismatches}")
    assert mismatches == []


def test_criterion_8_degeneracy_equivalence():
    mismatches = []
    for function in ("matyas", "rosenbrock", "rastrigin"):
        spec = get_benchmark(function)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = ChmConfig(iterations=3,
                               optimizers=(make_optimizer("de"),),
                               population_size=8, maxfe_probing=40, maxfe_fit=80,
                               convergence_epsilon=1e-12)
        best, trace = chm_run(config, spec.formula, spec.bounds, 2024,
                              reference_value=spec.reference_value)
        mirror_best, _, mirror_costs = run_segmented_mirror(
            make_optimizer("de"), spec.formula, spec.bounds, 2024,
            iterations=3, maxfe_probing=40, maxfe_fit=80, population_size=8,
            reference_value=spec.reference_value, epsilon=1e-12, patience=1)
        same = (best.cost == mirror_best.cost
                and best.position == mirror_best.position
                and [it["best_cost"] for it in trace.iterations] == mirror_costs)
        if not same:
            mismatches.append(function)
    report(8, "k=1 degeneracy equivalence", not mismatches,
           f"functions checked: matyas, rosenbrock, rastrigin; mismatches={mismatches}")
    assert mismatches == []


@pytest.mark.slow
def test_criterion_9_feature_selection_desk_scale():
    dataset = make_synthetic_dataset(n_rows=300, n_noise=9, flip_fraction=0.1, seed=7)
    reportee = run_feature_selection_all(
        dataset, methods=("chm",) + OPTIMIZER_NAMES,
        repetitions=10, seed=1234, population_size=10, iterations=4,
        maxfe_probing=25, maxfe_fit=50,
        forest_params=ForestParams(n_trees=15, max_depth=6),
        report_forest_params=ForestParams(n_trees=50, max_depth=12))
    chm_row = report_row(reportee, "chm")
    baseline = report_row(reportee, "none")
    signal_hits = sum(1 for run in reportee.runs["chm"] if run["mask"][0])
    strictly_better = [m for m in OPTIMIZER_NAMES
                       if report_row(reportee, m).avg_cost < chm_row.avg_cost - 1e-12]
    ok = (chm_row.avg_cost <= baseline.avg_cost
          and signal_hits >= 8
          and not strictly_better)
    report(9, "feature selection at desk scale", ok,
           f"chm {chm_row.avg_cost:.4f} vs baseline {baseline.avg_cost:.4f}, "
           f"signal {signal_hits}/10, methods below chm={strictly_better}")
    assert chm_row.avg_cost <= baseline.avg_cost
    assert signal_hits >= 8
    assert strictly_better == []


def _classify(records):
    """Iteration index at which best fitness first drops below 1e-4."""
    for record in sorted(records, key=lambda r: r["iteration"]):
        if record["best_fitness"] is not None and record["best_fitness"] < 1e-4:
            iteration = record["iteration"]
            if iteration <= 1:
                return "immediate"
            if iteration == 2:
                return "two_stage"
            return "full_length"
    return "full_length"


@pytest.mark.slow
def test_criterion_10_trace_patterns(full_results):
    import json

    _, out_dir, _ = full_results
    counts = collections.Counter()
    per_function = {}
    for function in ("ackley02", "price02", "rastrigin"):
        path = os.path.join(out_dir, "acceptance", "traces", f"{function}__chm.jsonl")
        by_rep = collections.defaultdict(list)
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                by_rep[record["repetition"]].append(record)
        local = collections.Counter(_classify(records) for records in by_rep.values())
        per_function[function] = dict(local)
        counts.update(local)
    ok = all(counts[c] > 0 for c in ("immediate", "two_stage", "full_length"))
    report(10, "fitness-vs-FE trace patterns", ok, f"{dict(counts)}; {per_function}")
    for pattern in ("immediate", "two_stage", "full_length"):
        assert counts[pattern] > 0, pattern
