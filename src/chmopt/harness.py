"""Seeded multi-run experiment driver.

Runs every (function, method, repetition) cell of a plan, each from a seed
mixed out of the plan's base seed, aggregates per-cell best fitness into the
standard per-function statistics, counts which inner methods the hybrid
selected, and writes tables, raw replayable records and per-run traces.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

from .benchmarks import BENCHMARK_NAMES, get_benchmark, normalize_name
from .chm import ChmConfig, chm_run, fe_budget, run_segmented
from .core import (euclidean_distance, fitness, format_table, is_finite_real, is_integer,
                   mix_seed, population_std)
from .optimizers import OPTIMIZER_NAMES, default_portfolio, make_optimizer

CHM_METHOD = "chm"
ALL_METHODS = (CHM_METHOD,) + OPTIMIZER_NAMES


@dataclass
class ExperimentPlan:
    """Configuration of one experiment sweep."""

    name: str = "default"
    functions: tuple[str, ...] = BENCHMARK_NAMES
    methods: tuple[str, ...] = ALL_METHODS
    repetitions: int = 50
    base_seed: int = 1234
    iterations: int = 4
    population_size: int = 20
    budget_override: tuple[int, int] | None = None
    convergence_epsilon: float = 1e-8
    convergence_patience: int = 1
    optimizer_overrides: dict = field(default_factory=dict)
    workers: int = 1
    skip_on_error: bool = False
    distance_to_nearest: bool = False  # measure against the nearest known optimum

    def __post_init__(self):
        self.functions = tuple(normalize_name(f) if isinstance(f, str) else f
                               for f in self.functions)
        self.methods = tuple(m.strip().lower() if isinstance(m, str) else m
                             for m in self.methods)
        if isinstance(self.budget_override, list):
            self.budget_override = tuple(self.budget_override)
        self.validate()

    def validate(self):
        # the name is the export directory under the output root
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(sep and sep in self.name for sep in (os.sep, os.altsep))):
            raise ValueError(f"plan name {self.name!r} must be a plain directory name")
        for attr in ("repetitions", "iterations", "population_size", "workers",
                     "convergence_patience"):
            value = getattr(self, attr)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{attr} must be an integer >= 1, got {value!r}")
        if not is_integer(self.base_seed):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        for attr in ("skip_on_error", "distance_to_nearest"):
            if not isinstance(getattr(self, attr), bool):
                raise ValueError(f"{attr} must be true or false, got {getattr(self, attr)!r}")
        if not is_finite_real(self.convergence_epsilon):
            raise ValueError(f"convergence_epsilon must be a finite number, "
                             f"got {self.convergence_epsilon!r}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {', '.join(ALL_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        if not self.functions:
            raise ValueError("functions must be non-empty")
        for f in self.functions:
            if not isinstance(f, str):
                raise ValueError(f"function names must be strings, got {f!r}")
            get_benchmark(f)  # raises on unknown names
        if len({normalize_name(f) for f in self.functions}) != len(self.functions):
            raise ValueError(f"functions must not repeat, got {list(self.functions)}")
        if self.budget_override is not None and (
                not isinstance(self.budget_override, (tuple, list))
                or len(self.budget_override) != 2
                or not all(is_integer(v) and v >= 1 for v in self.budget_override)):
            raise ValueError(f"budget_override must be two integers >= 1 (probing, fit), "
                             f"got {self.budget_override!r}")
        if not isinstance(self.optimizer_overrides, dict):
            raise ValueError("optimizer_overrides must map method names to parameters")
        for name, params in self.optimizer_overrides.items():
            if name not in OPTIMIZER_NAMES:
                raise ValueError(f"optimizer_overrides: unknown method {name!r}; "
                                 f"valid: {', '.join(OPTIMIZER_NAMES)}")
            if not isinstance(params, dict):
                raise ValueError(f"optimizer_overrides[{name!r}] must map parameter "
                                 f"names to values")
            try:
                make_optimizer(name, **params)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"optimizer_overrides[{name!r}]: {exc}") from exc

    def budgets_for(self, function: str) -> tuple[int, int]:
        if self.budget_override is not None:
            return tuple(self.budget_override)
        return get_benchmark(function).budgets

    def cell_seed(self, function: str, method: str, repetition: int) -> int:
        return mix_seed(self.base_seed, function, method, repetition)

    def per_run_cap(self, function: str) -> int:
        probing, fit = self.budgets_for(function)
        return fe_budget(len(OPTIMIZER_NAMES), probing, fit, self.iterations,
                         self.population_size)


def load_plan(path: str) -> ExperimentPlan:
    with open(path) as fh:
        return ExperimentPlan(**json.load(fh))


def save_plan(plan: ExperimentPlan, path: str):
    with open(path, "w") as fh:
        json.dump(asdict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunRecord:
    """One completed run cell; everything needed to replay it bit-exactly."""

    function: str
    method: str
    repetition: int
    seed: int
    best_fitness: float
    best_cost: float
    best_position: tuple[float, ...]
    distance: float
    fe_used: int
    phases: int  # orchestrator iterations or driver segments executed
    converged: bool
    selections: tuple[str, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def run_method(method: str, objective_fn, bounds, seed, *, iterations: int,
               population_size: int, maxfe_probing: int, maxfe_fit: int,
               reference_value: float | None = None,
               convergence_epsilon: float = 1e-8, convergence_patience: int = 1,
               optimizer_overrides: dict | None = None):
    """One seeded run of ``method``: the hybrid over the default portfolio, or
    one inner optimizer in ``iterations`` segments, each segment the budget of
    one hybrid iteration. Returns (best individual, trace)."""
    overrides = optimizer_overrides or {}
    if method == CHM_METHOD:
        config = ChmConfig(
            iterations=iterations,
            optimizers=default_portfolio(overrides),
            population_size=population_size,
            maxfe_probing=maxfe_probing,
            maxfe_fit=maxfe_fit,
            convergence_epsilon=convergence_epsilon,
            convergence_patience=convergence_patience,
        )
        return chm_run(config, objective_fn, bounds, seed,
                       reference_value=reference_value)
    return run_segmented(
        make_optimizer(method, **overrides.get(method, {})), objective_fn, bounds, seed,
        segments=iterations,
        segment_fe=fe_budget(len(OPTIMIZER_NAMES), maxfe_probing, maxfe_fit),
        population_size=population_size,
        reference_value=reference_value,
        convergence_epsilon=convergence_epsilon,
        convergence_patience=convergence_patience,
    )


def run_cell(plan: ExperimentPlan, function: str, method: str, repetition: int):
    """Execute one (function, method, repetition) cell; returns (record, trace)."""
    spec = get_benchmark(function)
    seed = plan.cell_seed(function, method, repetition)
    probing, fit = plan.budgets_for(function)
    best, trace = run_method(
        method, spec.formula, spec.bounds, seed,
        iterations=plan.iterations, population_size=plan.population_size,
        maxfe_probing=probing, maxfe_fit=fit, reference_value=spec.reference_value,
        convergence_epsilon=plan.convergence_epsilon,
        convergence_patience=plan.convergence_patience,
        optimizer_overrides=plan.optimizer_overrides,
    )
    if plan.distance_to_nearest:
        distance = min(euclidean_distance(best.position, opt)
                       for opt in spec.all_optima())
    else:
        distance = euclidean_distance(best.position, spec.optimum)
    record = RunRecord(
        function=function,
        method=method,
        repetition=repetition,
        seed=seed,
        best_fitness=fitness(best.cost, spec.reference_value),
        best_cost=best.cost,
        best_position=tuple(best.position),
        distance=distance,
        fe_used=trace.total_fe,
        phases=len(trace.iterations),
        converged=trace.converged,
        selections=trace.selections(),
    )
    return record, trace


def replay_record(plan: ExperimentPlan, record: RunRecord) -> RunRecord:
    """Re-run a recorded cell from its stored coordinates."""
    fresh, _ = run_cell(plan, record.function, record.method, record.repetition)
    return fresh


@dataclass(frozen=True)
class RunStats:
    """Aggregates over the repetitions of one (function, method) cell group."""

    function: str
    method: str
    repetitions: int
    mean_fitness: float
    std_fitness: float
    min_fitness: float
    sum_fitness: float
    mean_distance: float
    mean_fe: float
    selection_counts: tuple[tuple[str, int], ...] = ()


def aggregate_records(records) -> dict[tuple[str, str], RunStats]:
    """Deterministic reduction over sorted cell keys."""
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for r in records:
        if r.error is not None:
            continue
        groups.setdefault((r.function, r.method), []).append(r)
    stats = {}
    for key in sorted(groups):
        runs = sorted(groups[key], key=lambda r: r.repetition)
        fitnesses = [r.best_fitness for r in runs]
        counts: dict[str, int] = {}
        for r in runs:
            for name in r.selections:
                counts[name] = counts.get(name, 0) + 1
        stats[key] = RunStats(
            function=key[0],
            method=key[1],
            repetitions=len(runs),
            mean_fitness=sum(fitnesses) / len(fitnesses),
            std_fitness=population_std(fitnesses),
            min_fitness=min(fitnesses),
            sum_fitness=sum(fitnesses),
            mean_distance=sum(r.distance for r in runs) / len(runs),
            mean_fe=sum(r.fe_used for r in runs) / len(runs),
            selection_counts=tuple(sorted(counts.items())),
        )
    return stats


@dataclass(frozen=True)
class LeaderBoard:
    """Suite-level summary over all functions of a result set, keyed by method."""

    lowest_fitness_counts: dict[str, int]
    lowest_distance_counts: dict[str, int]
    suite_avg_fitness: dict[str, float]
    suite_sum_fitness: dict[str, float]


def build_leaderboard(plan: ExperimentPlan,
                      stats: dict[tuple[str, str], RunStats]) -> LeaderBoard:
    functions = [f for f in plan.functions
                 if any((f, m) in stats for m in plan.methods)]
    lowest = {"mean_fitness": dict.fromkeys(plan.methods, 0),
              "mean_distance": dict.fromkeys(plan.methods, 0)}
    for f in functions:
        row = [stats[(f, m)] for m in plan.methods if (f, m) in stats]
        for attribute, counts in lowest.items():
            low = min(getattr(st, attribute) for st in row)
            for st in row:
                if getattr(st, attribute) == low:
                    counts[st.method] += 1

    means = {m: [stats[(f, m)].mean_fitness for f in functions if (f, m) in stats]
             for m in plan.methods}
    return LeaderBoard(
        lowest_fitness_counts=lowest["mean_fitness"],
        lowest_distance_counts=lowest["mean_distance"],
        suite_avg_fitness={m: sum(v) / len(v) for m, v in means.items() if v},
        suite_sum_fitness={m: sum(v) for m, v in means.items() if v})


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    records: list[RunRecord]
    stats: dict[tuple[str, str], RunStats]
    leaderboard: LeaderBoard
    traces: dict[tuple[str, str], list] = field(default_factory=dict)


def _run_group(plan: ExperimentPlan, function: str, method: str):
    """Worker task: the records and trace lines of one (function, method) group."""
    records = []
    trace_lines = []
    for rep in range(plan.repetitions):
        try:
            record, trace = run_cell(plan, function, method, rep)
        except Exception as exc:
            if not plan.skip_on_error:
                raise
            records.append(RunRecord(
                function=function, method=method, repetition=rep,
                seed=plan.cell_seed(function, method, rep),
                best_fitness=math.nan, best_cost=math.nan, best_position=(),
                distance=math.nan, fe_used=0, phases=0, converged=False,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        records.append(record)
        trace_lines.extend({**line, "repetition": rep, "seed": record.seed}
                           for line in trace.to_records())
    return records, trace_lines


def run_experiment(plan: ExperimentPlan, out_dir: str | None = None) -> ExperimentResult:
    """Execute every cell of the plan; optionally export results to ``out_dir``.

    Groups run in a pool of min(``plan.workers``, groups, CPUs) worker
    processes when that is above 1, in this process otherwise; results are
    collected in sorted (function, method) order."""
    plan.validate()
    tasks = [(f, m) for f in plan.functions for m in plan.methods]
    workers = min(plan.workers, len(tasks), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        groups = list((pool.map if pool else map)(
            _run_group, [plan] * len(tasks), *zip(*tasks)))
    grouped = sorted(zip(tasks, groups))
    records = [r for _, (recs, _) in grouped for r in recs]
    stats = aggregate_records(records)
    result = ExperimentResult(plan=plan, records=records, stats=stats,
                              leaderboard=build_leaderboard(plan, stats),
                              traces={key: lines for key, (_, lines) in grouped})
    if out_dir is not None:
        export_results(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# export


def format_table_value(value: float) -> str:
    return f"{value:.3f}"


def _write_csv(path: str, rows):
    with open(path, "w") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_jsonl(path: str, records):
    """One JSON object per line, keys sorted."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def _summary_rows(result: ExperimentResult) -> list[tuple[str, ...]]:
    """Per method: lowest-fitness count, lowest-distance count, suite average
    and suite sum of fitness, as table cells."""
    board = result.leaderboard
    return [(m,
             str(board.lowest_fitness_counts[m]),
             str(board.lowest_distance_counts[m]),
             format_table_value(board.suite_avg_fitness.get(m, math.nan)),
             format_table_value(board.suite_sum_fitness.get(m, math.nan)))
            for m in result.plan.methods]


def export_results(result: ExperimentResult, out_dir: str):
    """Write tables (3-decimal views), raw replayable records (full precision)
    and per-run traces under ``out_dir``."""
    plan, stats = result.plan, result.stats
    root = os.path.join(out_dir, plan.name)
    try:
        for sub in ("tables", "raw", "traces"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create results directory {root!r}: {exc}") from exc

    tables = os.path.join(root, "tables")
    for attribute in ("mean_fitness", "std_fitness", "min_fitness", "sum_fitness",
                      "mean_distance", "mean_fe"):
        rows = [("function",) + plan.methods]
        rows += [(f,) + tuple(format_table_value(getattr(stats[(f, m)], attribute))
                              if (f, m) in stats else "" for m in plan.methods)
                 for f in plan.functions]
        _write_csv(os.path.join(tables, attribute + ".csv"), rows)
    if CHM_METHOD in plan.methods:
        rows = [("function",) + OPTIMIZER_NAMES]
        for f in plan.functions:
            st = stats.get((f, CHM_METHOD))
            counts = dict(st.selection_counts) if st else {}
            rows.append((f,) + tuple(str(counts.get(m, 0)) for m in OPTIMIZER_NAMES))
        _write_csv(os.path.join(tables, "selection_frequencies.csv"), rows)
    _write_csv(os.path.join(tables, "summary.csv"),
               [("method", "lowest_fitness_count", "lowest_distance_count",
                 "suite_avg_fitness", "suite_sum_fitness")] + _summary_rows(result))

    write_jsonl(os.path.join(root, "raw", "runs.jsonl"), map(asdict, result.records))
    save_plan(plan, os.path.join(root, "raw", "plan.json"))
    for (function, method), lines in result.traces.items():
        write_jsonl(os.path.join(root, "traces", f"{function}__{method}.jsonl"), lines)


def format_leaderboard(result: ExperimentResult) -> str:
    """Human-readable suite summary: the rows of ``summary.csv``."""
    header = ("method", "lowest fitness", "lowest distance", "avg fitness", "sum fitness")
    return format_table([header] + _summary_rows(result))
