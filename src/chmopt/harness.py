"""Seeded multi-run experiment driver.

Runs every (function, method, repetition) cell of a plan, each from a seed
mixed out of the plan's base seed, aggregates per-cell best fitness into the
standard per-function statistics, counts which inner methods the hybrid
selected, and writes tables, raw replayable records and per-run traces.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

from .benchmarks import BENCHMARK_NAMES, get_benchmark
from .chm import ChmConfig, chm_run, fe_budget, run_segmented
from .core import euclidean_distance, format_table, mix_seed, population_std
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
        self.functions = tuple(self.functions)
        self.methods = tuple(m.strip().lower() for m in self.methods)
        self.validate()

    def validate(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {', '.join(ALL_METHODS)}")
        if not self.functions:
            raise ValueError("functions must be non-empty")
        for f in self.functions:
            get_benchmark(f)  # raises on unknown names
        if self.budget_override is not None:
            probing, fit = self.budget_override
            if probing < 1 or fit < 1:
                raise ValueError("budget override values must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["functions"] = list(self.functions)
        d["methods"] = list(self.methods)
        d["budget_override"] = (list(self.budget_override)
                                if self.budget_override else None)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        data = dict(data)
        if data.get("budget_override"):
            data["budget_override"] = tuple(data["budget_override"])
        return cls(**data)


def load_plan(path: str) -> ExperimentPlan:
    with open(path) as fh:
        return ExperimentPlan.from_dict(json.load(fh))


def save_plan(plan: ExperimentPlan, path: str):
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
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
        d = asdict(self)
        d["best_position"] = list(self.best_position)
        d["selections"] = list(self.selections)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        data = dict(data)
        data["best_position"] = tuple(data["best_position"])
        data["selections"] = tuple(data.get("selections") or ())
        return cls(**data)


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
        best_fitness=abs(best.cost - spec.reference_value),
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


def selection_frequencies(traces) -> dict[str, int]:
    """Fit-phase selection counts per inner method across traces."""
    traces = list(traces)
    if not traces:
        raise ValueError("traces must be non-empty")
    counts: dict[str, int] = {}
    for trace in traces:
        for name in trace.selections():
            counts[name] = counts.get(name, 0) + 1
    return counts


@dataclass(frozen=True)
class LeaderBoard:
    """Suite-level summary over all functions of a result set."""

    single_best: tuple[tuple[str, tuple[str, ...]], ...]  # function -> tied best single methods
    best_chm: tuple[tuple[str, str], ...]  # function -> most selected inner method
    lowest_fitness_counts: tuple[tuple[str, int], ...]
    lowest_distance_counts: tuple[tuple[str, int], ...]
    suite_avg_fitness: tuple[tuple[str, float], ...]
    suite_sum_fitness: tuple[tuple[str, float], ...]

    def as_dict(self) -> dict:
        return {
            "single_best": {f: list(m) for f, m in self.single_best},
            "best_chm": dict(self.best_chm),
            "lowest_fitness_counts": dict(self.lowest_fitness_counts),
            "lowest_distance_counts": dict(self.lowest_distance_counts),
            "suite_avg_fitness": dict(self.suite_avg_fitness),
            "suite_sum_fitness": dict(self.suite_sum_fitness),
        }


def build_leaderboard(plan: ExperimentPlan,
                      stats: dict[tuple[str, str], RunStats]) -> LeaderBoard:
    functions = [f for f in plan.functions
                 if any((f, m) in stats for m in plan.methods)]
    methods = list(plan.methods)
    single_methods = [m for m in methods if m != CHM_METHOD]

    single_best = []
    best_chm = []
    lowest_fitness = {m: 0 for m in methods}
    lowest_distance = {m: 0 for m in methods}
    for f in functions:
        if single_methods:
            by_fitness = {m: stats[(f, m)].mean_fitness for m in single_methods
                          if (f, m) in stats}
            if by_fitness:
                best_value = min(by_fitness.values())
                tied = tuple(m for m in single_methods
                             if m in by_fitness and by_fitness[m] == best_value)
                single_best.append((f, tied))
        if (f, CHM_METHOD) in stats:
            counts = dict(stats[(f, CHM_METHOD)].selection_counts)
            if counts:
                top = max(counts.values())
                for name in OPTIMIZER_NAMES:  # deterministic tie-break
                    if counts.get(name) == top:
                        best_chm.append((f, name))
                        break
        fit_values = {m: stats[(f, m)].mean_fitness for m in methods if (f, m) in stats}
        if fit_values:
            low = min(fit_values.values())
            for m, v in fit_values.items():
                if v == low:
                    lowest_fitness[m] += 1
        dist_values = {m: stats[(f, m)].mean_distance for m in methods if (f, m) in stats}
        if dist_values:
            low = min(dist_values.values())
            for m, v in dist_values.items():
                if v == low:
                    lowest_distance[m] += 1

    suite_avg = []
    suite_sum = []
    for m in methods:
        means = [stats[(f, m)].mean_fitness for f in functions if (f, m) in stats]
        if means:
            suite_avg.append((m, sum(means) / len(means)))
            suite_sum.append((m, sum(means)))
    return LeaderBoard(
        single_best=tuple(single_best),
        best_chm=tuple(best_chm),
        lowest_fitness_counts=tuple(sorted(lowest_fitness.items())),
        lowest_distance_counts=tuple(sorted(lowest_distance.items())),
        suite_avg_fitness=tuple(suite_avg),
        suite_sum_fitness=tuple(suite_sum),
    )


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    records: list[RunRecord]
    stats: dict[tuple[str, str], RunStats]
    leaderboard: LeaderBoard
    traces: dict[tuple[str, str], list] = field(default_factory=dict)


def _run_group(plan_dict: dict, function: str, method: str):
    """Worker task: all repetitions of one (function, method) group."""
    plan = ExperimentPlan.from_dict(plan_dict)
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
                error=f"{type(exc).__name__}: {exc}").to_dict())
            continue
        records.append(record.to_dict())
        for line in trace.to_records():
            line = dict(line)
            line.update(repetition=rep, seed=record.seed)
            trace_lines.append(line)
    return function, method, records, trace_lines


def run_experiment(plan: ExperimentPlan, out_dir: str | None = None) -> ExperimentResult:
    """Execute every cell of the plan; optionally export results to ``out_dir``."""
    plan.validate()
    tasks = [(f, m) for f in plan.functions for m in plan.methods]
    plan_dict = plan.to_dict()
    grouped: dict[tuple[str, str], tuple[list, list]] = {}
    if plan.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            futures = [pool.submit(_run_group, plan_dict, f, m) for f, m in tasks]
            for fut in futures:
                function, method, records, trace_lines = fut.result()
                grouped[(function, method)] = (records, trace_lines)
    else:
        for f, m in tasks:
            function, method, records, trace_lines = _run_group(plan_dict, f, m)
            grouped[(function, method)] = (records, trace_lines)

    records = []
    trace_lines: dict[tuple[str, str], list] = {}
    for key in sorted(grouped):
        recs, lines = grouped[key]
        records.extend(RunRecord.from_dict(r) for r in recs)
        trace_lines[key] = lines
    stats = aggregate_records(records)
    leaderboard = build_leaderboard(plan, stats)
    result = ExperimentResult(plan=plan, records=records, stats=stats,
                              leaderboard=leaderboard, traces=trace_lines)
    if out_dir is not None:
        export_results(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# export


def format_table_value(value: float) -> str:
    return f"{value:.3f}"


def _write_matrix_csv(path: str, plan, stats, attribute: str):
    methods = list(plan.methods)
    with open(path, "w") as fh:
        fh.write("function," + ",".join(methods) + "\n")
        for f in plan.functions:
            cells = []
            for m in methods:
                st = stats.get((f, m))
                cells.append(format_table_value(getattr(st, attribute)) if st else "")
            fh.write(f + "," + ",".join(cells) + "\n")


def export_results(result: ExperimentResult, out_dir: str):
    """Write tables (3-decimal views), raw replayable records (full precision)
    and per-run traces under ``out_dir``."""
    plan = result.plan
    root = os.path.join(out_dir, plan.name)
    try:
        for sub in ("tables", "raw", "traces"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create results directory {root!r}: {exc}") from exc

    tables = os.path.join(root, "tables")
    for attribute in ("mean_fitness", "std_fitness", "min_fitness", "sum_fitness",
                      "mean_distance", "mean_fe"):
        _write_matrix_csv(os.path.join(tables, attribute + ".csv"),
                          plan, result.stats, attribute)

    if CHM_METHOD in plan.methods:
        with open(os.path.join(tables, "selection_frequencies.csv"), "w") as fh:
            fh.write("function," + ",".join(OPTIMIZER_NAMES) + "\n")
            for f in plan.functions:
                st = result.stats.get((f, CHM_METHOD))
                counts = dict(st.selection_counts) if st else {}
                fh.write(f + "," + ",".join(str(counts.get(m, 0))
                                            for m in OPTIMIZER_NAMES) + "\n")

    with open(os.path.join(tables, "summary.csv"), "w") as fh:
        board = result.leaderboard.as_dict()
        fh.write("method,lowest_fitness_count,lowest_distance_count,"
                 "suite_avg_fitness,suite_sum_fitness\n")
        for m in plan.methods:
            fh.write(",".join([
                m,
                str(board["lowest_fitness_counts"].get(m, 0)),
                str(board["lowest_distance_counts"].get(m, 0)),
                format_table_value(board["suite_avg_fitness"].get(m, math.nan)),
                format_table_value(board["suite_sum_fitness"].get(m, math.nan)),
            ]) + "\n")

    with open(os.path.join(root, "raw", "runs.jsonl"), "w") as fh:
        for r in result.records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    save_plan(plan, os.path.join(root, "raw", "plan.json"))

    for (function, method), lines in result.traces.items():
        path = os.path.join(root, "traces", f"{function}__{method}.jsonl")
        with open(path, "w") as fh:
            for line in lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def load_records(path: str) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


def format_leaderboard(result: ExperimentResult) -> str:
    """Human-readable suite summary."""
    board = result.leaderboard.as_dict()
    methods = list(result.plan.methods)
    header = ("method", "lowest fitness", "lowest distance", "avg fitness", "sum fitness")
    rows = [header]
    for m in methods:
        rows.append((
            m,
            str(board["lowest_fitness_counts"].get(m, 0)),
            str(board["lowest_distance_counts"].get(m, 0)),
            format_table_value(board["suite_avg_fitness"].get(m, math.nan)),
            format_table_value(board["suite_sum_fitness"].get(m, math.nan)),
        ))
    return format_table(rows)
