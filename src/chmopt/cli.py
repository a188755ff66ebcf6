"""Command-line front end: registry listing, single runs, benchmark sweeps,
feature selection.

Exit codes: 0 success, 1 usage error, 2 runtime error. Default output is
human-readable; ``--format records`` switches to JSON lines.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import benchmarks
from .chm import EvaluationAborted
from .fselect import (
    DatasetError,
    ForestParams,
    load_csv,
    run_feature_selection,
    run_feature_selection_all,
)
from .harness import (
    ALL_METHODS,
    ExperimentPlan,
    format_leaderboard,
    load_plan,
    run_cell,
    run_experiment,
)

OUT_ROOT_ENV = "CHMOPT_RESULTS"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_root(value: str | None) -> str:
    return value or os.environ.get(OUT_ROOT_ENV) or "results"


def build_parser() -> _Parser:
    parser = _Parser(prog="chmopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the benchmark catalogue")
    p_list.add_argument("--bucket", help="restrict to one landscape bucket")
    p_list.add_argument("--format", choices=("table", "records"), default="table")

    p_run = sub.add_parser("run", help="one seeded run of one method on one function")
    p_run.add_argument("function")
    p_run.add_argument("method", choices=ALL_METHODS)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--reps", type=int, default=1, help="repetitions (reported separately)")
    p_run.add_argument("--out", help="output root (default: results or $CHMOPT_RESULTS)")
    p_run.add_argument("--format", choices=("table", "records"), default="table")

    p_bench = sub.add_parser("bench", help="run a benchmark experiment plan")
    p_bench.add_argument("--plan", help="JSON plan file; of the flags below only --workers, "
                         "--out and --format apply with it")
    p_bench.add_argument("--functions", help="comma-separated names (default: all 28)")
    p_bench.add_argument("--methods", help=f"comma-separated from {', '.join(ALL_METHODS)}")
    p_bench.add_argument("--reps", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=1234)
    p_bench.add_argument("--workers", type=int, help="worker processes (default: 1, "
                         "or the plan's value)")
    p_bench.add_argument("--name", default="default")
    p_bench.add_argument("--budgets", help="override probing,fit budgets, e.g. 300,600")
    p_bench.add_argument("--out", help="output root (default: results or $CHMOPT_RESULTS)")
    p_bench.add_argument("--format", choices=("table", "records"), default="table")

    p_fs = sub.add_parser("fselect", help="wrapper feature selection on a CSV dataset")
    p_fs.add_argument("csv")
    p_fs.add_argument("--label", required=True, help="label column name")
    p_fs.add_argument("--method", default="chm",
                      help=f"one of {', '.join(ALL_METHODS)} or 'all'")
    p_fs.add_argument("--reps", type=int, default=10)
    p_fs.add_argument("--seed", type=int, default=1234)
    p_fs.add_argument("--population", type=int, default=10)
    p_fs.add_argument("--iterations", type=int, default=4)
    p_fs.add_argument("--budgets", default="25,50", help="probing,fit budgets per iteration")
    p_fs.add_argument("--trees", type=int, default=50)
    p_fs.add_argument("--depth", type=int, default=12)
    p_fs.add_argument("--strict", action="store_true",
                      help="drop rows with non-numeric feature cells")
    p_fs.add_argument("--out", help="write the report under this directory")
    p_fs.add_argument("--format", choices=("table", "records"), default="table")
    return parser


def _parse_budgets(text: str) -> tuple[int, int]:
    try:
        probing, fit = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"budgets must be two comma-separated integers, got {text!r}")
    if probing < 1 or fit < 1:
        raise UsageError("budgets must be positive")
    return probing, fit


def cmd_list(args) -> int:
    if args.bucket is not None:
        try:
            names = benchmarks.list_benchmarks(args.bucket)
        except ValueError as exc:
            raise UsageError(str(exc))
        bucket = benchmarks.normalize_name(args.bucket)
    else:
        names, bucket = benchmarks.BENCHMARK_NAMES, None
    if args.format == "records":
        for record in benchmarks.catalogue_records():
            if record["name"] in names:
                print(json.dumps(record, sort_keys=True))
    else:
        print(benchmarks.format_catalogue(bucket))
    return 0


def cmd_run(args) -> int:
    try:
        benchmarks.get_benchmark(args.function)
    except benchmarks.UnknownBenchmark as exc:
        raise UsageError(str(exc))
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    plan = ExperimentPlan(name="single", functions=(args.function,),
                          methods=(args.method,), repetitions=args.reps,
                          base_seed=args.seed)
    out_root = _out_root(args.out)
    os.makedirs(os.path.join(out_root, "traces"), exist_ok=True)
    for rep in range(args.reps):
        record, trace = run_cell(plan, benchmarks.normalize_name(args.function),
                                 args.method, rep)
        trace_path = os.path.join(
            out_root, "traces",
            f"{record.function}__{record.method}__seed{record.seed}.jsonl")
        with open(trace_path, "w") as fh:
            for line in trace.to_records():
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        if args.format == "records":
            print(json.dumps(record.to_dict(), sort_keys=True))
        else:
            print(f"function:      {record.function}")
            print(f"method:        {record.method}")
            print(f"seed:          {record.seed}")
            print(f"best fitness:  {record.best_fitness!r}")
            print(f"best cost:     {record.best_cost!r}")
            print("best position: (" + ", ".join(repr(v) for v in record.best_position) + ")")
            print(f"distance:      {record.distance!r}")
            print(f"evaluations:   {record.fe_used}")
            print(f"trace:         {trace_path}")
    return 0


def cmd_bench(args) -> int:
    if args.plan:
        try:
            plan = load_plan(args.plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"cannot load plan {args.plan!r}: {exc}")
    else:
        kwargs = {}
        if args.functions:
            kwargs["functions"] = tuple(
                benchmarks.normalize_name(f) for f in args.functions.split(","))
        if args.methods:
            kwargs["methods"] = tuple(args.methods.split(","))
        if args.budgets:
            kwargs["budget_override"] = _parse_budgets(args.budgets)
        try:
            plan = ExperimentPlan(name=args.name, repetitions=args.reps,
                                  base_seed=args.seed, **kwargs)
        except (ValueError, benchmarks.UnknownBenchmark) as exc:
            raise UsageError(str(exc))
    if args.workers is not None:
        if args.workers < 1:
            raise UsageError("--workers must be >= 1")
        plan.workers = args.workers
    out_root = _out_root(args.out)
    result = run_experiment(plan, out_dir=out_root)
    if args.format == "records":
        for record in result.records:
            print(json.dumps(record.to_dict(), sort_keys=True))
    else:
        print(f"{len(result.records)} runs -> {os.path.join(out_root, plan.name)}")
        print(format_leaderboard(result))
    return 0


def cmd_fselect(args) -> int:
    probing, fit = _parse_budgets(args.budgets)
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    method = args.method.strip().lower()
    if method != "all" and method not in ALL_METHODS:
        raise UsageError(f"unknown method {args.method!r}; "
                         f"valid: {', '.join(ALL_METHODS)} or 'all'")
    dataset = load_csv(args.csv, args.label, strict=args.strict)
    kwargs = dict(repetitions=args.reps, seed=args.seed,
                  population_size=args.population, iterations=args.iterations,
                  maxfe_probing=probing, maxfe_fit=fit,
                  forest_params=ForestParams(n_trees=args.trees, max_depth=args.depth))
    if method == "all":
        report = run_feature_selection_all(dataset, **kwargs)
    else:
        report = run_feature_selection(dataset, method, **kwargs)
    if args.format == "records":
        for record in report.to_records():
            print(json.dumps(record, sort_keys=True))
    else:
        print(report.format_table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fselect_report.jsonl")
        with open(path, "w") as fh:
            for record in report.to_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        if args.format == "table":
            print(f"report: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "fselect":
            return cmd_fselect(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, EvaluationAborted, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
