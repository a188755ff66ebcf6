"""Command-line front end: registry listing, single runs, benchmark sweeps,
feature selection.

Exit codes: 0 success, 1 usage error, 2 runtime error. Default output is
human-readable; ``--format records`` switches to JSON lines.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from . import benchmarks
from .chm import EvaluationAborted
from .fselect import (
    DatasetError,
    ForestParams,
    FselectPlan,
    load_csv,
    run_feature_selection,
)
from .harness import (
    ALL_METHODS,
    ExperimentPlan,
    format_leaderboard,
    load_plan,
    run_cell,
    run_experiment,
    write_jsonl,
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
    p_run.add_argument("method", help=f"one of {', '.join(ALL_METHODS)}")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--reps", type=int, default=1, help="repetitions (reported separately)")
    p_run.add_argument("--out", help="output root (default: results or $CHMOPT_RESULTS)")
    p_run.add_argument("--format", choices=("table", "records"), default="table")

    p_bench = sub.add_parser("bench", help="run a benchmark experiment plan")
    p_bench.add_argument("--plan", help="JSON plan file; of the flags below only --workers, "
                         "--out and --format apply with it")
    p_bench.add_argument("--functions", type=_names, default=ExperimentPlan.functions,
                         help="comma-separated names (default: all 28)")
    p_bench.add_argument("--methods", type=_names, default=ExperimentPlan.methods,
                         help=f"comma-separated from {', '.join(ALL_METHODS)}")
    p_bench.add_argument("--reps", type=int, default=ExperimentPlan.repetitions)
    p_bench.add_argument("--seed", type=int, default=ExperimentPlan.base_seed)
    p_bench.add_argument("--workers", type=int, help="worker processes (default: 1, "
                         "or the plan's value), at most one per group and per CPU")
    p_bench.add_argument("--name", default=ExperimentPlan.name)
    p_bench.add_argument("--budgets", type=_parse_budgets,
                         help="override probing,fit budgets, e.g. 300,600")
    p_bench.add_argument("--out", help="output root (default: results or $CHMOPT_RESULTS)")
    p_bench.add_argument("--format", choices=("table", "records"), default="table")

    p_fs = sub.add_parser("fselect", help="wrapper feature selection on a CSV dataset")
    p_fs.add_argument("csv")
    p_fs.add_argument("--label", required=True, help="label column name")
    p_fs.add_argument("--method", default="chm",
                      help=f"one of {', '.join(ALL_METHODS)} or 'all'")
    p_fs.add_argument("--reps", type=int, default=FselectPlan.repetitions)
    p_fs.add_argument("--seed", type=int, default=FselectPlan.seed)
    p_fs.add_argument("--population", type=int, default=FselectPlan.population_size)
    p_fs.add_argument("--iterations", type=int, default=FselectPlan.iterations)
    p_fs.add_argument("--budgets", type=_parse_budgets,
                      default=(FselectPlan.maxfe_probing, FselectPlan.maxfe_fit),
                      help="probing,fit budgets per iteration")
    p_fs.add_argument("--trees", type=int, default=ForestParams.n_trees)
    p_fs.add_argument("--depth", type=int, default=ForestParams.max_depth)
    p_fs.add_argument("--strict", action="store_true",
                      help="drop rows with non-numeric feature cells")
    p_fs.add_argument("--out", help="write the report under this directory")
    p_fs.add_argument("--format", choices=("table", "records"), default="table")
    return parser


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


def _parse_budgets(text: str) -> tuple[int, int]:
    try:
        probing, fit = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"budgets must be two comma-separated integers, got {text!r}")
    return probing, fit


def cmd_list(args) -> int:
    if args.format == "records":
        for record in benchmarks.catalogue_records(args.bucket):
            print(json.dumps(record, sort_keys=True))
    else:
        print(benchmarks.format_catalogue(args.bucket))
    return 0


def cmd_run(args) -> int:
    plan = ExperimentPlan(name="single", functions=(args.function,), methods=(args.method,),
                          repetitions=args.reps, base_seed=args.seed)
    out_root = _out_root(args.out)
    os.makedirs(os.path.join(out_root, "traces"), exist_ok=True)
    for rep in range(args.reps):
        record, trace = run_cell(plan, plan.functions[0], plan.methods[0], rep)
        trace_path = os.path.join(
            out_root, "traces",
            f"{record.function}__{record.method}__seed{record.seed}.jsonl")
        write_jsonl(trace_path, trace.to_records())
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
        except (OSError, ValueError, TypeError, RecursionError) as exc:
            raise UsageError(f"cannot load plan {args.plan!r}: {exc}")
    else:
        plan = ExperimentPlan(name=args.name, functions=args.functions, methods=args.methods,
                              repetitions=args.reps, base_seed=args.seed,
                              budget_override=args.budgets)
    if args.workers is not None:
        plan = dataclasses.replace(plan, workers=args.workers)
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
    methods = ALL_METHODS if args.method.strip().lower() == "all" else (args.method,)
    plan = FselectPlan(methods, repetitions=args.reps, seed=args.seed,
                       population_size=args.population, iterations=args.iterations,
                       maxfe_probing=args.budgets[0], maxfe_fit=args.budgets[1],
                       forest_params=ForestParams(n_trees=args.trees, max_depth=args.depth))
    dataset = load_csv(args.csv, args.label, strict=args.strict)
    if dataset.dropped_rows:
        print(f"note: dropped {dataset.dropped_rows} of "
              f"{dataset.n_rows + dataset.dropped_rows} data rows "
              f"(missing or unparseable cells)", file=sys.stderr)
    report = run_feature_selection(dataset, plan)
    if args.format == "records":
        for record in report.to_records():
            print(json.dumps(record, sort_keys=True))
    else:
        print(report.format_table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fselect_report.jsonl")
        write_jsonl(path, report.to_records())
        if args.format == "table":
            print(f"report: {path}")
    return 0


COMMANDS = {"list": cmd_list, "run": cmd_run, "bench": cmd_bench, "fselect": cmd_fselect}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args = parser.parse_args(argv)
            return COMMANDS[args.command](args)
    except (DatasetError, EvaluationAborted, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a count too large to allocate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # after the clause above: a DatasetError is a ValueError, and exits 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
