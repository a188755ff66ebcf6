"""Measuring process of the benchmark. run.py starts it; it is not the entry point.

    python3 perfbench/measure.py setup --workload W --seed N [--profile P]
    python3 perfbench/measure.py run --workload W --seed N --seconds S --trace 0|1 [--profile P]
    python3 perfbench/measure.py record-golden

``setup`` builds a workload's inputs and prints the wall-clock time at which
they were ready, so the parent can time interpreter start plus set-up.
``run`` times the workload and prints one JSON object of raw measurements.
``record-golden`` rewrites golden.json from the current source tree. Run it
only at a commit whose outputs define what is correct.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, SRC)

import chmopt  # noqa: E402
import numpy  # noqa: E402

if not os.path.abspath(chmopt.__file__).startswith(os.path.join(SRC, "chmopt") + os.sep):
    sys.exit(f"measure: chmopt imported from {chmopt.__file__}, not from {SRC}")

from chmopt.core import mix_seed  # noqa: E402
from tracer import Tracer, layer_metrics, objective_costs  # noqa: E402
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, SWEEP_WORKERS,  # noqa: E402
                       WORKLOADS, EvalCounter, Sweep)


def fallback_source(metric: str) -> str:
    """The workload whose tiny profile calls the layer a metric belongs to."""
    return "fselect-desk" if metric.startswith(("forest.", "fselect.")) else "sweep"


def calib_ms(repeats: int = 3) -> float:
    """A fixed pure-Python loop; drifts with the machine's speed, not the code's."""
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def load_golden(workload: str, profile: str, seed: int):
    if not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload, {}).get(profile, {}).get(str(seed))


def _cpu_s(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def one_pass(workload, inputs, tracer: Tracer | None = None) -> dict:
    """Run the workload's timed call once; untraced unless a tracer is given.

    Digests, checks and the export size are taken after the clock stops.
    An exception is reported as a pass with no digests, so every operation
    of it counts as failed.
    """
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            with tracer.installed() if tracer else EvalCounter() as counter:
                self0, child0 = _usage()
                root = tracer.open("pass") if tracer else None
                t0 = time.perf_counter()
                output = workload.run(inputs, tmp)
                wall = time.perf_counter() - t0
                if tracer:
                    tracer.close(root)
                self1, child1 = _usage()
        except Exception:
            traceback.print_exc()
            return {"error": traceback.format_exc(limit=1).strip().splitlines()[-1],
                    "digests": {}, "bad": set()}
        return {"wall_s": wall,
                "cpu_s": _cpu_s(self0, self1) + _cpu_s(child0, child1),
                "evals": workload.evals(output, counter),
                "export_bytes": _tree_bytes(tmp),
                "digests": workload.digests(inputs, output, tmp),
                "bad": workload.violations(inputs, output)}


class Checker:
    """Counts operations attempted and failed across the passes of one input.

    An operation fails when it errored, broke an invariant, is missing, or
    its digest differs from the golden table (when the seed is in it) or
    from the first pass over the same input.
    """

    def __init__(self, label: str, operations, golden, require_golden=False):
        self.label = label
        self.operations = list(operations)
        self.golden = golden
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.notes = []
        if golden is None and require_golden:
            self.notes.append(f"{label}: no golden digests")

    def check(self, result: dict, name: str):
        digests = result["digests"]
        failed = set(result["bad"])
        for op in self.operations:
            d = digests.get(op)
            if (d is None or (self.golden is not None and self.golden.get(op) != d)
                    or (self.reference is not None and self.reference.get(op) != d)):
                failed.add(op)
        if self.reference is None and digests:
            self.reference = digests
        self.attempted += len(self.operations)
        self.failed += len(failed)
        if "error" in result:
            self.notes.append(f"{self.label} {name}: {result['error']}")
        elif failed:
            self.notes.append(f"{self.label} {name}: {len(failed)} failed, "
                              f"first {sorted(failed)[:3]}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "notes": self.notes,
                "golden": "absent" if self.golden is None else "compared"}


def traced_layers(workload, profile: str, seed: int, checker: Checker) -> dict:
    """Per-layer metrics of one traced pass, with the untraced passes they need."""
    inputs = workload.setup(profile, seed)
    parallel = None
    if isinstance(workload, Sweep):
        parallel = one_pass(workload, inputs)
        checker.check(parallel, "untraced parallel")
        inputs = dataclasses.replace(inputs, workers=1)
    untraced = one_pass(workload, inputs)
    checker.check(untraced, "untraced")
    tracer = Tracer()
    traced = one_pass(workload, inputs, tracer)
    checker.check(traced, "traced")
    if "error" in traced or "error" in untraced:
        return {"spans": tracer.spans, "metrics": {}}
    trees = None if isinstance(workload, Sweep) else inputs[1]["forest_params"]
    metrics = layer_metrics(
        tracer.spans, traced["evals"], traced["wall_s"],
        baseline_seed=mix_seed(seed, "baseline"),
        search_trees=(trees.n_trees, trees.max_depth) if trees else None)
    exported = any(s[0] == "harness.export_results" for s in tracer.spans)
    metrics["harness.export_bytes"] = traced["export_bytes"] if exported else None
    metrics["harness.parallel_efficiency"] = (
        untraced["wall_s"] / (SWEEP_WORKERS * parallel["wall_s"])
        if parallel and "error" not in parallel else None)
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return {"spans": tracer.spans, "metrics": metrics}


def canary_checker(label: str, workload) -> Checker:
    """Checker of a workload's tiny profile at the default seed, which golden.json holds."""
    inputs = workload.setup("tiny", DEFAULT_SEED)
    return Checker(label, workload.operations(inputs),
                   load_golden(workload.name, "tiny", DEFAULT_SEED), require_golden=True)


def timed_passes(workload, inputs, seconds: float, checker: Checker) -> list[dict]:
    """Untraced passes over one input while the next one fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        result = one_pass(workload, inputs)
        checker.check(result, f"pass {len(passes)}")
        if "error" in result:
            return passes
        passes.append({k: result[k] for k in ("wall_s", "cpu_s", "evals")})
        if time.perf_counter() - start + result["wall_s"] > seconds:
            return passes


def traced_run(workload, profile: str, seed: int, checkers: list[Checker]) -> dict:
    """Every per-layer metric: the traced pass, then tiny fallbacks for uncalled layers."""
    layers = traced_layers(workload, profile, seed, checkers[0])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload.name}-{seed}.jsonl"), "w") as fh:
        for span in layers["spans"]:
            fh.write(json.dumps(span) + "\n")
    metrics = layers["metrics"]
    if not metrics:
        return {"layers": {}, "fallback": []}
    metrics["benchmarks.formula_ns"], metrics["core.budget_ns"] = objective_costs(seed)
    fallback = sorted(k for k, v in metrics.items() if v is None)
    for source in sorted({fallback_source(k) for k in fallback}):
        checker = canary_checker(f"fallback {source}", WORKLOADS[source])
        checkers.append(checker)
        sub = traced_layers(WORKLOADS[source], "tiny", DEFAULT_SEED, checker)["metrics"]
        for k in fallback:
            if metrics[k] is None:
                metrics[k] = sub.get(k)
    return {"layers": metrics, "fallback": fallback}


def measure_run(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    workload = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "profile": profile, "trace": int(trace),
              "numpy": numpy.__version__, "calib_ms": [calib_ms()]}
    inputs = workload.setup(profile, seed)
    checkers = [Checker("main", workload.operations(inputs), load_golden(name, profile, seed))]
    if trace:
        record.update(traced_run(workload, profile, seed, checkers))
    else:
        record["passes"] = timed_passes(workload, inputs, seconds, checkers[0])
        self_usage, child_usage = _usage()
        record["peak_rss_mb"] = (self_usage.ru_maxrss + child_usage.ru_maxrss) / 1024.0
    if profile != "tiny" or seed != DEFAULT_SEED:
        canary = canary_checker("canary", workload)
        canary.check(one_pass(workload, workload.setup("tiny", DEFAULT_SEED)), "pass")
        checkers.append(canary)
    record["calib_ms"].append(calib_ms())
    record["checks"] = {c.label: c.summary() for c in checkers}
    record["attempted"] = sum(c.attempted for c in checkers)
    record["failed"] = sum(c.failed for c in checkers)
    record["correct"] = all(c.failed == 0 and not c.notes for c in checkers)
    return record


def record_golden() -> dict:
    """Digests of every workload's profiles at the default and held-out seeds."""
    golden = {}
    for name, workload in WORKLOADS.items():
        for profile in ("full", "tiny"):
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                result = one_pass(workload, workload.setup(profile, seed))
                if "error" in result or result["bad"]:
                    raise RuntimeError(f"{name} {profile} {seed}: cannot record golden output")
                golden.setdefault(name, {}).setdefault(profile, {})[str(seed)] = result["digests"]
                print(f"recorded {name} {profile} {seed}: {len(result['digests'])} digests",
                      file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="measure.py")
    parser.add_argument("command", choices=("setup", "run", "record-golden"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.command == "record-golden":
        record_golden()
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.command == "setup":
        WORKLOADS[args.workload].setup(args.profile, args.seed)
        print(json.dumps({"ready": time.time()}))
        return 0
    record = measure_run(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
