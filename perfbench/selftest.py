"""Fast self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

It checks three things and exits non-zero if any fails:
  * every metric BENCHMARK.json names is emitted, with its unit and a finite
    value, by every workload, untraced and traced;
  * the golden check fails exactly the operation whose record was altered;
  * the tracer's wrappers leave outputs bit-identical to the golden table
    and are all removed afterwards.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import measure  # puts the checkout's src/ first on sys.path
import run
from measure import Checker, Tracer, load_golden, one_pass
from workloads import DEFAULT_SEED, WORKLOADS

from chmopt import chm, core, forest, fselect, harness, optimizers

FAILURES = []


def expect(ok: bool, message: str):
    print(f"{'PASS' if ok else 'FAIL'}  {message}")
    if not ok:
        FAILURES.append(message)


def metrics_emitted(spec: dict):
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)], profile="tiny")
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1 and finite
                   and units == {m["name"]: m["unit"] for m in spec[kind]},
                   f"{name} --trace {trace}: every {kind} metric emitted with its unit")


def golden_catches_altered_record():
    sweep = WORKLOADS["sweep"]
    plan = sweep.setup("tiny", DEFAULT_SEED)
    os.makedirs(measure.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=measure.OUT) as tmp:
        result = sweep.run(plan, tmp)
        path = os.path.join(tmp, plan.name, "raw", "runs.jsonl")
        with open(path) as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[0])
        record["best_cost"] = math.nextafter(record["best_cost"], math.inf)
        lines[0] = json.dumps(record, sort_keys=True)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        digests = sweep.digests(plan, result, tmp)
    checker = Checker("altered", sweep.operations(plan), load_golden("sweep", "tiny", DEFAULT_SEED))
    checker.check({"digests": digests, "bad": set()}, "pass")
    expect(checker.failed == 1, "sweep: a record altered by one ulp fails exactly one cell")

    desk = WORKLOADS["fselect-desk"]
    inputs = desk.setup("tiny", DEFAULT_SEED)
    report = desk.run(inputs, "")
    detail = report.runs["chm"][0]
    detail["test_error"] = math.nextafter(detail["test_error"], math.inf)
    checker = Checker("altered", desk.operations(inputs),
                      load_golden("fselect-desk", "tiny", DEFAULT_SEED))
    checker.check({"digests": desk.digests(inputs, report, ""), "bad": set()}, "pass")
    expect(checker.failed == 1, "fselect-desk: a search altered by one ulp fails exactly one op")


def wrappers_transparent():
    owners = [chm, core, fselect, harness, forest.RandomForest, core.BudgetedObjective,
              *optimizers.OPTIMIZER_CLASSES.values()]
    before = [dict(vars(o)) for o in owners]
    for name, workload in WORKLOADS.items():
        inputs = workload.setup("tiny", DEFAULT_SEED)
        plain = one_pass(workload, inputs)
        traced = one_pass(workload, inputs, Tracer())
        expect(plain["digests"] == traced["digests"] == load_golden(name, "tiny", DEFAULT_SEED),
               f"{name}: traced output equals untraced output and the golden table")
    after = [dict(vars(o)) for o in owners]
    restored = all(b.keys() == a.keys() and all(b[k] is a[k] for k in b)
                   for b, a in zip(before, after))
    expect(restored, "every wrapped boundary is restored after tracing")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    golden_catches_altered_record()
    wrappers_transparent()
    metrics_emitted(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
