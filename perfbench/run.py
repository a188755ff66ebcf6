"""chmopt benchmark: one run of one workload, every metric by name and unit.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Run it from the root of a chmopt checkout. With ``--trace 0`` it times the
workload untraced and prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it makes one traced pass and prints the per-layer metrics.
Either way it checks the outputs (golden digests, invariants, replay) and
prints, as its last line, one JSON object: correct, attempted, failed and
metrics. It exits 1 when an output is wrong and 2 when it cannot run.

This process imports nothing from chmopt. It times set-up in fresh
interpreters and leaves the measuring to measure.py in a child process, so
peak RSS and CPU time cover only the measured work.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
WORKLOAD_NAMES = ("sweep", "fselect-desk")
SETUP_SAMPLES = 6
DEADLINE_S = 170.0


def _spawn(args, deadline: float) -> tuple[str, float]:
    """Run measure.py with ``args``; returns (stdout, wall-clock time at start).

    The child gets its own process group, so a timeout also stops the
    sweep's pool workers.
    """
    started = time.time()
    proc = subprocess.Popen([sys.executable, MEASURE, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"measure.py {args[0]} exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {args[0]} exited with {proc.returncode}")
    return out, started


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _setup_s(common, deadline: float) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready."""
    out, started = _spawn(["setup", *common], deadline)
    return _last_json(out)["ready"] - started


def provenance(record: dict) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": record.pop("numpy"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def src_lines() -> int:
    src = os.path.join(ROOT, "src", "chmopt")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(record: dict, setup_samples: list[float]) -> dict[str, float]:
    passes = record["passes"]
    if not passes:
        return {}
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def main(argv=None, profile: str = "full") -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chmopt", "__init__.py")):
        print(f"perfbench: no chmopt source tree at {ROOT}/src/chmopt", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--profile", profile]
    try:
        spec = load_spec()
        # set-up samples on both sides of the measured work see more of
        # the machine's drift than back-to-back ones
        setup_samples = [_setup_s(common, deadline) for _ in range(SETUP_SAMPLES // 2)]
        out, _ = _spawn(["run", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
        record = _last_json(out)
        setup_samples += [_setup_s(common, deadline)
                          for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except (OSError, RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        wanted = spec["per_layer"]
        values = record["layers"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(record, setup_samples)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}; checks: {record['checks']}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = {"repo.src_lines": src_lines(), "machine.calib_ms": record["calib_ms"]}
    if not args.trace and record["passes"]:
        # evals are fixed per seed, but cache hits make their cost seed-dependent
        info["evals_per_s"] = statistics.median(p["evals"] / p["wall_s"] for p in record["passes"])
    record.update(setup_s=setup_samples, provenance=provenance(record), info=info)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} profile={profile}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for label, check in record["checks"].items():
        print(f"  check {label}: {check['failed']}/{check['attempted']} failed, "
              f"golden {check['golden']}{'; ' + '; '.join(check['notes']) if check['notes'] else ''}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
