"""Mutation gate for the pinned loops: the optimizers, the budget, the forest
and feature selection's lockstep.

The optimizer loops must reproduce the reference loops bit for bit, the
budget must count as a loop of calls, the forest's class sums must add as
numpy does, and the lockstep must run its searches in order; the tests
that say so are only as good as the faults they catch. Each entry below
is one such fault: a file, the exact text to replace (found exactly once), the
text to put in its place and the tests that must fail. For each entry this
script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the patch there, runs only the named tests and reports
every mutant they let survive. Old text that no longer matches is an error,
so the list cannot go stale unnoticed. Hypothesis runs with a fixed seed.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py               # every entry
    python tests/mutants.py sa-t0-mean    # only the named entries

It exits 0 when every mutant is killed, 1 otherwise. pytest does not collect
this file: its name does not start with ``test_``.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPTIMIZERS = "src/chmopt/optimizers.py"
CORE = "src/chmopt/core.py"
FOREST = "src/chmopt/forest.py"
FSELECT = "src/chmopt/fselect.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


def _ids(test, *params):
    return tuple(f"tests/test_optimizers.py::{test}[{p}]" for p in params)


def _blocks(*params):
    return _ids("test_two_coordinate_blocks_match_reference_loops", *params)


def _signed_zero(*params):
    return _ids("test_two_coordinate_gauss_keeps_signed_zero", *params)


MUTANTS = [
    Mutant("pso-r1-r2-swapped-in-coordinate-1", OPTIMIZERS,
           "v1 = inertia * v1 + cognitive * r1 * (p1 - x1) + social * r2 * (g1 - x1)",
           "v1 = inertia * v1 + cognitive * r2 * (p1 - x1) + social * r1 * (g1 - x1)",
           _blocks("pso", "pso-collapsed-preset")),
    Mutant("sa-draws-swapped", OPTIMIZERS,
           "v0 += 0.0 + z0 * s0\n                    v1 += 0.0 + z1 * s1",
           "v0 += 0.0 + z1 * s0\n                    v1 += 0.0 + z0 * s1",
           _blocks("sa-mid-sweep", "sa-preset")),
    Mutant("sa-zero-dropped-in-coordinate-0", OPTIMIZERS,
           "v0 += 0.0 + z0 * s0", "v0 += z0 * s0",
           _signed_zero("sa-overrides0-_ZeroStream-None", "sa-overrides1-_ZeroStream--0.0")),
    Mutant("sa-zero-dropped-in-coordinate-1", OPTIMIZERS,
           "v1 += 0.0 + z1 * s1", "v1 += z1 * s1",
           _signed_zero("sa-overrides0-_ZeroStream-None", "sa-overrides1-_ZeroStream--0.0")),
    Mutant("sa-fresh-second-not-held", OPTIMIZERS,
           "z1 = cos(x2pi) * g2rad\n                        spare = sin(x2pi) * g2rad",
           "z1 = cos(x2pi) * g2rad\n                        spare = None",
           _blocks("sa-preset")),
    Mutant("sa-no-write-back", OPTIMIZERS,
           "            if two:\n                rng.gauss_next = spare\n"
           "            costs = evaluate_many(candidates)",
           "            costs = evaluate_many(candidates)",
           _blocks("sa-mid-sweep", "sa-preset")),
    Mutant("sa-write-back-unconditional", OPTIMIZERS,
           "            if two:\n                rng.gauss_next = spare\n"
           "            costs = evaluate_many(candidates)",
           "            rng.gauss_next = spare\n            costs = evaluate_many(candidates)",
           _ids("test_inline_draws_match_reference_loops", "sa")),
    Mutant("sa-t0-mean-compensated", OPTIMIZERS,
           "mean = plain_sum(chain_costs)", "mean = math.fsum(chain_costs)",
           _ids("test_sa_automatic_t0_sums_left_to_right", "mean")),
    Mutant("sa-t0-spread-compensated", OPTIMIZERS,
           "math.sqrt(plain_sum((c - mean) ** 2 for c in chain_costs)",
           "math.sqrt(math.fsum((c - mean) ** 2 for c in chain_costs)",
           _ids("test_sa_automatic_t0_sums_left_to_right", "spread")),
    Mutant("ga-blend-draws-in-reverse-order", OPTIMIZERS,
           "v0 = v0 + (draw_low + draw_span * random()) * (b0 - v0)\n"
           "                        v1 = v1 + (draw_low + draw_span * random()) * (b1 - v1)",
           "u1 = draw_low + draw_span * random()\n"
           "                        v0 = v0 + (draw_low + draw_span * random()) * (b0 - v0)\n"
           "                        v1 = v1 + u1 * (b1 - v1)",
           _blocks("ga-mid-generation", "ga-mutate-all-crossover-all")),
    Mutant("ga-mutation-widths-swapped", OPTIMIZERS,
           "v0 += 0.0 + z * s0", "v0 += 0.0 + z * s1",
           _blocks("ga-mid-generation", "ga-mutate-all-no-crossover-preset")),
    Mutant("ga-zero-dropped-in-coordinate-0", OPTIMIZERS,
           "v0 += 0.0 + z * s0", "v0 += z * s0",
           _signed_zero("ga-overrides2-_ZeroStream-None", "ga-overrides3-_ZeroStream--0.0")),
    Mutant("ga-zero-dropped-in-coordinate-1", OPTIMIZERS,
           "v1 += 0.0 + z * s1", "v1 += z * s1",
           _signed_zero("ga-overrides2-_ZeroStream-None", "ga-overrides3-_ZeroStream--0.0")),
    Mutant("ga-spare-not-cleared-after-coordinate-1", OPTIMIZERS,
           "spare = None\n                        v1 += 0.0 + z * s1",
           "pass\n                        v1 += 0.0 + z * s1",
           _blocks("ga-mutate-all-no-crossover-preset", "ga-mutate-all-crossover-all")),
    Mutant("ga-no-write-back", OPTIMIZERS,
           "            if two:\n                rng.gauss_next = spare\n"
           "            costs = evaluate_many(points)",
           "            costs = evaluate_many(points)",
           _blocks("ga-mid-generation", "ga-mutate-all-no-crossover-preset")),
    Mutant("ga-pair-tournament-past-the-pool", OPTIMIZERS,
           "size <= _SAMPLE_POOL", "size <= _SAMPLE_POOL + 1",
           _blocks("ga-tournament-22-of-2")),
    Mutant("ga-pair-tournament-for-any-pick-count", OPTIMIZERS,
           "pair_pool = n_pick == 2 and size", "pair_pool = size",
           _blocks("ga-tournament-21-of-5")),
    Mutant("de-j-rand-coordinates-swapped", OPTIMIZERS,
           "if j_rand == 0 or random() < crossover_rate:",
           "if j_rand == 1 or random() < crossover_rate:",
           _blocks("de-20-preset", "de-collapsed")),
    Mutant("bfo-cos-sin-swapped", OPTIMIZERS,
           "g0 = 0.0 + cos(x2pi) * g2rad\n                                    "
           "g1 = 0.0 + sin(x2pi) * g2rad",
           "g0 = 0.0 + sin(x2pi) * g2rad\n                                    "
           "g1 = 0.0 + cos(x2pi) * g2rad",
           _blocks("bfo", "bfo-collapsed-mid-dispersal")),
    Mutant("bfo-zero-dropped-from-held-spare", OPTIMIZERS,
           "g0 = 0.0 + spare", "g0 = spare",
           _signed_zero("bfo-overrides4-SeededRng--0.0")),
    Mutant("bfo-zero-dropped-from-fresh-coordinate-1", OPTIMIZERS,
           "g1 = 0.0 + cos(x2pi) * g2rad", "g1 = cos(x2pi) * g2rad",
           _signed_zero("bfo-overrides5-_ZeroStream-0.5")),
    Mutant("bfo-fresh-second-not-held", OPTIMIZERS,
           "g1 = 0.0 + cos(x2pi) * g2rad\n                                    "
           "spare = sin(x2pi) * g2rad",
           "g1 = 0.0 + cos(x2pi) * g2rad\n                                    spare = None",
           _blocks("bfo-preset")),
    Mutant("bfo-no-write-back", OPTIMIZERS,
           "rng.gauss_next = spare\n                            d0",
           "d0",
           _blocks("bfo", "bfo-preset")),
    # at three coordinates or more, adding the squares in another order can
    # round differently; the hypothesis test draws dimensions up to 8
    Mutant("bfo-squares-right-to-left-in-any-dimension", OPTIMIZERS,
           "norm = sqrt(squares)",
           "squares = 0.0\n"
           "                                for g in reversed(direction):\n"
           "                                    squares += g * g\n"
           "                                norm = sqrt(squares)",
           _ids("test_inline_draws_match_reference_loops", "bfo")),
    Mutant("plain-sum-compensated", CORE,
           "    total = 0.0\n    for v in values:\n        total += v\n    return total",
           "    return math.fsum(values)",
           ("tests/test_harness.py::TestRunExperiment::test_sums_add_left_to_right",)),
    Mutant("budget-not-counted-when-a-call-raises", CORE,
           "        finally:\n            self.used = used\n        return values",
           "        finally:\n            pass\n        self.used = used\n        return values",
           ("tests/test_core.py::test_evaluate_many_counts_a_call_that_raises",)),
    Mutant("prefetch-gets-the-whole-batch", CORE,
           "        points = points[:self.cap - self.used]\n        fn = self.fn\n"
           "        if points and hasattr(fn, \"prefetch\"):\n            fn.prefetch(points)",
           "        batch, points = points, points[:self.cap - self.used]\n        fn = self.fn\n"
           "        if points and hasattr(fn, \"prefetch\"):\n            fn.prefetch(batch)",
           ("tests/test_core.py::test_evaluate_many_matches_sequential_loop",)),
    Mutant("bounds-not-checked-finite", CORE,
           "if not (isfinite(lo) and isfinite(hi) and lo <= hi):", "if not lo <= hi:",
           _ids("test_bounds_reversed_or_not_finite_rejected", "pso-high_inf", "de-high_inf")),
    Mutant("class-sum-running-sums-left-to-right", FOREST,
           "total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))",
           "total = r[0] + r[1] + r[2] + r[3] + r[4] + r[5] + r[6] + r[7]",
           ("tests/test_forest.py::test_class_sum_matches_numpy_row_sum",)),
    Mutant("lockstep-resumes-in-reverse-order", FSELECT,
           "for key, search in list(flight.items()):",
           "for key, search in reversed(list(flight.items())):",
           ("tests/test_fselect.py::"
            "test_optimizer_error_mid_search_propagates_and_ends_every_thread[methods0]",)),
]

# Mutants no test can kill because they do not change behaviour. Their old
# text is still checked, so the entry goes when the code it names does.
EQUIVALENT = [
    # two floats add the same either way round (IEEE 754 addition commutes)
    Mutant("bfo-squares-right-to-left-at-two-coordinates", OPTIMIZERS,
           "norm = sqrt(g0 * g0 + g1 * g1)", "norm = sqrt(g1 * g1 + g0 * g0)", ()),
    # a node's rows are only counted: the split search sorts each segment's
    # keys by (segment, rank, class) itself, and a leaf predicts from its
    # counts, so the order of rows inside a child's segment moves no split or
    # prediction (the whole test suite passes with it); the stable kind is
    # kept because numpy radix-sorts narrow integers with it
    Mutant("partition-sort-not-stable", FOREST,
           ".argsort(kind=\"stable\"))", ".argsort())", ()),
]


def _copy_tree(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _patched(mutant):
    """The mutant's file with its patch applied; a ValueError when the old
    text is not found exactly once."""
    with open(os.path.join(ROOT, mutant.path)) as fh:
        source = fh.read()
    found = source.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text found {found} times in {mutant.path}")
    return source.replace(mutant.old, mutant.new)


def _run_tests(tree, tests):
    """pytest's exit status on ``tests`` in ``tree``, and its output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--hypothesis-seed=0", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}")
        return 1
    try:
        patches = [(m, _patched(m)) for m in chosen]
        for m in EQUIVALENT:
            _patched(m)
    except ValueError as exc:
        print(f"error: stale entry: {exc}")
        return 1
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        # every named test must exist and pass before any patch
        tests = sorted({t for m in chosen for t in m.tests})
        status, output = _run_tests(tree, tests)
        if status != 0:
            print(output[-3000:])
            print(f"error: the named tests do not pass on the unpatched tree (exit {status})")
            return 1
    survivors = []
    for mutant, source in patches:
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            with open(os.path.join(tree, mutant.path), "w") as fh:
                fh.write(source)
            status, output = _run_tests(tree, mutant.tests)
        if status == 1:
            print(f"killed    {mutant.name}")
            continue
        survivors.append(mutant.name)
        verdict = "SURVIVED" if status == 0 else f"ERROR {status}"
        print(f"{verdict:<9} {mutant.name}")
        if status != 0:
            print(output[-3000:])
    print(f"{len(patches) - len(survivors)} of {len(patches)} mutants killed; "
          f"{len(EQUIVALENT)} known equivalent not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
