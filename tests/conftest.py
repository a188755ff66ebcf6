import json
import math
import os
import sys

from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chmopt import (  # noqa: E402
    BudgetExhausted,
    BudgetedObjective,
    NonFiniteValue,
    SeededRng,
    check_convergence,
    evaluate_population,
    random_population,
)
from chmopt.chm import FIT_STREAM, INIT_STREAM, PROBE_STREAM  # noqa: E402
from chmopt.harness import RunRecord  # noqa: E402


def sphere(x):
    return sum(v * v for v in x)


def run_segmented_mirror(optimizer, objective_fn, bounds, seed, *, iterations,
                         maxfe_probing, maxfe_fit, population_size,
                         reference_value, epsilon=1e-8, patience=1):
    """Direct probing+fit segment loop with the orchestrator's stream labels.

    This is the independent twin of a single-method (k=1) orchestrated run:
    same derived randomness, same budget slices, same carryover rule, written
    without the orchestrator. Used to verify the degenerate-case equivalence.
    """
    rng = SeededRng(seed)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    pop = random_population(population_size, bounds, rng.derive(INIT_STREAM))
    evaluate_population(pop, BudgetedObjective(objective_fn, population_size))
    best = pop.best().copy()
    history = [abs(best.cost - reference_value)]
    best_costs = []
    for iteration in range(1, iterations + 1):
        probe_obj = BudgetedObjective(objective_fn, maxfe_probing)
        probed = optimizer.run(pop.copy(), probe_obj, bounds,
                               rng.derive(PROBE_STREAM, iteration, 0))
        pre_fit_best = probed.best_cost()
        fit_obj = BudgetedObjective(objective_fn, maxfe_fit)
        fitted = optimizer.run(probed, fit_obj, bounds,
                               rng.derive(FIT_STREAM, iteration))
        fit_best = fitted.best_cost()
        pop = fitted if fit_best < pre_fit_best else probed
        if fit_best < best.cost:
            best = fitted.best().copy()
        best_costs.append(best.cost)
        history.append(abs(best.cost - reference_value))
        if check_convergence(history, epsilon, patience):
            break
    return best, pop, best_costs


class TableObjective:
    """Value ``values[i]`` at the point ``[i]``; records every batch it gets."""

    def __init__(self, values):
        self.values = values
        self.batches = []

    def __call__(self, x):
        return self.values[x[0]]

    def evaluate_many(self, points):
        self.batches.append([x[0] for x in points])
        return [self.values[x[0]] for x in points]


@st.composite
def evaluation_batches(draw):
    """(values, cap, spent): a batch of objective values, some non-finite, and
    a budget of which ``spent`` evaluations are already used."""
    value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf]))
    values = draw(st.lists(value, max_size=8))
    cap = draw(st.integers(0, 10))
    return values, cap, draw(st.integers(0, cap))


def sequential_evaluations(evaluate, points):
    """What a loop of ``evaluate`` calls over ``points`` gives: the values up
    to the first point the budget refuses, or the NonFiniteValue it raises."""
    values = []
    for x in points:
        try:
            values.append(evaluate(x))
        except BudgetExhausted:
            break
        except NonFiniteValue as exc:
            return values, (exc.position, repr(exc.value))
    return values, None


def load_records(path):
    """The RunRecords of an exported ``raw/runs.jsonl``."""
    records = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                data = json.loads(line)
                data["best_position"] = tuple(data["best_position"])
                data["selections"] = tuple(data["selections"])
                records.append(RunRecord(**data))
    return records


def best_fitness_history(trace):
    """Best fitness at init and after each phase of a RunTrace, None entries excluded."""
    values = [trace.initial_best_fitness] + [it.best_fitness for it in trace.iterations]
    return [v for v in values if v is not None]
