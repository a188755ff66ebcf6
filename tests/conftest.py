import json
import math
import os
import sys
import warnings

from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chmopt.chm import (  # noqa: E402
    FIT_STREAM,
    INIT_STREAM,
    PROBE_STREAM,
    ChmConfig,
    check_convergence,
    fe_budget,
)
from chmopt.core import (  # noqa: E402
    BudgetExhausted,
    BudgetedObjective,
    NonFiniteValue,
    SeededRng,
    best_of,
    evaluate_population,
    random_population,
)
from chmopt.harness import RunRecord  # noqa: E402


def sphere(x):
    return sum(v * v for v in x)


def quiet_config(**kwargs):
    """A ChmConfig built without the probing-to-fit ratio and portfolio warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ChmConfig(**kwargs)


def config_budget(config):
    """Evaluation cap of a hybrid run under ``config``."""
    return fe_budget(len(config.optimizers), config.maxfe_probing, config.maxfe_fit,
                     config.iterations, config.population_size)


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
    best = best_of(pop).copy()
    history = [abs(best.cost - reference_value)]
    best_costs = []
    for iteration in range(1, iterations + 1):
        probe_obj = BudgetedObjective(objective_fn, maxfe_probing)
        probed = optimizer.run([m.copy() for m in pop], probe_obj, bounds,
                               rng.derive(PROBE_STREAM, iteration, 0))
        pre_fit_best = best_of(probed).cost
        fit_obj = BudgetedObjective(objective_fn, maxfe_fit)
        fitted = optimizer.run(probed, fit_obj, bounds,
                               rng.derive(FIT_STREAM, iteration))
        fit_best = best_of(fitted).cost
        pop = fitted if fit_best < pre_fit_best else probed
        if fit_best < best.cost:
            best = best_of(fitted).copy()
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


def report_row(report, method):
    """The row of ``method`` in a feature-selection report."""
    return next(r for r in report.rows if r.method == method)


def best_fitness_history(trace):
    """Best fitness at init and after each phase of a RunTrace, None entries excluded."""
    values = [r["best_fitness"] for r in trace.to_records()]
    return [v for v in values if v is not None]
