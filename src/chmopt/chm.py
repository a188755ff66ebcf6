"""Two-phase hybrid orchestrator.

Each iteration probes every inner optimizer on an identical copy of the shared
population under a fixed per-method evaluation budget, hands the population of
the best-probing method to an extended fit run, and carries the fitted
population forward only if the fit actually improved the best cost. The loop
stops early once the best fitness converges.

Also provides the segmented single-method driver used for like-for-like
comparisons: one optimizer run in equally sized budget slices with the same
convergence cadence as the hybrid loop. Both drivers share one run loop and
one trace type.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .core import (
    BudgetedObjective,
    Bounds,
    Individual,
    NonFiniteValue,
    SeededRng,
    best_of,
    check_fields,
    evaluate_population,
    fitness,
    random_population,
)
from .optimizers import InnerOptimizer, default_portfolio

# stream labels; anything replaying a run must derive identically
INIT_STREAM = "init"
PROBE_STREAM = "probe"
FIT_STREAM = "fit"
SEGMENT_STREAM = "segment"

# trace record kinds of the two phase types
ITERATION_KIND = "chm_iteration"
SEGMENT_KIND = "segment"

RATIO_LOW = 0.2
RATIO_HIGH = 0.5


class EvaluationAborted(RuntimeError):
    """A phase hit a non-finite objective value; names phase, method, position."""

    def __init__(self, phase: str, method: str, cause: NonFiniteValue):
        super().__init__(
            f"non-finite objective value {cause.value!r} during {phase} "
            f"(method {method}) at position {cause.position!r}")
        self.phase = phase
        self.method = method
        self.position = cause.position


def fe_budget(k: int, maxfe_probing: int, maxfe_fit: int, iterations: int = 1,
              population_size: int = 0) -> int:
    """Evaluation cap of a hybrid run over ``k`` methods: the initial
    population plus, per iteration, ``k`` probes and one fit. With the
    defaults it is one iteration's share, the budget of one single-method
    segment."""
    return population_size + iterations * (k * maxfe_probing + maxfe_fit)


@dataclass(frozen=True)
class ChmConfig:
    """The settings of one run, checked on construction: iteration count,
    portfolio, population size, budgets, stopping rule."""

    iterations: int = 4
    optimizers: tuple[InnerOptimizer, ...] = field(default_factory=default_portfolio)
    population_size: int = 20
    maxfe_probing: int = 300
    maxfe_fit: int = 600
    convergence_epsilon: float = 1e-8
    convergence_patience: int = 1

    def __post_init__(self):
        check_fields(vars(self),
                     dict.fromkeys(("iterations", "population_size", "maxfe_probing",
                                    "maxfe_fit", "convergence_patience"), 1),
                     reals={"convergence_epsilon": "(-inf, inf)"})
        object.__setattr__(self, "optimizers", tuple(self.optimizers))
        if not self.optimizers:
            raise ValueError("at least one inner optimizer is required")
        # stack level 3 is the caller of the __init__ that dataclass generates
        if len(self.optimizers) == 1:
            warnings.warn("single-optimizer configuration: hybridisation needs "
                          "at least two methods", UserWarning, stacklevel=3)
        try:
            ratio = self.maxfe_probing / self.maxfe_fit
        except OverflowError:  # a probing budget past the float range
            ratio = math.inf
        if not RATIO_LOW <= ratio <= RATIO_HIGH:
            warnings.warn(
                f"probing-to-fit ratio {ratio:.3f} outside the recommended "
                f"[{RATIO_LOW}, {RATIO_HIGH}] range", UserWarning, stacklevel=3)


@dataclass(frozen=True)
class ProbeResult:
    method: str
    population: list[Individual]
    best_cost: float
    fe_used: int


@dataclass
class RunTrace:
    """Trace of one run as the records it exports: ``initial``, the init
    record, and ``iterations``, one record per phase (a probe + fit iteration
    or a single-method segment)."""

    initial: dict
    iterations: list[dict] = field(default_factory=list)
    total_fe: int = 0
    converged: bool = False

    def selections(self) -> tuple[str, ...]:
        """Fit-phase winners; a single-method run selects nothing."""
        return tuple(r["selected"] for r in self.iterations if r["kind"] == ITERATION_KIND)

    def to_records(self) -> list[dict]:
        """Line-oriented trace: the init record, then one record per phase."""
        return [self.initial, *self.iterations]


def check_convergence(best_history, epsilon: float, patience: int) -> bool:
    """Converged once the latest best is below epsilon, or the improvement over
    the last ``patience`` entries fell below epsilon."""
    if not best_history:
        raise ValueError("best_history must be non-empty")
    if best_history[-1] < epsilon:
        return True
    if len(best_history) > patience:
        improvement = best_history[-1 - patience] - best_history[-1]
        if improvement < epsilon:
            return True
    return False


def probe_all(theta: list[Individual], optimizers, objective_fn, maxfe_probing: int,
              bounds: Bounds, rng: SeededRng, iteration: int = 1) -> list[ProbeResult]:
    """Run every optimizer on ``theta`` under its own fresh budget. Each run
    evolves a copy of its own, so ``theta`` itself is never modified."""
    results = []
    for j, opt in enumerate(optimizers):
        obj = BudgetedObjective(objective_fn, maxfe_probing)
        stream = rng.derive(PROBE_STREAM, iteration, j)
        try:
            evolved = opt.run(theta, obj, bounds, stream)
        except NonFiniteValue as exc:
            raise EvaluationAborted("probing", opt.name, exc) from exc
        results.append(ProbeResult(opt.name, evolved, best_of(evolved).cost, obj.used))
    return results


def _fitness_of(cost: float, reference_value: float | None) -> float | None:
    return None if reference_value is None else fitness(cost, reference_value)


def _drive(config: ChmConfig, objective_fn, bounds: Bounds, seed: int | SeededRng,
           step, init_method: str, reference_value: float | None
           ) -> tuple[Individual, RunTrace]:
    """Shared run loop: evaluate a random initial population, then up to
    ``config.iterations`` calls of ``step(population, index, rng, bounds)``,
    checking convergence after each.

    A step returns ``(carried, scored, record)``: the population the next
    phase starts from, the population the best-so-far is read from, and the
    phase's trace record, to which this loop adds ``iteration``, ``best_cost``
    and ``best_fitness``.
    """
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    init_obj = BudgetedObjective(objective_fn, config.population_size)
    pop = random_population(config.population_size, bounds, rng.derive(INIT_STREAM))
    try:
        evaluate_population(pop, init_obj)
    except NonFiniteValue as exc:
        raise EvaluationAborted("initialization", init_method, exc) from exc

    best = best_of(pop).copy()
    best_fitness = _fitness_of(best.cost, reference_value)
    trace = RunTrace(dict(kind="init", iteration=0, fe_used=init_obj.used,
                          best_cost=best.cost, best_fitness=best_fitness),
                     total_fe=init_obj.used)
    history = [best.cost if reference_value is None else best_fitness]

    for index in range(1, config.iterations + 1):
        pop, scored, record = step(pop, index, rng, bounds)
        if best_of(scored).cost < best.cost:
            best = best_of(scored).copy()
        trace.total_fe += record["fe_used"]
        best_fitness = _fitness_of(best.cost, reference_value)
        trace.iterations.append(dict(record, iteration=index, best_cost=best.cost,
                                     best_fitness=best_fitness))
        history.append(best.cost if reference_value is None else best_fitness)
        if check_convergence(history, config.convergence_epsilon,
                             config.convergence_patience):
            trace.converged = True
            break

    return best, trace


def chm_run(config: ChmConfig, objective_fn, bounds: Bounds,
            seed: int | SeededRng, reference_value: float | None = None
            ) -> tuple[Individual, RunTrace]:
    """Full orchestrated run. Returns the best individual ever observed and the
    per-iteration trace.

    ``reference_value`` is the known optimum value of the objective, if any;
    with it, convergence is checked on fitness (gap to the optimum), without
    it, on raw best cost.
    """
    def probe_and_fit(theta, iteration, rng, bounds):
        probes = probe_all(theta, config.optimizers, objective_fn,
                           config.maxfe_probing, bounds, rng, iteration)
        selected = min(range(len(probes)), key=lambda j: probes[j].best_cost)
        winner = probes[selected]
        fit_obj = BudgetedObjective(objective_fn, config.maxfe_fit)
        fit_stream = rng.derive(FIT_STREAM, iteration)
        try:
            fitted = config.optimizers[selected].run(winner.population, fit_obj,
                                                     bounds, fit_stream)
        except NonFiniteValue as exc:
            raise EvaluationAborted("fit", winner.method, exc) from exc
        fit_best = best_of(fitted).cost
        carryover = fit_best < winner.best_cost
        # the best-so-far is read from the fitted population even when it is
        # not carried over: elitism guarantees fit_best <= pre-fit best <=
        # previous bests, so it holds the run-wide best whenever that improves
        return (fitted if carryover else winner.population), fitted, dict(
            kind=ITERATION_KIND,
            selected=winner.method,
            fe_used=sum(p.fe_used for p in probes) + fit_obj.used,
            probe_best_costs=[p.best_cost for p in probes],
            probe_fe=[p.fe_used for p in probes],
            fit_best_cost=fit_best,
            fit_fe=fit_obj.used,
            carryover=carryover,
        )

    return _drive(config, objective_fn, bounds, seed, probe_and_fit, "-", reference_value)


def run_segmented(optimizer: InnerOptimizer, config: ChmConfig, objective_fn,
                  bounds: Bounds, seed: int | SeededRng,
                  reference_value: float | None = None) -> tuple[Individual, RunTrace]:
    """One optimizer run as ``config.iterations`` budget slices, each the
    budget of one hybrid iteration, with the convergence check at each slice
    boundary: the total budget and stopping cadence of an orchestrated run."""
    segment_fe = fe_budget(len(config.optimizers), config.maxfe_probing, config.maxfe_fit)

    def segment(pop, index, rng, bounds):
        obj = BudgetedObjective(objective_fn, segment_fe)
        try:
            pop = optimizer.run(pop, obj, bounds, rng.derive(SEGMENT_STREAM, index))
        except NonFiniteValue as exc:
            raise EvaluationAborted(f"segment {index}", optimizer.name, exc) from exc
        return pop, pop, dict(kind=SEGMENT_KIND, selected=optimizer.name, fe_used=obj.used)

    return _drive(config, objective_fn, bounds, seed, segment, optimizer.name,
                  reference_value)
