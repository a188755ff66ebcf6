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

import warnings
from dataclasses import dataclass, field

from .core import (
    BudgetedObjective,
    Bounds,
    Individual,
    NonFiniteValue,
    Population,
    SeededRng,
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


@dataclass
class ChmConfig:
    """Orchestrator parameters: iteration count, portfolio, budgets, stopping."""

    iterations: int = 4
    optimizers: tuple[InnerOptimizer, ...] = field(default_factory=default_portfolio)
    population_size: int = 20
    maxfe_probing: int = 300
    maxfe_fit: int = 600
    convergence_epsilon: float = 1e-8
    convergence_patience: int = 1

    def __post_init__(self):
        self.optimizers = tuple(self.optimizers)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.optimizers:
            raise ValueError("at least one inner optimizer is required")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.maxfe_probing < 1 or self.maxfe_fit < 1:
            raise ValueError("budgets must be >= 1")
        if self.convergence_patience < 1:
            raise ValueError("convergence_patience must be >= 1")
        if len(self.optimizers) == 1:
            warnings.warn("single-optimizer configuration: hybridisation needs "
                          "at least two methods", UserWarning, stacklevel=2)
        ratio = self.maxfe_probing / self.maxfe_fit
        if not RATIO_LOW <= ratio <= RATIO_HIGH:
            warnings.warn(
                f"probing-to-fit ratio {ratio:.3f} outside the recommended "
                f"[{RATIO_LOW}, {RATIO_HIGH}] range", UserWarning, stacklevel=2)

    @property
    def k(self) -> int:
        return len(self.optimizers)

    def max_total_fe(self) -> int:
        return fe_budget(self.k, self.maxfe_probing, self.maxfe_fit,
                         self.iterations, self.population_size)


@dataclass(frozen=True)
class ProbeResult:
    method: str
    population: Population
    best_cost: float
    fe_used: int


@dataclass(frozen=True)
class Iteration:
    """One phase of a run: a probe + fit iteration or a single-method segment."""

    kind: str  # ITERATION_KIND or SEGMENT_KIND
    index: int  # 1-based
    selected_name: str
    fe_used: int
    best_cost: float  # best-so-far after this phase
    best_fitness: float | None
    # probe + fit details; None for a segment
    probe_best_costs: tuple[float, ...] | None = None
    probe_fe: tuple[int, ...] | None = None
    selected: int | None = None
    fit_best_cost: float | None = None
    fit_fe: int | None = None
    carryover: bool | None = None


@dataclass
class RunTrace:
    """Trace of one run: the initial population, then one entry per phase."""

    initial_best_cost: float
    initial_best_fitness: float | None
    iterations: list[Iteration] = field(default_factory=list)
    total_fe: int = 0
    final_best: Individual | None = None
    converged: bool = False

    def selections(self) -> tuple[str, ...]:
        """Fit-phase winners; a single-method run selects nothing."""
        return tuple(it.selected_name for it in self.iterations
                     if it.kind == ITERATION_KIND)

    def to_records(self) -> list[dict]:
        """Line-oriented trace: one init record plus one record per phase."""
        records = [{
            "kind": "init",
            "iteration": 0,
            "fe_used": self.total_fe - sum(it.fe_used for it in self.iterations),
            "best_cost": self.initial_best_cost,
            "best_fitness": self.initial_best_fitness,
        }]
        for it in self.iterations:
            record = {
                "kind": it.kind,
                "iteration": it.index,
                "selected": it.selected_name,
                "fe_used": it.fe_used,
                "best_cost": it.best_cost,
                "best_fitness": it.best_fitness,
            }
            if it.kind == ITERATION_KIND:
                record.update(probe_best_costs=list(it.probe_best_costs),
                              probe_fe=list(it.probe_fe),
                              fit_best_cost=it.fit_best_cost,
                              fit_fe=it.fit_fe,
                              carryover=it.carryover)
            records.append(record)
        return records


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


def probe_all(theta: Population, optimizers, objective_fn, maxfe_probing: int,
              bounds: Bounds, rng: SeededRng, iteration: int = 1) -> list[ProbeResult]:
    """Run every optimizer on an identical copy of ``theta`` under its own
    fresh budget. ``theta`` itself is never modified."""
    results = []
    for j, opt in enumerate(optimizers):
        obj = BudgetedObjective(objective_fn, maxfe_probing)
        stream = rng.derive(PROBE_STREAM, iteration, j)
        try:
            evolved = opt.run(theta.copy(), obj, bounds, stream)
        except NonFiniteValue as exc:
            raise EvaluationAborted("probing", opt.name, exc) from exc
        results.append(ProbeResult(opt.name, evolved, evolved.best_cost(), obj.used))
    return results


def _fitness_of(cost: float, reference_value: float | None) -> float | None:
    return None if reference_value is None else fitness(cost, reference_value)


def _drive(objective_fn, bounds: Bounds, seed: int | SeededRng, *,
           population_size: int, phases: int, step, init_method: str,
           reference_value: float | None, convergence_epsilon: float,
           convergence_patience: int) -> tuple[Individual, RunTrace]:
    """Shared run loop: evaluate a random initial population, then up to
    ``phases`` calls of ``step(population, index, rng, bounds)``, checking
    convergence after each.

    A step returns ``(carried, scored, fields)``: the population the next
    phase starts from, the population the best-so-far is read from, and the
    phase's ``Iteration`` fields other than index and best-so-far.
    """
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    init_obj = BudgetedObjective(objective_fn, population_size)
    pop = random_population(population_size, bounds, rng.derive(INIT_STREAM))
    try:
        evaluate_population(pop, init_obj)
    except NonFiniteValue as exc:
        raise EvaluationAborted("initialization", init_method, exc) from exc

    best = pop.best().copy()
    trace = RunTrace(initial_best_cost=best.cost, total_fe=init_obj.used,
                     initial_best_fitness=_fitness_of(best.cost, reference_value))
    history = [trace.initial_best_fitness if reference_value is not None else best.cost]

    for index in range(1, phases + 1):
        pop, scored, fields = step(pop, index, rng, bounds)
        if scored.best_cost() < best.cost:
            best = scored.best().copy()
        trace.total_fe += fields["fe_used"]
        best_fitness = _fitness_of(best.cost, reference_value)
        trace.iterations.append(Iteration(index=index, best_cost=best.cost,
                                          best_fitness=best_fitness, **fields))
        history.append(best_fitness if reference_value is not None else best.cost)
        if check_convergence(history, convergence_epsilon, convergence_patience):
            trace.converged = True
            break

    trace.final_best = best.copy()
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
        fit_best = fitted.best_cost()
        carryover = fit_best < winner.best_cost
        # the best-so-far is read from the fitted population even when it is
        # not carried over: elitism guarantees fit_best <= pre-fit best <=
        # previous bests, so it holds the run-wide best whenever that improves
        return (fitted if carryover else winner.population), fitted, dict(
            kind=ITERATION_KIND,
            selected_name=winner.method,
            fe_used=sum(p.fe_used for p in probes) + fit_obj.used,
            probe_best_costs=tuple(p.best_cost for p in probes),
            probe_fe=tuple(p.fe_used for p in probes),
            selected=selected,
            fit_best_cost=fit_best,
            fit_fe=fit_obj.used,
            carryover=carryover,
        )

    return _drive(objective_fn, bounds, seed, population_size=config.population_size,
                  phases=config.iterations, step=probe_and_fit, init_method="-",
                  reference_value=reference_value,
                  convergence_epsilon=config.convergence_epsilon,
                  convergence_patience=config.convergence_patience)


def run_segmented(optimizer: InnerOptimizer, objective_fn, bounds: Bounds,
                  seed: int | SeededRng, *, segments: int, segment_fe: int,
                  population_size: int, reference_value: float | None = None,
                  convergence_epsilon: float = 1e-8, convergence_patience: int = 1
                  ) -> tuple[Individual, RunTrace]:
    """One optimizer run as ``segments`` consecutive budget slices with the
    convergence check applied at each slice boundary. Gives single methods the
    same total budget and the same stopping cadence as an orchestrated run."""
    if segments < 1:
        raise ValueError("segments must be >= 1")

    def segment(pop, index, rng, bounds):
        obj = BudgetedObjective(objective_fn, segment_fe)
        try:
            pop = optimizer.run(pop, obj, bounds, rng.derive(SEGMENT_STREAM, index))
        except NonFiniteValue as exc:
            raise EvaluationAborted(f"segment {index}", optimizer.name, exc) from exc
        return pop, pop, dict(kind=SEGMENT_KIND, selected_name=optimizer.name,
                              fe_used=obj.used)

    return _drive(objective_fn, bounds, seed, population_size=population_size,
                  phases=segments, step=segment, init_method=optimizer.name,
                  reference_value=reference_value,
                  convergence_epsilon=convergence_epsilon,
                  convergence_patience=convergence_patience)
