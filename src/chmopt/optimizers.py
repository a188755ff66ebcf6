"""The five population-based inner optimizers behind one uniform interface.

Every optimizer takes a Population and a BudgetedObjective, runs generations
until the budget is exhausted, and returns an evolved Population of the same
size. Auxiliary state (velocities, temperatures, bacterial health) is rebuilt
from the incoming population and the RNG on every call, so populations
transfer between methods without hidden baggage.

Two guarantees hold for all five methods:
  * budget: the objective's counter never exceeds its cap;
  * elitism: the best cost in the returned population is never worse than
    the best cost in the incoming one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BudgetExhausted,
    BudgetedObjective,
    Bounds,
    Individual,
    Population,
    SeededRng,
    clamp_to_bounds,
    random_position,
)


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class PsoParams:
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.inertia < 1.0:
            raise ValueError(f"inertia must be in (0,1), got {self.inertia}")
        if self.cognitive <= 0 or self.social <= 0:
            raise ValueError("cognitive and social weights must be positive")


@dataclass(frozen=True)
class SaParams:
    cooling: float = 0.95
    step_fraction: float = 0.1
    t0: float | None = None  # None: initial population cost spread (floor 1e-3)
    t0_floor: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0,1), got {self.cooling}")
        if self.t0 is not None and self.t0 <= 0:
            raise ValueError("t0 must be positive")


@dataclass(frozen=True)
class GaParams:
    tournament_size: int = 2
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float | None = None  # None: 1/dimension
    mutation_sigma_fraction: float = 0.1
    elitism: int = 1

    def __post_init__(self):
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0,1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0,1]")
        if self.elitism < 0:
            raise ValueError("elitism must be >= 0")


@dataclass(frozen=True)
class DeParams:
    weight: float = 0.5  # differential weight F
    crossover_rate: float = 0.9  # CR
    strategy: str = "rand/1/bin"

    def __post_init__(self):
        if not 0.0 < self.weight <= 2.0:
            raise ValueError(f"weight must be in (0,2], got {self.weight}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0,1]")
        if self.strategy != "rand/1/bin":
            raise ValueError(f"unsupported strategy {self.strategy!r}")


@dataclass(frozen=True)
class BfoParams:
    chemotaxis_steps: int = 4
    swim_length: int = 4
    reproduction_steps: int = 2
    elimination_dispersal_steps: int = 1
    dispersal_probability: float = 0.25
    step_fraction: float = 0.05

    def __post_init__(self):
        for name in ("chemotaxis_steps", "swim_length", "reproduction_steps",
                     "elimination_dispersal_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dispersal_probability <= 1.0:
            raise ValueError("dispersal_probability must be in [0,1]")


# ---------------------------------------------------------------------------
# elemental update rules, exposed for direct testing


def de_mutate(base, a, b, weight: float) -> list[float]:
    """rand/1 donor vector: base + weight * (a - b), before crossover/clamping."""
    return [bv + weight * (av - bv2) for bv, av, bv2 in zip(base, a, b)]


def pso_velocity_update(v, x, pbest, gbest, params: PsoParams,
                        r1: float, r2: float, v_max=None) -> list[float]:
    """Inertia + cognitive + social pull, clipped per dimension to +-v_max."""
    out = []
    for d in range(len(v)):
        nv = (params.inertia * v[d]
              + params.cognitive * r1 * (pbest[d] - x[d])
              + params.social * r2 * (gbest[d] - x[d]))
        if v_max is not None:
            cap = v_max[d]
            nv = -cap if nv < -cap else cap if nv > cap else nv
        out.append(nv)
    return out


def sa_accept(delta_cost: float, temperature: float, u: float) -> bool:
    """Metropolis rule: always accept improvements, worse moves with prob exp(-d/T)."""
    if delta_cost <= 0.0:
        return True
    return u < math.exp(-delta_cost / temperature)


def blend_crossover(p1, p2, alpha: float, draws) -> list[float]:
    """Per-dimension interpolation child: p1 + u*(p2-p1) with u ~ U(-alpha, 1+alpha)."""
    return [a + u * (b - a) for a, b, u in zip(p1, p2, draws)]


def tumble_direction(rng: SeededRng, dim: int) -> list[float]:
    """Uniform random unit vector."""
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(v * v for v in d))
        if norm > 0.0:
            return [v / norm for v in d]


def bfo_reproduce(members: list[Individual]) -> list[Individual]:
    """Duplicate the healthier half over the weaker half (current cost order)."""
    n = len(members)
    half = n // 2
    ranked = sorted(members, key=lambda m: m.cost)
    survivors = [m.copy() for m in ranked[:n - half]]
    survivors.extend(m.copy() for m in ranked[:half])
    return survivors


# ---------------------------------------------------------------------------
# shared run plumbing


class _BestTracker:
    """Tracks the best (position, cost) over every evaluation an optimizer makes."""

    __slots__ = ("best_position", "best_cost")

    def __init__(self, members):
        best = min(members, key=lambda m: m.cost)
        self.best_position = list(best.position)
        self.best_cost = best.cost

    def evaluate(self, obj: BudgetedObjective, position) -> float:
        value = obj.evaluate(position)
        if value < self.best_cost:
            self.best_cost = value
            self.best_position = list(position)
        return value

    def finalize(self, members) -> Population:
        # elitist guarantee: the best-so-far individual is never lost
        worst_i = 0
        best_cost = members[0].cost
        for i, m in enumerate(members):
            if m.cost > members[worst_i].cost:
                worst_i = i
            if m.cost < best_cost:
                best_cost = m.cost
        if self.best_cost < best_cost:
            members[worst_i] = Individual(self.best_position, self.best_cost)
        return Population(members)


def _widths(bounds: Bounds) -> list[float]:
    return [hi - lo for lo, hi in bounds]


def _check_ready(pop: Population):
    for m in pop.members:
        if m.cost is None:
            raise ValueError("optimizers require an evaluated incoming population")


class InnerOptimizer:
    """Base class: budget guard, best tracking, elitist finalization."""

    name = "?"

    def run(self, pop: Population, obj: BudgetedObjective, bounds: Bounds,
            rng: SeededRng) -> Population:
        if obj.remaining <= 0:
            return pop.copy()
        _check_ready(pop)
        members = [m.copy() for m in pop.members]
        tracker = _BestTracker(members)
        try:
            self._evolve(members, tracker, obj, bounds, rng)
        except BudgetExhausted:
            pass
        return tracker.finalize(self._export(members))

    def _evolve(self, members, tracker, obj, bounds, rng):  # pragma: no cover
        raise NotImplementedError

    def _export(self, members):
        return members

    def __repr__(self):
        return f"{type(self).__name__}({self.params!r})"


class ParticleSwarm(InnerOptimizer):
    """Global-best PSO. Exports each particle's personal best."""

    name = "pso"

    def __init__(self, params: PsoParams | None = None):
        self.params = params or PsoParams()

    def run(self, pop, obj, bounds, rng):
        if obj.remaining <= 0:
            return pop.copy()
        _check_ready(pop)
        p = self.params
        dim = pop.dimension
        v_max = [p.v_max_fraction * w for w in _widths(bounds)]
        x = [list(m.position) for m in pop.members]
        cost = [m.cost for m in pop.members]
        velocity = [[0.0] * dim for _ in pop.members]
        pbest = [m.copy() for m in pop.members]
        gbest = min(pbest, key=lambda m: m.cost).copy()
        tracker = _BestTracker(pop.members)
        try:
            while obj.remaining > 0:
                for i in range(len(x)):
                    r1 = rng.random()
                    r2 = rng.random()
                    velocity[i] = pso_velocity_update(
                        velocity[i], x[i], pbest[i].position, gbest.position, p,
                        r1, r2, v_max)
                    moved = clamp_to_bounds(
                        [xv + vv for xv, vv in zip(x[i], velocity[i])], bounds)
                    c = tracker.evaluate(obj, moved)
                    x[i] = moved
                    cost[i] = c
                    if c < pbest[i].cost:
                        pbest[i] = Individual(moved, c)
                        if c < gbest.cost:
                            gbest = pbest[i]
        except BudgetExhausted:
            pass
        return tracker.finalize([m.copy() for m in pbest])


class SimulatedAnnealing(InnerOptimizer):
    """Population of independent annealing chains, one per individual.

    The initial temperature defaults to the incoming population's cost spread,
    cooling is geometric per sweep. Exports each chain's best visited point.
    """

    name = "sa"

    def __init__(self, params: SaParams | None = None):
        self.params = params or SaParams()

    def run(self, pop, obj, bounds, rng):
        if obj.remaining <= 0:
            return pop.copy()
        _check_ready(pop)
        p = self.params
        sigma = [p.step_fraction * w for w in _widths(bounds)]
        current = [m.copy() for m in pop.members]
        chain_best = [m.copy() for m in pop.members]
        if p.t0 is not None:
            temperature = p.t0
        else:
            costs = [m.cost for m in pop.members]
            mean = sum(costs) / len(costs)
            spread = math.sqrt(sum((c - mean) ** 2 for c in costs) / len(costs))
            temperature = max(spread, p.t0_floor)
        tracker = _BestTracker(pop.members)
        try:
            while obj.remaining > 0:
                for i, cur in enumerate(current):
                    candidate = clamp_to_bounds(
                        [v + rng.gauss(0.0, s) for v, s in zip(cur.position, sigma)],
                        bounds)
                    c = tracker.evaluate(obj, candidate)
                    if sa_accept(c - cur.cost, temperature, rng.random()):
                        current[i] = Individual(candidate, c)
                    if c < chain_best[i].cost:
                        chain_best[i] = Individual(candidate, c)
                temperature = max(temperature * p.cooling, 1e-12)
        except BudgetExhausted:
            pass
        return tracker.finalize([m.copy() for m in chain_best])


class GeneticAlgorithm(InnerOptimizer):
    """Real-coded GA: tournament selection, blend crossover, Gaussian mutation."""

    name = "ga"

    def __init__(self, params: GaParams | None = None):
        self.params = params or GaParams()

    def step(self, pop: Population, obj: BudgetedObjective, bounds: Bounds,
             rng: SeededRng) -> Population:
        """One generation. On budget exhaustion the partial generation is
        merged elitistically into the population before the signal propagates."""
        _check_ready(pop)
        members = [m.copy() for m in pop.members]
        tracker = _BestTracker(members)
        self._generation(members, tracker, obj, bounds, rng)
        return tracker.finalize(members)

    def _evolve(self, members, tracker, obj, bounds, rng):
        while obj.remaining > 0:
            used = obj.used
            self._generation(members, tracker, obj, bounds, rng)
            if obj.used == used and self._stalled(members, bounds):
                return

    def _stalled(self, members, bounds) -> bool:
        """True when no later generation can evaluate a point: elitism fills
        every slot, or nothing mutates, every member lies in the box (so
        clamping leaves a copy unchanged) and every child copies its first
        parent because crossover is off or every member a tournament can pick
        (ranks 0 to n - tournament size) shares one position. A generation
        that evaluates nothing keeps these conditions for the next one."""
        p = self.params
        size = len(members)
        if p.elitism >= size:
            return True
        if p.mutation_rate != 0.0:
            return False
        if any(clamp_to_bounds(m.position, bounds) != m.position for m in members):
            return False
        if p.crossover_rate == 0.0:
            return True
        ranked = sorted(members, key=lambda m: m.cost)
        pickable = ranked[:size - min(p.tournament_size, size) + 1]
        return all(m.position == pickable[0].position for m in pickable)

    def _generation(self, members, tracker, obj, bounds, rng):
        p = self.params
        size = len(members)
        dim = len(members[0].position)
        mutation_rate = p.mutation_rate if p.mutation_rate is not None else 1.0 / dim
        sigma = [p.mutation_sigma_fraction * w for w in _widths(bounds)]
        ranked = sorted(members, key=lambda m: m.cost)
        n_elite = min(p.elitism, size)
        next_gen = [ranked[i].copy() for i in range(n_elite)]
        try:
            while len(next_gen) < size:
                parent1 = self._tournament(ranked, rng)
                if rng.random() < p.crossover_rate:
                    parent2 = self._tournament(ranked, rng)
                    draws = [rng.uniform(-p.blend_alpha, 1.0 + p.blend_alpha)
                             for _ in range(dim)]
                    child = blend_crossover(parent1.position, parent2.position,
                                            p.blend_alpha, draws)
                else:
                    child = list(parent1.position)
                mutated = False
                for d in range(dim):
                    if rng.random() < mutation_rate:
                        child[d] += rng.gauss(0.0, sigma[d])
                        mutated = True
                child = clamp_to_bounds(child, bounds)
                if not mutated and child == list(parent1.position) and parent1.cost is not None:
                    # untouched clone: reuse the parent's cost, no budget spent
                    next_gen.append(Individual(child, parent1.cost))
                    continue
                next_gen.append(Individual(child, tracker.evaluate(obj, child)))
        except BudgetExhausted:
            # partial generation: fill remaining slots with the best parents
            i = 0
            while len(next_gen) < size:
                next_gen.append(ranked[i % size].copy())
                i += 1
            members[:] = next_gen
            raise
        members[:] = next_gen

    def _tournament(self, ranked, rng):
        size = min(self.params.tournament_size, len(ranked))
        picks = rng.sample(range(len(ranked)), size)
        return ranked[min(picks)]  # ranked is sorted by cost


class DifferentialEvolution(InnerOptimizer):
    """DE rand/1/bin with greedy one-to-one replacement."""

    name = "de"

    def __init__(self, params: DeParams | None = None):
        self.params = params or DeParams()

    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
        size = len(members)
        dim = len(members[0].position)
        while obj.remaining > 0:
            for i in range(size):
                r1, r2, r3 = self._pick_three(size, i, rng)
                base = members[r1].position
                va = members[r2].position
                vb = members[r3].position
                j_rand = rng.randrange(dim)
                trial = list(members[i].position)
                for d in range(dim):
                    if d == j_rand or rng.random() < p.crossover_rate:
                        lo, hi = bounds[d]
                        v = base[d] + p.weight * (va[d] - vb[d])
                        trial[d] = lo if v < lo else hi if v > hi else v
                c = tracker.evaluate(obj, trial)
                if c <= members[i].cost:
                    members[i] = Individual(trial, c)

    @staticmethod
    def _pick_three(size, exclude, rng):
        if size < 4:
            # tiny populations: sample with the target only excluded where possible
            pool = [j for j in range(size) if j != exclude] or [exclude]
            return (rng.choice(pool), rng.choice(pool), rng.choice(pool))
        picks = []
        while len(picks) < 3:
            j = rng.randrange(size)
            if j != exclude and j not in picks:
                picks.append(j)
        return tuple(picks)


class BacterialForaging(InnerOptimizer):
    """Trimmed bacterial foraging: chemotaxis with swimming, reproduction,
    elimination-dispersal. Swarming attraction is omitted; at the evaluation
    budgets used here the full protocol cannot complete a single pass."""

    name = "bfo"

    def __init__(self, params: BfoParams | None = None):
        self.params = params or BfoParams()

    def step(self, pop: Population, obj: BudgetedObjective, bounds: Bounds,
             rng: SeededRng) -> Population:
        """One full cycle (all chemotaxis/reproduction/dispersal passes)."""
        _check_ready(pop)
        members = [m.copy() for m in pop.members]
        tracker = _BestTracker(members)
        try:
            self._cycle(members, tracker, obj, bounds, rng)
        except BudgetExhausted:
            tracker.finalize(members)
            raise
        return tracker.finalize(members)

    def _evolve(self, members, tracker, obj, bounds, rng):
        while obj.remaining > 0:
            self._cycle(members, tracker, obj, bounds, rng)

    def _cycle(self, members, tracker, obj, bounds, rng):
        p = self.params
        dim = len(members[0].position)
        step = [p.step_fraction * w for w in _widths(bounds)]
        for _ in range(p.elimination_dispersal_steps):
            for _ in range(p.reproduction_steps):
                for _ in range(p.chemotaxis_steps):
                    for i in range(len(members)):
                        members[i] = self._chemotax(members[i], tracker, obj,
                                                    bounds, rng, step, dim)
                members[:] = bfo_reproduce(members)
            self._disperse(members, tracker, obj, bounds, rng)

    def _chemotax(self, bacterium, tracker, obj, bounds, rng, step, dim):
        direction = tumble_direction(rng, dim)
        position = bacterium.position
        last_cost = bacterium.cost
        moved = clamp_to_bounds(
            [v + s * d for v, s, d in zip(position, step, direction)], bounds)
        cost = tracker.evaluate(obj, moved)
        bacterium = Individual(moved, cost)
        swims = 0
        while cost < last_cost and swims < self.params.swim_length:
            last_cost = cost
            moved = clamp_to_bounds(
                [v + s * d for v, s, d in zip(bacterium.position, step, direction)],
                bounds)
            cost = tracker.evaluate(obj, moved)
            if cost < last_cost:
                bacterium = Individual(moved, cost)
            swims += 1
        return bacterium

    def _disperse(self, members, tracker, obj, bounds, rng) -> int:
        dispersed = 0
        for i in range(len(members)):
            if rng.random() < self.params.dispersal_probability:
                position = random_position(bounds, rng)
                members[i] = Individual(position, tracker.evaluate(obj, position))
                dispersed += 1
        return dispersed


OPTIMIZER_CLASSES = {
    "pso": ParticleSwarm,
    "sa": SimulatedAnnealing,
    "ga": GeneticAlgorithm,
    "de": DifferentialEvolution,
    "bfo": BacterialForaging,
}

OPTIMIZER_NAMES = tuple(OPTIMIZER_CLASSES)

PARAM_CLASSES = {
    "pso": PsoParams,
    "sa": SaParams,
    "ga": GaParams,
    "de": DeParams,
    "bfo": BfoParams,
}


def make_optimizer(kind: str, **overrides) -> InnerOptimizer:
    """Build an optimizer by name; keyword overrides replace parameter defaults."""
    key = kind.strip().lower()
    if key not in OPTIMIZER_CLASSES:
        raise ValueError(f"unknown optimizer {kind!r}; valid kinds: {', '.join(OPTIMIZER_NAMES)}")
    params = PARAM_CLASSES[key](**overrides)
    return OPTIMIZER_CLASSES[key](params)


def default_portfolio(overrides: dict[str, dict] | None = None) -> tuple[InnerOptimizer, ...]:
    """The standard five-method portfolio, in fixed order."""
    overrides = overrides or {}
    return tuple(make_optimizer(name, **overrides.get(name, {}))
                 for name in OPTIMIZER_NAMES)
