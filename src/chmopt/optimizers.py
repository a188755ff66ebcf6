"""The five population-based inner optimizers on one skeleton.

Every optimizer runs through ``InnerOptimizer.run``: it takes a Population
and a BudgetedObjective, evolves until the budget is exhausted, and returns
a Population of the same size. The base ``run`` owns the budget guard, the
best-so-far tracking and the elitist finalize; a method only writes
``_evolve(members, tracker, obj, bounds, rng)``, which records every
evaluation in the tracker and leaves in ``members`` the population to return
(PSO its personal bests, SA its chain bests). The hot loops inline the
tracker's update and the clamp to the box, and bind the RNG and objective
methods they call to locals. Where a method draws a whole batch of points
before it reads any of their costs (an SA sweep, a GA generation, BFO
dispersal), it draws the batch first and evaluates it with one
``evaluate_many``; PSO, DE and BFO chemotaxis read each cost before the next
draw and evaluate point by point. Trajectories are pinned bit-exactly by the
tests, so any rewrite must keep every RNG call and its order.

The Gaussian and bounded-integer draws of the hot loops (SA steps, GA
mutation, the BFO tumble, DE's picks and the GA tournament) are inline
copies of CPython's ``Random.gauss`` and ``Random._randbelow_with_getrandbits``
(the same source for n > 0 on 3.10 to 3.13): they make the same ``random()``
and ``getrandbits(n.bit_length())`` calls in the same order without a Python
frame per draw. A loop holding ``gauss``'s cached second value in a local
``spare`` writes it back to ``rng.gauss_next`` before it evaluates or raises,
so the generator's state is ``rng.gauss``'s at every point a caller can see.
``tests/optimizer_reference.py`` keeps the loops that call the helpers, and a
test holds the two to identical populations, counts and RNG states. Auxiliary
state (velocities, temperatures, bacterial health) is rebuilt from the
incoming population and the RNG on every call, so populations transfer
between methods without hidden baggage.

Two guarantees hold for all five methods:
  * budget: the objective's counter never exceeds its cap;
  * elitism: the best cost in the returned population is never worse than
    the best cost in the incoming one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, log, sin, sqrt, tau

from .core import (
    BudgetExhausted,
    BudgetedObjective,
    Bounds,
    Individual,
    Population,
    SeededRng,
    check_fields,
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
        check_fields(self, reals=("inertia", "cognitive", "social", "v_max_fraction"))
        if not 0.0 < self.inertia < 1.0:
            raise ValueError(f"inertia must be in (0,1), got {self.inertia}")
        if self.cognitive <= 0 or self.social <= 0:
            raise ValueError("cognitive and social weights must be positive")
        if self.v_max_fraction <= 0:
            raise ValueError("v_max_fraction must be positive")


@dataclass(frozen=True)
class SaParams:
    cooling: float = 0.95
    step_fraction: float = 0.1
    t0: float | None = None  # None: initial population cost spread (floor 1e-3)
    t0_floor: float = 1e-3

    def __post_init__(self):
        check_fields(self, reals=("cooling", "step_fraction", "t0", "t0_floor"),
                     optional=("t0",))
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0,1), got {self.cooling}")
        if self.step_fraction <= 0:
            raise ValueError("step_fraction must be positive")
        if self.t0 is not None and self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.t0_floor <= 0:
            raise ValueError("t0_floor must be positive")


@dataclass(frozen=True)
class GaParams:
    tournament_size: int = 2
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float | None = None  # None: 1/dimension
    mutation_sigma_fraction: float = 0.1
    elitism: int = 1

    def __post_init__(self):
        check_fields(self, {"tournament_size": 2, "elitism": 0},
                     reals=("crossover_rate", "blend_alpha", "mutation_rate",
                            "mutation_sigma_fraction"), optional=("mutation_rate",))
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0,1]")
        if self.blend_alpha < 0:
            raise ValueError("blend_alpha must be >= 0")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0,1]")
        if self.mutation_sigma_fraction <= 0:
            raise ValueError("mutation_sigma_fraction must be positive")


@dataclass(frozen=True)
class DeParams:
    weight: float = 0.5  # differential weight F
    crossover_rate: float = 0.9  # CR

    def __post_init__(self):
        check_fields(self, reals=("weight", "crossover_rate"))
        if not 0.0 < self.weight <= 2.0:
            raise ValueError(f"weight must be in (0,2], got {self.weight}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0,1]")


@dataclass(frozen=True)
class BfoParams:
    chemotaxis_steps: int = 4
    swim_length: int = 4
    reproduction_steps: int = 2
    elimination_dispersal_steps: int = 1
    dispersal_probability: float = 0.25
    step_fraction: float = 0.05

    def __post_init__(self):
        check_fields(self, dict.fromkeys(("chemotaxis_steps", "swim_length", "reproduction_steps",
                                          "elimination_dispersal_steps"), 1),
                     reals=("dispersal_probability", "step_fraction"))
        if not 0.0 <= self.dispersal_probability <= 1.0:
            raise ValueError("dispersal_probability must be in [0,1]")
        if self.step_fraction <= 0:
            raise ValueError("step_fraction must be positive")


# ---------------------------------------------------------------------------
# elemental update rules, exposed for direct testing


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
    """Tracks the best (position, cost) over every evaluation an optimizer makes.

    The ``_evolve`` hot loops inline its update: an improvement stores a
    copy of the position and its cost."""

    __slots__ = ("best_position", "best_cost")

    def __init__(self, members):
        best = min(members, key=lambda m: m.cost)
        self.best_position = list(best.position)
        self.best_cost = best.cost

    def evaluate_many(self, obj: BudgetedObjective, points) -> list[float]:
        """``obj.evaluate_many(points)``, recording each value in order."""
        values = obj.evaluate_many(points)
        for x, value in zip(points, values):
            if value < self.best_cost:
                self.best_cost = value
                self.best_position = list(x)
        return values

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


class InnerOptimizer:
    """Base class: budget guard, best tracking, elitist finalization.

    A subclass sets ``name`` and ``params`` (its default parameter record)
    and writes ``_evolve``."""

    name = "?"
    params = None

    def __init__(self, params=None):
        if params is not None:
            self.params = params

    def run(self, pop: Population, obj: BudgetedObjective, bounds: Bounds,
            rng: SeededRng) -> Population:
        """Evolve a copy of ``pop`` until ``obj``'s budget is spent.

        The returned population is fixed by the inputs and the state of
        ``rng`` on entry. The state ``rng`` is left in is not: a batch drawn
        in full may be evaluated only in part. Callers derive a fresh stream
        for every run.
        """
        if obj.remaining <= 0:
            return pop.copy()
        if any(m.cost is None for m in pop.members):
            raise ValueError("optimizers require an evaluated incoming population")
        if len(bounds) != pop.dimension:  # the loops pair coordinates and bounds by zip
            raise ValueError(f"dimension mismatch: {pop.dimension} vs {len(bounds)} bounds")
        members = [m.copy() for m in pop.members]
        tracker = _BestTracker(members)
        try:
            self._evolve(members, tracker, obj, bounds, rng)
        except BudgetExhausted:
            pass
        return tracker.finalize(members)

    def _evolve(self, members, tracker, obj, bounds, rng):  # pragma: no cover
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.params!r})"


class ParticleSwarm(InnerOptimizer):
    """Global-best PSO. Exports each particle's personal best."""

    name = "pso"
    params = PsoParams()

    def _evolve(self, pbest, tracker, obj, bounds, rng):
        p = self.params
        evaluate = obj.evaluate
        random = rng.random
        v_max = [p.v_max_fraction * w for w in _widths(bounds)]
        x = [list(m.position) for m in pbest]
        velocity = [[0.0] * len(x[0]) for _ in pbest]
        gbest = min(pbest, key=lambda m: m.cost)
        while obj.remaining > 0:
            for i in range(len(x)):
                r1 = random()
                r2 = random()
                velocity[i] = pso_velocity_update(
                    velocity[i], x[i], pbest[i].position, gbest.position, p,
                    r1, r2, v_max)
                moved = []
                for xv, vv, (lo, hi) in zip(x[i], velocity[i], bounds):
                    xv += vv
                    moved.append(lo if xv < lo else hi if xv > hi else xv)
                c = evaluate(moved)
                if c < tracker.best_cost:
                    tracker.best_cost = c
                    tracker.best_position = list(moved)
                x[i] = moved
                if c < pbest[i].cost:
                    pbest[i] = Individual(moved, c)
                    if c < gbest.cost:
                        gbest = pbest[i]


class SimulatedAnnealing(InnerOptimizer):
    """Population of independent annealing chains, one per individual.

    The initial temperature defaults to the incoming population's cost spread,
    cooling is geometric per sweep. Exports each chain's best visited point.
    """

    name = "sa"
    params = SaParams()

    def _evolve(self, chain_best, tracker, obj, bounds, rng):
        p = self.params
        evaluate_many = obj.evaluate_many
        random = rng.random
        sigma = [p.step_fraction * w for w in _widths(bounds)]
        current = list(chain_best)
        if p.t0 is not None:
            temperature = p.t0
        else:
            costs = [m.cost for m in chain_best]
            mean = sum(costs) / len(costs)
            spread = math.sqrt(sum((c - mean) ** 2 for c in costs) / len(costs))
            temperature = max(spread, p.t0_floor)
        while obj.remaining > 0:
            # a sweep's steps and accept draws do not depend on its costs:
            # draw them all, in the order a chain-by-chain loop would
            candidates, draws = [], []
            spare = rng.gauss_next
            for cur in current:
                candidate = []
                for v, s, (lo, hi) in zip(cur.position, sigma, bounds):
                    if spare is None:  # rng.gauss(0.0, s), inline
                        x2pi = random() * tau
                        g2rad = sqrt(-2.0 * log(1.0 - random()))
                        z = cos(x2pi) * g2rad
                        spare = sin(x2pi) * g2rad
                    else:
                        z = spare
                        spare = None
                    v += 0.0 + z * s
                    candidate.append(lo if v < lo else hi if v > hi else v)
                candidates.append(candidate)
                draws.append(random())
            rng.gauss_next = spare
            costs = evaluate_many(candidates)
            for i, c in enumerate(costs):
                candidate = candidates[i]
                if c < tracker.best_cost:
                    tracker.best_cost = c
                    tracker.best_position = list(candidate)
                if sa_accept(c - current[i].cost, temperature, draws[i]):
                    current[i] = Individual(candidate, c)
                if c < chain_best[i].cost:
                    chain_best[i] = Individual(candidate, c)
            if len(costs) < len(candidates):
                raise BudgetExhausted
            temperature = max(temperature * p.cooling, 1e-12)


def _lowest_of_sample(getrandbits, n: int, k: int) -> int:
    """``min(random.sample(range(n), k))``, drawn with exactly the ``getrandbits``
    calls ``random.sample`` makes: each ``randbelow(m)`` draws
    ``m.bit_length()`` bits until the value is below ``m``."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        # rejection path: redraw any index already picked
        bits = n.bit_length()
        selected = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
        return min(selected)
    # pool path: draw i picks slot j of the n - i unpicked indices, and the
    # index in the last unpicked slot moves into slot j
    if k == 2:
        # the default tournament: the second pick is j1, or n - 1 when j1 is
        # the first pick's slot; either way the lower draw is the lowest pick
        bits = n.bit_length()
        first = getrandbits(bits)
        while first >= n:
            first = getrandbits(bits)
        bits = (n - 1).bit_length()
        second = getrandbits(bits)
        while second >= n - 1:
            second = getrandbits(bits)
        return first if first < second else second
    pool = list(range(n))
    lowest = n
    for i in range(k):
        unpicked = n - i
        bits = unpicked.bit_length()
        j = getrandbits(bits)
        while j >= unpicked:
            j = getrandbits(bits)
        if pool[j] < lowest:
            lowest = pool[j]
        pool[j] = pool[unpicked - 1]
    return lowest


class GeneticAlgorithm(InnerOptimizer):
    """Real-coded GA: tournament selection, blend crossover, Gaussian mutation."""

    name = "ga"
    params = GaParams()

    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
        evaluate_many = obj.evaluate_many
        random = rng.random
        getrandbits = rng.getrandbits
        size = len(members)
        dims = range(len(members[0].position))
        mutation_rate = p.mutation_rate if p.mutation_rate is not None else 1.0 / len(dims)
        sigma = [p.mutation_sigma_fraction * w for w in _widths(bounds)]
        n_pick = min(p.tournament_size, size)
        n_elite = min(p.elitism, size)
        crossover_rate = p.crossover_rate
        # rng.uniform(low, high) is low + (high - low) * random()
        draw_low = -p.blend_alpha
        draw_span = (1.0 + p.blend_alpha) - draw_low
        while obj.remaining > 0:
            used = obj.used
            ranked = sorted(members, key=lambda m: m.cost)
            next_gen = [ranked[i].copy() for i in range(n_elite)]
            # a generation's draws do not depend on its children's costs: draw
            # every child first; an untouched clone keeps its parent's cost
            children, points = [], []
            spare = rng.gauss_next
            for _ in range(size - n_elite):
                # ranked is sorted by cost: the lowest index wins a tournament
                parent1 = ranked[_lowest_of_sample(getrandbits, size, n_pick)]
                if random() < crossover_rate:
                    parent2 = ranked[_lowest_of_sample(getrandbits, size, n_pick)]
                    child = blend_crossover(parent1.position, parent2.position,
                                            p.blend_alpha,
                                            [draw_low + draw_span * random() for _ in dims])
                else:
                    child = list(parent1.position)
                mutated = False
                for d, (lo, hi) in enumerate(bounds):
                    v = child[d]
                    if random() < mutation_rate:
                        if spare is None:  # rng.gauss(0.0, sigma[d]), inline
                            x2pi = random() * tau
                            g2rad = sqrt(-2.0 * log(1.0 - random()))
                            z = cos(x2pi) * g2rad
                            spare = sin(x2pi) * g2rad
                        else:
                            z = spare
                            spare = None
                        v += 0.0 + z * sigma[d]
                        mutated = True
                    child[d] = lo if v < lo else hi if v > hi else v
                if not mutated and child == parent1.position:
                    children.append((child, parent1.cost))  # no budget spent
                else:
                    children.append((child, None))
                    points.append(child)
            rng.gauss_next = spare
            costs = evaluate_many(points)
            paid = iter(costs)
            for child, c in children:
                if c is None:
                    c = next(paid, None)
                    if c is None:
                        break  # the budget ran out before this child
                    if c < tracker.best_cost:
                        tracker.best_cost = c
                        tracker.best_position = list(child)
                next_gen.append(Individual(child, c))
            if len(costs) < len(points):
                # partial generation: fill remaining slots with the best parents
                i = 0
                while len(next_gen) < size:
                    next_gen.append(ranked[i % size].copy())
                    i += 1
                members[:] = next_gen
                raise BudgetExhausted
            members[:] = next_gen
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


class DifferentialEvolution(InnerOptimizer):
    """DE rand/1/bin with greedy one-to-one replacement."""

    name = "de"
    params = DeParams()

    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
        evaluate = obj.evaluate
        random = rng.random
        getrandbits = rng.getrandbits  # randbelow(n) draws n.bit_length() bits until < n
        weight = p.weight
        crossover_rate = p.crossover_rate
        size = len(members)
        dim = len(members[0].position)
        size_bits = size.bit_length()
        dim_bits = dim.bit_length()
        while obj.remaining > 0:
            for i in range(size):
                if size < 4:
                    # tiny populations: sample with the target only excluded where possible
                    pool = [j for j in range(size) if j != i] or [i]
                    r1, r2, r3 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
                else:
                    # three distinct indices other than i: a draw out of range,
                    # equal to i or already picked is drawn again
                    r1 = getrandbits(size_bits)
                    while r1 >= size or r1 == i:
                        r1 = getrandbits(size_bits)
                    r2 = getrandbits(size_bits)
                    while r2 >= size or r2 == i or r2 == r1:
                        r2 = getrandbits(size_bits)
                    r3 = getrandbits(size_bits)
                    while r3 >= size or r3 == i or r3 == r1 or r3 == r2:
                        r3 = getrandbits(size_bits)
                base = members[r1].position
                va = members[r2].position
                vb = members[r3].position
                j_rand = getrandbits(dim_bits)
                while j_rand >= dim:
                    j_rand = getrandbits(dim_bits)
                trial = list(members[i].position)
                for d in range(dim):
                    if d == j_rand or random() < crossover_rate:
                        lo, hi = bounds[d]
                        v = base[d] + weight * (va[d] - vb[d])
                        trial[d] = lo if v < lo else hi if v > hi else v
                c = evaluate(trial)
                if c < tracker.best_cost:
                    tracker.best_cost = c
                    tracker.best_position = list(trial)
                if c <= members[i].cost:
                    members[i] = Individual(trial, c)


class BacterialForaging(InnerOptimizer):
    """Trimmed bacterial foraging: chemotaxis with swimming, reproduction,
    elimination-dispersal. Swarming attraction is omitted; at the evaluation
    budgets used here the full protocol cannot complete a single pass."""

    name = "bfo"
    params = BfoParams()

    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
        step = [p.step_fraction * w for w in _widths(bounds)]
        while obj.remaining > 0:
            for _ in range(p.elimination_dispersal_steps):
                for _ in range(p.reproduction_steps):
                    for _ in range(p.chemotaxis_steps):
                        for i in range(len(members)):
                            members[i] = self._chemotax(members[i], tracker, obj,
                                                        bounds, rng, step)
                    members[:] = bfo_reproduce(members)
                self._disperse(members, tracker, obj, bounds, rng)

    def _chemotax(self, bacterium, tracker, obj, bounds, rng, step):
        """One tumble, then up to ``swim_length`` swims along the same direction
        while each move improves. The tumble is always kept; a swim only when
        it improves."""
        evaluate = obj.evaluate
        random = rng.random
        spare = rng.gauss_next
        while True:  # tumble: a uniform random unit vector
            direction = []
            squares = 0.0  # accumulated left to right: the pins fix this order
            for _ in step:
                if spare is None:  # rng.gauss(0.0, 1.0), inline
                    x2pi = random() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    z = cos(x2pi) * g2rad
                    spare = sin(x2pi) * g2rad
                else:
                    z = spare
                    spare = None
                g = 0.0 + z  # mu + z * sigma with mu 0.0 and sigma 1.0
                direction.append(g)
                squares += g * g
            norm = sqrt(squares)
            if norm > 0.0:
                break
        rng.gauss_next = spare
        delta = [s * (g / norm) for s, g in zip(step, direction)]
        position = bacterium.position
        last_cost = bacterium.cost
        for swim in range(self.params.swim_length + 1):
            moved = []
            for v, dv, (lo, hi) in zip(position, delta, bounds):
                v += dv
                moved.append(lo if v < lo else hi if v > hi else v)
            cost = evaluate(moved)
            if cost < tracker.best_cost:
                tracker.best_cost = cost
                tracker.best_position = list(moved)
            if swim == 0 or cost < last_cost:
                bacterium = Individual(moved, cost)
            if cost >= last_cost:
                break
            last_cost = cost
            position = moved
        return bacterium

    def _disperse(self, members, tracker, obj, bounds, rng) -> int:
        """Move each bacterium with the dispersal probability to a uniform
        random point; all draws come first, then one batch evaluation."""
        random = rng.random
        p = self.params.dispersal_probability
        moves = [(i, random_position(bounds, rng)) for i in range(len(members)) if random() < p]
        costs = tracker.evaluate_many(obj, [x for _, x in moves])
        for (i, x), c in zip(moves, costs):
            members[i] = Individual(x, c)
        if len(costs) < len(moves):
            raise BudgetExhausted
        return len(moves)


OPTIMIZER_CLASSES = {
    "pso": ParticleSwarm,
    "sa": SimulatedAnnealing,
    "ga": GeneticAlgorithm,
    "de": DifferentialEvolution,
    "bfo": BacterialForaging,
}

OPTIMIZER_NAMES = tuple(OPTIMIZER_CLASSES)


def make_optimizer(kind: str, **overrides) -> InnerOptimizer:
    """Build an optimizer by name; keyword overrides replace parameter defaults."""
    key = kind.strip().lower()
    if key not in OPTIMIZER_CLASSES:
        raise ValueError(f"unknown optimizer {kind!r}; valid kinds: {', '.join(OPTIMIZER_NAMES)}")
    cls = OPTIMIZER_CLASSES[key]
    return cls(type(cls.params)(**overrides))


def default_portfolio(overrides: dict[str, dict] | None = None) -> tuple[InnerOptimizer, ...]:
    """The standard five-method portfolio, in fixed order."""
    overrides = overrides or {}
    return tuple(make_optimizer(name, **overrides.get(name, {}))
                 for name in OPTIMIZER_NAMES)
