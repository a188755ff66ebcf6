"""The five population-based inner optimizers on one skeleton.

An optimizer is its parameters: each class is a frozen dataclass whose
fields are the method's settings, checked when it is built, and
``make_optimizer(name, **overrides)`` builds one. Every optimizer runs
through ``InnerOptimizer.run``: it takes a list of individuals and a
BudgetedObjective, evolves a copy until the budget is exhausted, and returns a
list of the same size. The objective keeps the best point it evaluates; the
base ``run`` owns the shape checks and budget guard, starts that best at the
incoming population's and does the elitist finalize. A method only writes
``_evolve(members, obj, bounds, rng)``, which leaves in ``members`` the
population to return (PSO its personal bests, SA its chain bests). The hot
loops inline the clamp to the box, and bind the RNG and objective methods
they call to locals. Where a method draws a whole batch of points
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
The updates are written into the loops too, with no call per particle, child
or bacterium: the PSO velocity update, the GA's two-pick tournament over at
most 21 members (``_lowest_of_sample`` draws any other) and its blend
crossover, and BFO chemotaxis. Each ``_evolve`` tests ``len(bounds) == 2``,
the shape of all 28 benchmark functions: such a box takes the per-coordinate
blocks (the PSO update and move, the SA step, the GA blend and mutation, DE's
trial, the BFO tumble and swims) written out in scalars; any other box takes
append loops, as a comprehension costs a frame on 3.11. The blocks keep every
RNG call and float expression in order: two gauss draws take one fresh pair
(both values, or a held ``spare`` and its first), steps keep ``0.0 + z * s``,
BFO sums squares left to right, and DE keeps its short circuit.

``tests/optimizer_reference.py`` keeps the loops that call the helpers,
``pso_velocity_update``, ``blend_crossover`` and ``tumble_direction`` among
them, and a test holds the two to identical populations, counts and RNG
states. Auxiliary state (velocities, temperatures, bacterial health) is
rebuilt from the incoming population and the RNG on every call, so
populations transfer between methods without hidden baggage.

Two guarantees hold for all five methods:
  * budget: the objective's counter never exceeds its cap;
  * elitism: the best cost in the returned population is never worse than
    the best cost in the incoming one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, log, sin, sqrt, tau
from operator import attrgetter

from .core import (
    BudgetExhausted,
    BudgetedObjective,
    Bounds,
    Individual,
    SeededRng,
    best_of,
    check_bounds,
    check_fields,
    clamp_to_bounds,
    random_position,
)


# ---------------------------------------------------------------------------
# update rules the loops call, exposed for direct testing; the loops inline
# the PSO velocity update and the GA blend (tests/optimizer_reference.py)


def sa_accept(delta_cost: float, temperature: float, u: float) -> bool:
    """Metropolis rule: always accept improvements, worse moves with prob exp(-d/T)."""
    if delta_cost <= 0.0:
        return True
    return u < math.exp(-delta_cost / temperature)


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


def _widths(bounds: Bounds) -> list[float]:
    return [hi - lo for lo, hi in bounds]


class InnerOptimizer:
    """Base class: shape checks, budget guard, elitist finalization.

    A subclass is a frozen dataclass whose fields are its parameters, each
    rule checked by one ``check_fields`` call. It sets ``name`` (a plain
    class attribute, not a field) and writes ``_evolve``."""

    name = "?"

    def run(self, pop: list[Individual], obj: BudgetedObjective, bounds: Bounds,
            rng: SeededRng) -> list[Individual]:
        """Evolve a copy of ``pop`` until ``obj``'s budget is spent; ``pop``
        itself is never modified.

        The returned population is fixed by the inputs and the state of
        ``rng`` on entry. The state ``rng`` is left in is not: a batch drawn
        in full may be evaluated only in part. Callers derive a fresh stream
        for every run. ``obj``'s best point on entry is replaced by the first
        lowest member of ``pop``.
        """
        if not pop:
            raise ValueError("population cannot be empty")
        check_bounds(bounds)
        for m in pop:  # the loops pair coordinates and bounds by zip
            if len(m.position) != len(bounds):
                raise ValueError(f"dimension mismatch: {len(m.position)} vs {len(bounds)} bounds")
        members = [m.copy() for m in pop]
        if obj.remaining <= 0:
            return members
        if any(m.cost is None for m in members):
            raise ValueError("optimizers require an evaluated incoming population")
        best = best_of(members)
        obj.best_cost, obj.best_position = best.cost, list(best.position)
        try:
            self._evolve(members, obj, bounds, rng)
        except BudgetExhausted:
            pass
        # elitism: the best point evaluated replaces the first worst member
        # when no member is as good
        if obj.best_cost < min(m.cost for m in members):
            worst = max(range(len(members)), key=lambda i: members[i].cost)
            members[worst] = Individual(obj.best_position, obj.best_cost)
        return members

    def _evolve(self, members, obj, bounds, rng):  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ParticleSwarm(InnerOptimizer):
    """Global-best PSO. Exports each particle's personal best."""

    name = "pso"
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max_fraction: float = 0.5

    def __post_init__(self):
        check_fields(vars(self), reals={"inertia": "(0, 1)", "cognitive": "(0, inf)",
                                        "social": "(0, inf)", "v_max_fraction": "(0, inf)"})

    def _evolve(self, pbest, obj, bounds, rng):
        evaluate = obj.evaluate
        random = rng.random
        inertia, cognitive, social = self.inertia, self.cognitive, self.social
        v_max = [self.v_max_fraction * w for w in _widths(bounds)]
        two = len(bounds) == 2
        if two:
            (lo0, hi0), (lo1, hi1) = bounds
            cap0, cap1 = v_max
        x = [list(m.position) for m in pbest]
        velocity = [[0.0] * len(x[0]) for _ in pbest]
        gbest = best_of(pbest)
        while obj.remaining > 0:
            for i in range(len(x)):
                r1 = random()
                r2 = random()
                # inertia + cognitive + social pull, clipped per dimension to
                # +-v_max, then the move, clamped to the box
                if two:
                    x0, x1 = x[i]
                    v0, v1 = velocity[i]
                    p0, p1 = pbest[i].position
                    g0, g1 = gbest.position
                    v0 = inertia * v0 + cognitive * r1 * (p0 - x0) + social * r2 * (g0 - x0)
                    v0 = -cap0 if v0 < -cap0 else cap0 if v0 > cap0 else v0
                    v1 = inertia * v1 + cognitive * r1 * (p1 - x1) + social * r2 * (g1 - x1)
                    v1 = -cap1 if v1 < -cap1 else cap1 if v1 > cap1 else v1
                    velocity[i] = (v0, v1)
                    x0 += v0
                    x1 += v1
                    moved = [lo0 if x0 < lo0 else hi0 if x0 > hi0 else x0,
                             lo1 if x1 < lo1 else hi1 if x1 > hi1 else x1]
                else:
                    v_new, moved = [], []
                    for xv, vv, p, g, cap, (lo, hi) in zip(x[i], velocity[i], pbest[i].position,
                                                           gbest.position, v_max, bounds):
                        vv = inertia * vv + cognitive * r1 * (p - xv) + social * r2 * (g - xv)
                        vv = -cap if vv < -cap else cap if vv > cap else vv
                        v_new.append(vv)
                        xv += vv
                        moved.append(lo if xv < lo else hi if xv > hi else xv)
                    velocity[i] = v_new
                c = evaluate(moved)
                x[i] = moved
                if c < pbest[i].cost:
                    pbest[i] = Individual(moved, c)
                    if c < gbest.cost:
                        gbest = pbest[i]


@dataclass(frozen=True)
class SimulatedAnnealing(InnerOptimizer):
    """Independent annealing chains, one per individual of the population.

    The initial temperature defaults to the incoming population's cost spread,
    cooling is geometric per sweep. Exports each chain's best visited point.
    """

    name = "sa"
    cooling: float = 0.95
    step_fraction: float = 0.1
    t0: float | None = None  # None: initial population cost spread (floor 1e-3)
    t0_floor: float = 1e-3

    def __post_init__(self):
        check_fields(vars(self), reals={"cooling": "(0, 1)", "step_fraction": "(0, inf)",
                                        "t0": "(0, inf)", "t0_floor": "(0, inf)"},
                     optional=("t0",))

    def _evolve(self, chain_best, obj, bounds, rng):
        evaluate_many = obj.evaluate_many
        random = rng.random
        sigma = [self.step_fraction * w for w in _widths(bounds)]
        two = len(bounds) == 2
        if two:
            (lo0, hi0), (lo1, hi1) = bounds
            s0, s1 = sigma
        current = list(chain_best)
        if self.t0 is not None:
            temperature = self.t0
        else:
            costs = [m.cost for m in chain_best]
            mean = sum(costs) / len(costs)
            spread = math.sqrt(sum((c - mean) ** 2 for c in costs) / len(costs))
            temperature = max(spread, self.t0_floor)
        while obj.remaining > 0:
            # a sweep's steps and accept draws do not depend on its costs:
            # draw them all, in the order a chain-by-chain loop would
            candidates, draws = [], []
            spare = rng.gauss_next
            for cur in current:
                if two:
                    v0, v1 = cur.position
                    # rng.gauss(0.0, s) twice, inline: one fresh pair
                    x2pi = random() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    if spare is None:
                        z0 = cos(x2pi) * g2rad
                        z1 = sin(x2pi) * g2rad
                    else:
                        z0 = spare
                        z1 = cos(x2pi) * g2rad
                        spare = sin(x2pi) * g2rad
                    v0 += 0.0 + z0 * s0
                    v1 += 0.0 + z1 * s1
                    candidates.append([lo0 if v0 < lo0 else hi0 if v0 > hi0 else v0,
                                       lo1 if v1 < lo1 else hi1 if v1 > hi1 else v1])
                else:
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
                if sa_accept(c - current[i].cost, temperature, draws[i]):
                    current[i] = Individual(candidate, c)
                if c < chain_best[i].cost:
                    chain_best[i] = Individual(candidate, c)
            if len(costs) < len(candidates):
                raise BudgetExhausted
            temperature = max(temperature * self.cooling, 1e-12)


_SAMPLE_POOL = 21  # random.sample's set size for up to 5 picks


def _lowest_of_sample(getrandbits, n: int, k: int) -> int:
    """``min(random.sample(range(n), k))``, drawn with exactly the ``getrandbits``
    calls ``random.sample`` makes: each ``randbelow(m)`` draws
    ``m.bit_length()`` bits until the value is below ``m``."""
    setsize = _SAMPLE_POOL
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


@dataclass(frozen=True)
class GeneticAlgorithm(InnerOptimizer):
    """Real-coded GA: tournament selection, blend crossover, Gaussian mutation."""

    name = "ga"
    tournament_size: int = 2
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float | None = None  # None: 1/dimension
    mutation_sigma_fraction: float = 0.1
    elitism: int = 1

    def __post_init__(self):
        check_fields(vars(self), {"tournament_size": 2, "elitism": 0},
                     reals={"crossover_rate": "[0, 1]", "blend_alpha": "[0, inf)",
                            "mutation_rate": "[0, 1]", "mutation_sigma_fraction": "(0, inf)"},
                     optional=("mutation_rate",))

    def _evolve(self, members, obj, bounds, rng):
        evaluate_many = obj.evaluate_many
        random = rng.random
        getrandbits = rng.getrandbits
        size = len(members)
        mutation_rate = self.mutation_rate if self.mutation_rate is not None else 1.0 / len(bounds)
        sigma = [self.mutation_sigma_fraction * w for w in _widths(bounds)]
        two = len(bounds) == 2
        if two:
            (lo0, hi0), (lo1, hi1) = bounds
            s0, s1 = sigma
        n_pick = min(self.tournament_size, size)
        # the default tournament over a pool-sized population draws inline
        pair_pool = n_pick == 2 and size <= _SAMPLE_POOL
        first_bits, second_bits, last = size.bit_length(), (size - 1).bit_length(), size - 1
        n_elite = min(self.elitism, size)
        crossover_rate = self.crossover_rate
        by_cost = attrgetter("cost")
        # rng.uniform(low, high) is low + (high - low) * random()
        draw_low = -self.blend_alpha
        draw_span = (1.0 + self.blend_alpha) - draw_low
        idle = 0  # children drawn since the last evaluation
        while obj.remaining > 0:
            used = obj.used
            ranked = sorted(members, key=by_cost)
            next_gen = [ranked[i].copy() for i in range(n_elite)]
            # a generation's draws do not depend on its children's costs: draw
            # every child first; an untouched clone keeps its parent's cost
            children, points = [], []
            spare = rng.gauss_next
            for _ in range(size - n_elite):
                # ranked is sorted by cost: the lowest index wins a tournament.
                # Two picks from the pool: the second is slot j1, or size - 1
                # when j1 is the first pick's slot; either way the lower draw
                # is the lowest pick
                if pair_pool:  # _lowest_of_sample(getrandbits, size, 2), inline
                    first = getrandbits(first_bits)
                    while first >= size:
                        first = getrandbits(first_bits)
                    second = getrandbits(second_bits)
                    while second >= last:
                        second = getrandbits(second_bits)
                    parent1 = ranked[first if first < second else second]
                else:
                    parent1 = ranked[_lowest_of_sample(getrandbits, size, n_pick)]
                if random() < crossover_rate:
                    if pair_pool:
                        first = getrandbits(first_bits)
                        while first >= size:
                            first = getrandbits(first_bits)
                        second = getrandbits(second_bits)
                        while second >= last:
                            second = getrandbits(second_bits)
                        parent2 = ranked[first if first < second else second]
                    else:
                        parent2 = ranked[_lowest_of_sample(getrandbits, size, n_pick)]
                else:
                    parent2 = None
                # blend: one draw u ~ U(-blend_alpha, 1 + blend_alpha) per
                # dimension, the child p1 + u * (p2 - p1); then mutation
                mutated = False
                if two:
                    v0, v1 = parent1.position
                    if parent2 is not None:
                        b0, b1 = parent2.position
                        v0 = v0 + (draw_low + draw_span * random()) * (b0 - v0)
                        v1 = v1 + (draw_low + draw_span * random()) * (b1 - v1)
                    if random() < mutation_rate:
                        if spare is None:
                            x2pi = random() * tau
                            g2rad = sqrt(-2.0 * log(1.0 - random()))
                            z = cos(x2pi) * g2rad
                            spare = sin(x2pi) * g2rad
                        else:
                            z = spare
                            spare = None
                        v0 += 0.0 + z * s0
                        mutated = True
                    if random() < mutation_rate:
                        if spare is None:
                            x2pi = random() * tau
                            g2rad = sqrt(-2.0 * log(1.0 - random()))
                            z = cos(x2pi) * g2rad
                            spare = sin(x2pi) * g2rad
                        else:
                            z = spare
                            spare = None
                        v1 += 0.0 + z * s1
                        mutated = True
                    child = [lo0 if v0 < lo0 else hi0 if v0 > hi0 else v0,
                             lo1 if v1 < lo1 else hi1 if v1 > hi1 else v1]
                else:
                    genes = parent1.position
                    if parent2 is not None:
                        genes = []
                        for a, b in zip(parent1.position, parent2.position):
                            genes.append(a + (draw_low + draw_span * random()) * (b - a))
                    child = []
                    for v, s, (lo, hi) in zip(genes, sigma, bounds):
                        if random() < mutation_rate:
                            if spare is None:
                                x2pi = random() * tau
                                g2rad = sqrt(-2.0 * log(1.0 - random()))
                                z = cos(x2pi) * g2rad
                                spare = sin(x2pi) * g2rad
                            else:
                                z = spare
                                spare = None
                            v += 0.0 + z * s
                            mutated = True
                        child.append(lo if v < lo else hi if v > hi else v)
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
            if obj.used > used:
                idle = 0
            else:
                # a child that copies its parent costs nothing, but drawing it is
                # work: stop once as many were drawn in a row as the budget has left
                idle += size - n_elite
                if idle >= obj.remaining or self._stalled(members, bounds):
                    return

    def _stalled(self, members, bounds) -> bool:
        """True when no later generation can evaluate a point: elitism fills
        every slot, or nothing mutates, every member lies in the box (so
        clamping leaves a copy unchanged) and every child copies its first
        parent because crossover is off or every member a tournament can pick
        (ranks 0 to n - tournament size) shares one position. A generation
        that evaluates nothing keeps these conditions for the next one."""
        size = len(members)
        if self.elitism >= size:
            return True
        if self.mutation_rate != 0.0:
            return False
        if any(clamp_to_bounds(m.position, bounds) != m.position for m in members):
            return False
        if self.crossover_rate == 0.0:
            return True
        ranked = sorted(members, key=lambda m: m.cost)
        pickable = ranked[:size - min(self.tournament_size, size) + 1]
        return all(m.position == pickable[0].position for m in pickable)


@dataclass(frozen=True)
class DifferentialEvolution(InnerOptimizer):
    """DE rand/1/bin with greedy one-to-one replacement."""

    name = "de"
    weight: float = 0.5  # differential weight F
    crossover_rate: float = 0.9  # CR

    def __post_init__(self):
        check_fields(vars(self), reals={"weight": "(0, 2]", "crossover_rate": "[0, 1]"})

    def _evolve(self, members, obj, bounds, rng):
        evaluate = obj.evaluate
        random = rng.random
        getrandbits = rng.getrandbits  # randbelow(n) draws n.bit_length() bits until < n
        weight = self.weight
        crossover_rate = self.crossover_rate
        size = len(members)
        dim = len(members[0].position)
        two = len(bounds) == 2
        if two:
            (lo0, hi0), (lo1, hi1) = bounds
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
                if two:
                    t0, t1 = members[i].position
                    if j_rand == 0 or random() < crossover_rate:
                        v = base[0] + weight * (va[0] - vb[0])
                        t0 = lo0 if v < lo0 else hi0 if v > hi0 else v
                    if j_rand == 1 or random() < crossover_rate:
                        v = base[1] + weight * (va[1] - vb[1])
                        t1 = lo1 if v < lo1 else hi1 if v > hi1 else v
                    trial = [t0, t1]
                else:
                    trial = list(members[i].position)
                    for d in range(dim):
                        if d == j_rand or random() < crossover_rate:
                            lo, hi = bounds[d]
                            v = base[d] + weight * (va[d] - vb[d])
                            trial[d] = lo if v < lo else hi if v > hi else v
                c = evaluate(trial)
                if c <= members[i].cost:
                    members[i] = Individual(trial, c)


@dataclass(frozen=True)
class BacterialForaging(InnerOptimizer):
    """Trimmed bacterial foraging: chemotaxis with swimming, reproduction,
    elimination-dispersal. Swarming attraction is omitted; at the evaluation
    budgets used here the full protocol cannot complete a single pass."""

    name = "bfo"
    chemotaxis_steps: int = 4
    swim_length: int = 4
    reproduction_steps: int = 2
    elimination_dispersal_steps: int = 1
    dispersal_probability: float = 0.25
    step_fraction: float = 0.05

    def __post_init__(self):
        check_fields(vars(self),
                     dict.fromkeys(("chemotaxis_steps", "swim_length", "reproduction_steps",
                                    "elimination_dispersal_steps"), 1),
                     reals={"dispersal_probability": "[0, 1]", "step_fraction": "(0, inf)"})

    def _evolve(self, members, obj, bounds, rng):
        evaluate = obj.evaluate
        random = rng.random
        step = [self.step_fraction * w for w in _widths(bounds)]
        two = len(bounds) == 2
        if two:
            (lo0, hi0), (lo1, hi1) = bounds
            s0, s1 = step
        swims = range(self.swim_length + 1)
        # chemotaxis_steps passes over the bacteria, in order
        chemotaxis = [*range(len(members))] * self.chemotaxis_steps
        while obj.remaining > 0:
            for _ in range(self.elimination_dispersal_steps):
                for _ in range(self.reproduction_steps):
                    for i in chemotaxis:
                        # one tumble, then up to swim_length swims along the
                        # same direction while each move improves. The tumble
                        # is always kept; a swim only when it improves
                        spare = rng.gauss_next
                        while True:  # tumble: a uniform random unit vector
                            if two:  # rng.gauss(0.0, 1.0) twice, as in SA's block
                                x2pi = random() * tau
                                g2rad = sqrt(-2.0 * log(1.0 - random()))
                                if spare is None:
                                    g0 = 0.0 + cos(x2pi) * g2rad
                                    g1 = 0.0 + sin(x2pi) * g2rad
                                else:
                                    g0 = 0.0 + spare
                                    g1 = 0.0 + cos(x2pi) * g2rad
                                    spare = sin(x2pi) * g2rad
                                norm = sqrt(g0 * g0 + g1 * g1)  # 0.0 + g0 * g0 is g0 * g0
                            else:
                                direction = []
                                squares = 0.0  # accumulated left to right: the pins fix this order
                                for _ in step:
                                    if spare is None:
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
                        if two:
                            d0 = s0 * (g0 / norm)
                            d1 = s1 * (g1 / norm)
                        else:
                            delta = []
                            for s, g in zip(step, direction):
                                delta.append(s * (g / norm))
                        bacterium = members[i]
                        position = bacterium.position
                        last_cost = bacterium.cost
                        for swim in swims:
                            if two:
                                x0 = position[0] + d0
                                x1 = position[1] + d1
                                moved = [lo0 if x0 < lo0 else hi0 if x0 > hi0 else x0,
                                         lo1 if x1 < lo1 else hi1 if x1 > hi1 else x1]
                            else:
                                moved = []
                                for v, dv, (lo, hi) in zip(position, delta, bounds):
                                    v += dv
                                    moved.append(lo if v < lo else hi if v > hi else v)
                            cost = evaluate(moved)
                            if swim == 0 or cost < last_cost:
                                bacterium = Individual(moved, cost)
                            if cost >= last_cost:
                                break
                            last_cost = cost
                            position = moved
                        members[i] = bacterium
                    members[:] = bfo_reproduce(members)
                self._disperse(members, obj, bounds, rng)

    def _disperse(self, members, obj, bounds, rng) -> int:
        """Move each bacterium with the dispersal probability to a uniform
        random point; all draws come first, then one batch evaluation."""
        random = rng.random
        p = self.dispersal_probability
        moves = [(i, random_position(bounds, rng)) for i in range(len(members)) if random() < p]
        costs = obj.evaluate_many([x for _, x in moves])
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
    return OPTIMIZER_CLASSES[key](**overrides)


def default_portfolio(overrides: dict[str, dict] | None = None) -> tuple[InnerOptimizer, ...]:
    """The standard five-method portfolio, in fixed order.

    ``overrides`` is a plan's ``optimizer_overrides``: it maps a method name
    to the keyword values that replace that method's parameter defaults, and
    None overrides nothing. An unknown name, a non-mapping or a rejected
    value raises ValueError, with a message that names ``optimizer_overrides``.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ValueError("optimizer_overrides must map method names to parameters")
    built = {}
    for name, params in overrides.items():
        if name not in OPTIMIZER_NAMES:
            raise ValueError(f"optimizer_overrides: unknown method {name!r}; "
                             f"valid: {', '.join(OPTIMIZER_NAMES)}")
        if not isinstance(params, dict):
            raise ValueError(f"optimizer_overrides[{name!r}] must map parameter "
                             f"names to values")
        try:
            built[name] = make_optimizer(name, **params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"optimizer_overrides[{name!r}]: {exc}") from exc
    return tuple(built.get(name) or make_optimizer(name) for name in OPTIMIZER_NAMES)
