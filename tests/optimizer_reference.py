"""Reference optimizer loops: every draw and update through a helper call.

These are the straightforward forms of the PSO, SA, GA, DE and BFO loops in
``chmopt.optimizers``, kept as the oracle their tests compare against. They
call ``rng.gauss``, ``rng.sample``, ``rng._randbelow`` and ``rng.choice``
where the library inlines the interpreter's ``gauss`` and
``_randbelow_with_getrandbits``, and ``pso_velocity_update``,
``blend_crossover`` and ``tumble_direction`` where the library writes the
update into its loop. Each class subclasses the library's, so it takes the
same parameter fields and reads them as ``self.<field>``; it only replaces
the loop, so the budget guard, the best point the objective keeps and the
elitist finalize are the library's. The inlined loops must reproduce every
population, evaluation count and RNG state exactly; on an interpreter whose
``random.py`` draws differently the comparison fails.
"""
import math

from chmopt.core import BudgetExhausted, Individual, best_of, clamp_to_bounds
from chmopt.optimizers import (
    BacterialForaging,
    DifferentialEvolution,
    GeneticAlgorithm,
    ParticleSwarm,
    SimulatedAnnealing,
    _widths,
    bfo_reproduce,
    sa_accept,
)


def pso_velocity_update(v, x, pbest, gbest, swarm: ParticleSwarm,
                        r1: float, r2: float, v_max=None) -> list[float]:
    """Inertia + cognitive + social pull, clipped per dimension to +-v_max."""
    out = []
    for d in range(len(v)):
        nv = (swarm.inertia * v[d]
              + swarm.cognitive * r1 * (pbest[d] - x[d])
              + swarm.social * r2 * (gbest[d] - x[d]))
        if v_max is not None:
            cap = v_max[d]
            nv = -cap if nv < -cap else cap if nv > cap else nv
        out.append(nv)
    return out


def blend_crossover(p1, p2, draws) -> list[float]:
    """Per-dimension interpolation child: p1 + u*(p2-p1), one draw u per
    dimension (the GA draws u ~ U(-blend_alpha, 1 + blend_alpha))."""
    return [a + u * (b - a) for a, b, u in zip(p1, p2, draws)]


def tumble_direction(rng, dim: int) -> list[float]:
    """Uniform random unit vector."""
    gauss = rng.gauss
    while True:
        d = []
        squares = 0.0  # accumulated left to right: the pins fix this order
        for _ in range(dim):
            g = gauss(0.0, 1.0)
            d.append(g)
            squares += g * g
        norm = math.sqrt(squares)
        if norm > 0.0:
            return [v / norm for v in d]


def pick_three(size, exclude, rng):
    """Three DE donor indices: distinct and other than ``exclude`` when the
    population allows it, else drawn with replacement from the others."""
    if size < 4:
        pool = [j for j in range(size) if j != exclude] or [exclude]
        return (rng.choice(pool), rng.choice(pool), rng.choice(pool))
    picks = []
    while len(picks) < 3:
        j = rng._randbelow(size)
        if j != exclude and j not in picks:
            picks.append(j)
    return picks


class ReferenceParticleSwarm(ParticleSwarm):
    def _evolve(self, pbest, obj, bounds, rng):
        v_max = [self.v_max_fraction * w for w in _widths(bounds)]
        x = [list(m.position) for m in pbest]
        velocity = [[0.0] * len(x[0]) for _ in pbest]
        gbest = best_of(pbest)
        while obj.remaining > 0:
            for i in range(len(x)):
                r1 = rng.random()
                r2 = rng.random()
                velocity[i] = pso_velocity_update(
                    velocity[i], x[i], pbest[i].position, gbest.position, self,
                    r1, r2, v_max)
                moved = clamp_to_bounds([xv + vv for xv, vv in zip(x[i], velocity[i])], bounds)
                c = obj.evaluate(moved)
                x[i] = moved
                if c < pbest[i].cost:
                    pbest[i] = Individual(moved, c)
                    if c < gbest.cost:
                        gbest = pbest[i]


class ReferenceSimulatedAnnealing(SimulatedAnnealing):
    def _evolve(self, chain_best, obj, bounds, rng):
        sigma = [self.step_fraction * w for w in _widths(bounds)]
        current = list(chain_best)
        if self.t0 is not None:
            temperature = self.t0
        else:
            costs = [m.cost for m in chain_best]
            mean = sum(costs) / len(costs)
            spread = math.sqrt(sum((c - mean) ** 2 for c in costs) / len(costs))
            temperature = max(spread, self.t0_floor)
        while obj.remaining > 0:
            candidates, draws = [], []
            for cur in current:
                candidate = []
                for v, s, (lo, hi) in zip(cur.position, sigma, bounds):
                    v += rng.gauss(0.0, s)
                    candidate.append(lo if v < lo else hi if v > hi else v)
                candidates.append(candidate)
                draws.append(rng.random())
            costs = obj.evaluate_many(candidates)
            for i, c in enumerate(costs):
                candidate = candidates[i]
                if sa_accept(c - current[i].cost, temperature, draws[i]):
                    current[i] = Individual(candidate, c)
                if c < chain_best[i].cost:
                    chain_best[i] = Individual(candidate, c)
            if len(costs) < len(candidates):
                raise BudgetExhausted
            temperature = max(temperature * self.cooling, 1e-12)


class ReferenceGeneticAlgorithm(GeneticAlgorithm):
    def _evolve(self, members, obj, bounds, rng):
        size = len(members)
        dims = range(len(members[0].position))
        mutation_rate = self.mutation_rate if self.mutation_rate is not None else 1.0 / len(dims)
        sigma = [self.mutation_sigma_fraction * w for w in _widths(bounds)]
        n_pick = min(self.tournament_size, size)
        n_elite = min(self.elitism, size)
        idle = 0  # children drawn since the last evaluation
        while obj.remaining > 0:
            used = obj.used
            ranked = sorted(members, key=lambda m: m.cost)
            next_gen = [ranked[i].copy() for i in range(n_elite)]
            children, points = [], []
            for _ in range(size - n_elite):
                parent1 = ranked[min(rng.sample(range(size), n_pick))]
                if rng.random() < self.crossover_rate:
                    parent2 = ranked[min(rng.sample(range(size), n_pick))]
                    child = blend_crossover(
                        parent1.position, parent2.position,
                        [rng.uniform(-self.blend_alpha, 1.0 + self.blend_alpha) for _ in dims])
                else:
                    child = list(parent1.position)
                mutated = False
                for d, (lo, hi) in enumerate(bounds):
                    v = child[d]
                    if rng.random() < mutation_rate:
                        v += rng.gauss(0.0, sigma[d])
                        mutated = True
                    child[d] = lo if v < lo else hi if v > hi else v
                if not mutated and child == parent1.position:
                    children.append((child, parent1.cost))
                else:
                    children.append((child, None))
                    points.append(child)
            costs = obj.evaluate_many(points)
            paid = iter(costs)
            for child, c in children:
                if c is None:
                    c = next(paid, None)
                    if c is None:
                        break
                next_gen.append(Individual(child, c))
            if len(costs) < len(points):
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
                idle += size - n_elite
                if idle >= obj.remaining or self._stalled(members, bounds):
                    return


class ReferenceDifferentialEvolution(DifferentialEvolution):
    def _evolve(self, members, obj, bounds, rng):
        size = len(members)
        dim = len(members[0].position)
        while obj.remaining > 0:
            for i in range(size):
                r1, r2, r3 = pick_three(size, i, rng)
                base = members[r1].position
                va = members[r2].position
                vb = members[r3].position
                j_rand = rng._randbelow(dim)
                trial = list(members[i].position)
                for d in range(dim):
                    if d == j_rand or rng.random() < self.crossover_rate:
                        lo, hi = bounds[d]
                        v = base[d] + self.weight * (va[d] - vb[d])
                        trial[d] = lo if v < lo else hi if v > hi else v
                c = obj.evaluate(trial)
                if c <= members[i].cost:
                    members[i] = Individual(trial, c)


class ReferenceBacterialForaging(BacterialForaging):
    def _evolve(self, members, obj, bounds, rng):
        step = [self.step_fraction * w for w in _widths(bounds)]
        while obj.remaining > 0:
            for _ in range(self.elimination_dispersal_steps):
                for _ in range(self.reproduction_steps):
                    for _ in range(self.chemotaxis_steps):
                        for i in range(len(members)):
                            members[i] = self._chemotax(members[i], obj, bounds, rng, step)
                    members[:] = bfo_reproduce(members)
                self._disperse(members, obj, bounds, rng)

    def _chemotax(self, bacterium, obj, bounds, rng, step):
        delta = [s * d for s, d in zip(step, tumble_direction(rng, len(step)))]
        position = bacterium.position
        last_cost = bacterium.cost
        for swim in range(self.swim_length + 1):
            moved = clamp_to_bounds([v + dv for v, dv in zip(position, delta)], bounds)
            cost = obj.evaluate(moved)
            if swim == 0 or cost < last_cost:
                bacterium = Individual(moved, cost)
            if cost >= last_cost:
                break
            last_cost = cost
            position = moved
        return bacterium


REFERENCE_CLASSES = {
    "pso": ReferenceParticleSwarm,
    "sa": ReferenceSimulatedAnnealing,
    "ga": ReferenceGeneticAlgorithm,
    "de": ReferenceDifferentialEvolution,
    "bfo": ReferenceBacterialForaging,
}
