"""Reference optimizer loops: every draw through the ``random.Random`` helpers.

These are the straightforward forms of the SA, GA, DE and BFO loops in
``chmopt.optimizers``, kept as the oracle their tests compare against. They
call ``rng.gauss``, ``rng.sample``, ``rng._randbelow`` and ``rng.choice``
where the library inlines the interpreter's ``gauss`` and
``_randbelow_with_getrandbits``. Each class only replaces the loop, so the
budget guard, best tracking and elitist finalize are the library's. The
inlined loops must reproduce every population, evaluation count and RNG
state exactly; on an interpreter whose ``random.py`` draws differently the
comparison fails.
"""
import math

from chmopt.core import BudgetExhausted, Individual
from chmopt.optimizers import (
    BacterialForaging,
    DifferentialEvolution,
    GeneticAlgorithm,
    SimulatedAnnealing,
    _widths,
    blend_crossover,
    sa_accept,
)


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


class ReferenceSimulatedAnnealing(SimulatedAnnealing):
    def _evolve(self, chain_best, tracker, obj, bounds, rng):
        p = self.params
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


class ReferenceGeneticAlgorithm(GeneticAlgorithm):
    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
        size = len(members)
        dims = range(len(members[0].position))
        mutation_rate = p.mutation_rate if p.mutation_rate is not None else 1.0 / len(dims)
        sigma = [p.mutation_sigma_fraction * w for w in _widths(bounds)]
        n_pick = min(p.tournament_size, size)
        n_elite = min(p.elitism, size)
        while obj.remaining > 0:
            used = obj.used
            ranked = sorted(members, key=lambda m: m.cost)
            next_gen = [ranked[i].copy() for i in range(n_elite)]
            children, points = [], []
            for _ in range(size - n_elite):
                parent1 = ranked[min(rng.sample(range(size), n_pick))]
                if rng.random() < p.crossover_rate:
                    parent2 = ranked[min(rng.sample(range(size), n_pick))]
                    child = blend_crossover(
                        parent1.position, parent2.position, p.blend_alpha,
                        [rng.uniform(-p.blend_alpha, 1.0 + p.blend_alpha) for _ in dims])
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
                    if c < tracker.best_cost:
                        tracker.best_cost = c
                        tracker.best_position = list(child)
                next_gen.append(Individual(child, c))
            if len(costs) < len(points):
                i = 0
                while len(next_gen) < size:
                    next_gen.append(ranked[i % size].copy())
                    i += 1
                members[:] = next_gen
                raise BudgetExhausted
            members[:] = next_gen
            if obj.used == used and self._stalled(members, bounds):
                return


class ReferenceDifferentialEvolution(DifferentialEvolution):
    def _evolve(self, members, tracker, obj, bounds, rng):
        p = self.params
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
                    if d == j_rand or rng.random() < p.crossover_rate:
                        lo, hi = bounds[d]
                        v = base[d] + p.weight * (va[d] - vb[d])
                        trial[d] = lo if v < lo else hi if v > hi else v
                c = obj.evaluate(trial)
                if c < tracker.best_cost:
                    tracker.best_cost = c
                    tracker.best_position = list(trial)
                if c <= members[i].cost:
                    members[i] = Individual(trial, c)


class ReferenceBacterialForaging(BacterialForaging):
    def _chemotax(self, bacterium, tracker, obj, bounds, rng, step):
        delta = [s * d for s, d in zip(step, tumble_direction(rng, len(step)))]
        position = bacterium.position
        last_cost = bacterium.cost
        for swim in range(self.params.swim_length + 1):
            moved = []
            for v, dv, (lo, hi) in zip(position, delta, bounds):
                v += dv
                moved.append(lo if v < lo else hi if v > hi else v)
            cost = obj.evaluate(moved)
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


REFERENCE_CLASSES = {
    "sa": ReferenceSimulatedAnnealing,
    "ga": ReferenceGeneticAlgorithm,
    "de": ReferenceDifferentialEvolution,
    "bfo": ReferenceBacterialForaging,
}
