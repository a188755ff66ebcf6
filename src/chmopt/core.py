"""Shared domain types: individuals, populations, budgeted objectives, metrics, RNG,
and the aligned text-table formatter.

Positions are plain lists of floats. Keeping the evaluation path free of array
machinery matters here: a full benchmark sweep makes tens of millions of
two-dimensional objective calls.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import random
from typing import Callable, Sequence

Vector = Sequence[float]
Bounds = Sequence[tuple[float, float]]


class BudgetExhausted(Exception):
    """No evaluations left on a budgeted objective.

    Optimizers treat this as "stop the current generation immediately and
    return the best population found so far".
    """


class NonFiniteValue(Exception):
    """An objective returned NaN or infinity."""

    def __init__(self, position, value):
        super().__init__(f"objective returned non-finite value {value!r} at position {list(position)!r}")
        self.position = list(position)
        self.value = value


class SeededRng(random.Random):
    """Random generator that remembers its seed and can derive labelled sub-streams.

    Two generators constructed with the same seed produce bit-identical
    sequences; ``derive`` gives an independent, replayable stream per label
    tuple, which is how each probing/fit phase gets its own randomness.
    """

    def __init__(self, seed: int):
        self.seed_value = int(seed)
        super().__init__(self.seed_value)

    def derive(self, *labels) -> "SeededRng":
        return SeededRng(mix_seed(self.seed_value, *labels))


def is_integer(value) -> bool:
    """An integral number that is not a bool (``True`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def mix_seed(base_seed: int, *labels) -> int:
    """Stable 64-bit seed for (base_seed, labels); independent of hash randomization."""
    key = repr((int(base_seed),) + tuple(labels)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class Individual:
    """One candidate solution: a position vector plus its cached cost.

    ``cost`` is None until evaluated; any change of position invalidates it,
    so mutation code always builds a fresh Individual.
    """

    __slots__ = ("position", "cost")

    def __init__(self, position: Vector, cost: float | None = None):
        self.position = list(position)
        self.cost = cost

    def copy(self) -> "Individual":
        return Individual(self.position, self.cost)

    def __repr__(self):
        return f"Individual({self.position!r}, cost={self.cost!r})"


class Population:
    """Fixed-size ordered collection of individuals sharing one dimension."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Individual]):
        members = list(members)
        if not members:
            raise ValueError("population cannot be empty")
        dim = len(members[0].position)
        for m in members:
            if len(m.position) != dim:
                raise ValueError("all members must share one dimension")
        self.members = members

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dimension(self) -> int:
        return len(self.members[0].position)

    def best(self) -> Individual:
        best = None
        for m in self.members:
            if m.cost is None:
                raise ValueError("population has unevaluated members")
            if best is None or m.cost < best.cost:
                best = m
        return best

    def best_cost(self) -> float:
        return self.best().cost

    def copy(self) -> "Population":
        return Population([m.copy() for m in self.members])

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


class BudgetedObjective:
    """Wraps a cost function with an evaluation counter and a hard cap."""

    __slots__ = ("fn", "cap", "used")

    def __init__(self, fn: Callable[[Vector], float], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.fn = fn
        self.cap = int(cap)
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.cap - self.used

    def evaluate(self, x: Vector) -> float:
        if self.used >= self.cap:
            raise BudgetExhausted(f"evaluation budget of {self.cap} exhausted")
        self.used += 1
        value = self.fn(x)
        if not math.isfinite(value):
            raise NonFiniteValue(x, value)
        return value

    __call__ = evaluate

    def evaluate_many(self, points) -> list[float]:
        """Values of the longest prefix of ``points`` the budget allows, in order.

        Counts as a loop of ``evaluate`` over that prefix would: on a
        non-finite value, ``used`` stops at that point and NonFiniteValue names
        it. An objective with an ``evaluate_many`` method gets the prefix in
        one call; a plain callable is called point by point.
        """
        points = points[:self.cap - self.used]
        batch = getattr(self.fn, "evaluate_many", None)
        if batch is None:
            evaluate = self.evaluate
            return [evaluate(x) for x in points]
        start = self.used
        self.used += len(points)
        values = batch(points) if points else []
        for i, value in enumerate(values):
            if not math.isfinite(value):
                self.used = start + i + 1
                raise NonFiniteValue(points[i], value)
        return values


def fitness(candidate_value: float, reference_value: float) -> float:
    """Absolute gap between a candidate's objective value and the known optimum value."""
    if not (math.isfinite(candidate_value) and math.isfinite(reference_value)):
        raise ValueError(
            f"fitness requires finite values, got {candidate_value!r} and {reference_value!r}")
    return abs(candidate_value - reference_value)


def euclidean_distance(x: Vector, x0: Vector) -> float:
    if len(x) != len(x0):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(x0)}")
    return math.sqrt(sum((a - b) * (a - b) for a, b in zip(x, x0)))


def population_std(values) -> float:
    """Population standard deviation of a non-empty sequence."""
    n = len(values)
    mean = sum(values) / n
    return (sum((v - mean) ** 2 for v in values) / n) ** 0.5


def format_table(rows) -> str:
    """Left-aligned text table: the first row is the header, a rule follows it."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def clamp_to_bounds(x: Vector, bounds: Bounds) -> list[float]:
    """Project each coordinate into its [low, high] interval. Idempotent."""
    if len(x) != len(bounds):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(bounds)}")
    out = []
    for v, (lo, hi) in zip(x, bounds):
        out.append(lo if v < lo else hi if v > hi else v)
    return out


def random_position(bounds: Bounds, rng: random.Random) -> list[float]:
    return [rng.uniform(lo, hi) for lo, hi in bounds]


def random_population(size: int, bounds: Bounds, rng: random.Random) -> Population:
    """Uniform random population within the box, costs unset."""
    if size < 1:
        raise ValueError(f"population size must be >= 1, got {size}")
    return Population([Individual(random_position(bounds, rng)) for _ in range(size)])


def evaluate_population(pop: Population, obj: BudgetedObjective) -> Population:
    """Fill in costs for members that do not have one yet, as one batch."""
    pending = [m for m in pop.members if m.cost is None]
    values = obj.evaluate_many([m.position for m in pending])
    for m, value in zip(pending, values):
        m.cost = value
    if len(values) < len(pending):
        raise BudgetExhausted(f"evaluation budget of {obj.cap} exhausted")
    return pop
