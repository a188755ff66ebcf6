"""Shared domain types: individuals, budgeted objectives, metrics, RNG, and the
aligned text-table formatter.

Positions are plain lists of floats, populations plain lists of individuals.
Keeping the evaluation path free of array machinery matters here: a full
benchmark sweep makes tens of millions of two-dimensional objective calls.
A budget counts every evaluation in one loop of calls; an objective that
must see a batch first defines ``prefetch``. Reported sums add left to right.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import random
from math import isfinite
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


def _in_interval(value, interval: str) -> bool:
    """A real number, not a bool, that converts to a finite float and lies in
    ``interval``, written as "(0, 1]" or "[0, inf)"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False
    low, high = (float(end) for end in interval[1:-1].split(","))
    return (finite and (low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high))


def check_fields(values, counts=None, reals=None, flags=(), optional=()):
    """Raises a ValueError naming the first setting in ``values`` (a mapping)
    that breaks its rule. ``counts`` maps a name to its least integer (None:
    any integer). ``reals`` maps a name to the interval its finite value lies
    in, written as the message prints it: "(0, 1]", "[0, inf)", "(-inf, inf)";
    a name in ``optional`` may also be None. ``flags`` name bools."""
    for name, low in (counts or {}).items():
        value = values[name]
        if not is_integer(value) or low is not None and value < low:
            rule = "an integer" if low is None else f"an integer >= {low}"
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    for name, interval in (reals or {}).items():
        value = values[name]
        if not (_in_interval(value, interval) or value is None and name in optional):
            raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")
    for name in flags:
        if not isinstance(values[name], bool):
            raise ValueError(f"{name} must be true or false, got {values[name]!r}")


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


def best_of(members: Sequence[Individual]) -> Individual:
    """The first member of lowest cost; every member must be evaluated."""
    return min(members, key=lambda m: m.cost)


class BudgetedObjective:
    """Wraps a cost function with an evaluation counter and a hard cap, and
    keeps the first lowest point it evaluates: ``best_cost`` (inf until then)
    and a copy of the point, ``best_position``."""

    __slots__ = ("fn", "cap", "used", "best_cost", "best_position")

    def __init__(self, fn: Callable[[Vector], float], cap: int):
        check_fields({"cap": cap}, {"cap": 0})
        self.fn = fn
        self.cap = cap
        self.used = 0
        self.best_cost = math.inf
        self.best_position = None

    @property
    def remaining(self) -> int:
        return self.cap - self.used

    def evaluate(self, x: Vector) -> float:
        if self.used >= self.cap:
            raise BudgetExhausted(f"evaluation budget of {self.cap} exhausted")
        self.used += 1
        value = self.fn(x)
        if not isfinite(value):
            raise NonFiniteValue(x, value)
        if value < self.best_cost:
            self.best_cost = value
            self.best_position = list(x)
        return value

    __call__ = evaluate

    def evaluate_many(self, points) -> list[float]:
        """Values of the longest prefix of ``points`` the budget allows, in order.

        Counts as a loop of ``evaluate`` over that prefix would: on a
        non-finite value, ``used`` stops at that point and NonFiniteValue names
        it. The best point is recorded as that loop would record it. An
        objective's ``prefetch(points)``, if it has one, gets a non-empty
        prefix once, before any point of it is evaluated or counted.
        """
        points = points[:self.cap - self.used]
        fn = self.fn
        if points and hasattr(fn, "prefetch"):
            fn.prefetch(points)
        used = self.used
        best = self.best_cost
        values = []
        try:  # used counts every call made, one that raises included
            for x in points:
                used += 1
                value = fn(x)
                if not isfinite(value):
                    raise NonFiniteValue(x, value)
                if value < best:
                    self.best_cost = best = value
                    self.best_position = list(x)
                values.append(value)
        finally:
            self.used = used
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


def plain_sum(values) -> float:
    """``values`` added left to right from 0.0, as ``sum()`` adds floats up to
    Python 3.11; from 3.12 ``sum()`` compensates, which can move the last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


def population_std(values) -> float:
    """Standard deviation of a non-empty sequence, divided by its length."""
    n = len(values)
    mean = plain_sum(values) / n
    return (plain_sum((v - mean) ** 2 for v in values) / n) ** 0.5


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


def check_bounds(bounds: Bounds) -> None:
    """Raises a ValueError unless ``bounds`` has at least one dimension and
    each (low, high) pair is finite with low <= high (a zero width is fine)."""
    if not bounds:
        raise ValueError("bounds must have at least one dimension")
    for i, (lo, hi) in enumerate(bounds):
        if not (isfinite(lo) and isfinite(hi) and lo <= hi):
            raise ValueError(f"bounds[{i}] must be finite with low <= high, got {(lo, hi)!r}")


def random_population(size: int, bounds: Bounds, rng: random.Random) -> list[Individual]:
    """Uniform random population within the box, costs unset."""
    check_fields({"size": size}, {"size": 1})
    check_bounds(bounds)
    return [Individual(random_position(bounds, rng)) for _ in range(size)]


def evaluate_population(pop: list[Individual], obj: BudgetedObjective) -> list[Individual]:
    """Fill in costs for members that do not have one yet, as one batch."""
    pending = [m for m in pop if m.cost is None]
    values = obj.evaluate_many([m.position for m in pending])
    for m, value in zip(pending, values):
        m.cost = value
    if len(values) < len(pending):
        raise BudgetExhausted(f"evaluation budget of {obj.cap} exhausted")
    return pop
