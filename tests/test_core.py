import math

import pytest
from hypothesis import example, given, settings

from chmopt import (
    BudgetExhausted,
    BudgetedObjective,
    Individual,
    NonFiniteValue,
    Population,
    SeededRng,
    clamp_to_bounds,
    euclidean_distance,
    evaluate_population,
    fitness,
    mix_seed,
    random_population,
)
from chmopt.benchmarks import ackley02, matyas

from conftest import TableObjective, evaluation_batches, sequential_evaluations, sphere


class TestFitness:
    def test_absolute_difference(self):
        assert fitness(5.0, 3.0) == 2.0

    def test_identity(self):
        assert fitness(-200.0, -200.0) == 0.0

    def test_ackley02_reference_gap(self):
        # the reference value comes out of the formula itself, not a constant
        reference = ackley02((0.0, 0.0))
        assert reference == -200.0
        assert fitness(-197.0, reference) == 3.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fitness(float("nan"), 0.0)
        with pytest.raises(ValueError):
            fitness(0.0, float("inf"))

    def test_symmetry_and_triangle(self):
        rng = SeededRng(3)
        for _ in range(200):
            a, b, c = (rng.uniform(-50, 50) for _ in range(3))
            assert fitness(a, b) == fitness(b, a)
            assert fitness(a, c) <= fitness(a, b) + fitness(b, c) + 1e-12


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance((3.0, 4.0), (0.0, 0.0)) == 5.0

    def test_identity(self):
        assert euclidean_distance((1.0, 1.0), (1.0, 1.0)) == 0.0

    def test_schaffer_offset(self):
        assert euclidean_distance((0.0, 1.253115), (0.0, 0.0)) == pytest.approx(1.253115)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance((1.0,), (1.0, 2.0))


class TestBudgetedObjective:
    def test_cap_three_fourth_call_raises(self):
        obj = BudgetedObjective(sphere, 3)
        for _ in range(3):
            obj.evaluate([1.0])
        with pytest.raises(BudgetExhausted):
            obj.evaluate([1.0])
        assert obj.used == 3

    def test_initial_state(self):
        obj = BudgetedObjective(sphere, 100)
        assert obj.used == 0
        assert obj.remaining == 100

    def test_matyas_origin(self):
        obj = BudgetedObjective(matyas, 10)
        assert obj.evaluate((0.0, 0.0)) == 0.0
        assert obj.used == 1

    def test_counts_every_successful_call(self):
        rng = SeededRng(5)
        for _ in range(30):
            cap = rng.randrange(0, 12)
            calls = rng.randrange(0, 20)
            obj = BudgetedObjective(sphere, cap)
            succeeded = 0
            for _ in range(calls):
                try:
                    obj.evaluate([rng.random()])
                    succeeded += 1
                except BudgetExhausted:
                    pass
            assert obj.used == succeeded == min(calls, cap)

    def test_non_finite_value_raises(self):
        obj = BudgetedObjective(lambda x: float("nan"), 5)
        with pytest.raises(NonFiniteValue):
            obj.evaluate([0.0])

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            BudgetedObjective(sphere, -1)


@settings(max_examples=300, deadline=None)
@given(evaluation_batches())
@example(([1.0, 2.0, 3.0, 4.0], 2, 0))  # the cap is hit mid-batch
@example(([1.0, math.nan, 3.0], 5, 1))  # a non-finite value mid-batch
@example(([2.0, 1.0, math.inf], 6, 4))  # the cap falls before a non-finite value
@example(([], 3, 0))  # an empty batch
@example(([1.0, 2.0], 2, 2))  # no budget left
def test_evaluate_many_matches_sequential_loop(case):
    values, cap, spent = case
    points = [[i] for i in range(len(values))]
    for batched in (False, True):
        table = TableObjective(values)
        fn = table if batched else table.__call__
        expected_obj, obj = BudgetedObjective(fn, cap), BudgetedObjective(fn, cap)
        expected_obj.used = obj.used = spent
        expected, failure = sequential_evaluations(expected_obj.evaluate, points)
        try:
            got = obj.evaluate_many(points)
        except NonFiniteValue as exc:
            assert (exc.position, repr(exc.value)) == failure
        else:
            assert failure is None and got == expected
        assert obj.used == expected_obj.used
        if batched:  # one call with the affordable prefix, none when it is empty
            prefix = list(range(min(len(values), cap - spent)))
            assert table.batches == ([prefix] if prefix else [])


class TestClamp:
    def test_upper(self):
        assert clamp_to_bounds((3.0,), [(-2.0, 2.0)]) == [2.0]

    def test_interior_fixed_point(self):
        assert clamp_to_bounds((0.5,), [(-2.0, 2.0)]) == [0.5]

    def test_both_ends(self):
        assert clamp_to_bounds((-9.0, 9.0), [(-2.0, 2.0), (-2.0, 2.0)]) == [-2.0, 2.0]

    def test_idempotent(self):
        rng = SeededRng(11)
        bounds = [(-3.0, 1.0), (0.0, 5.0), (-1.0, -0.5)]
        for _ in range(100):
            x = [rng.uniform(-10, 10) for _ in range(3)]
            once = clamp_to_bounds(x, bounds)
            assert clamp_to_bounds(once, bounds) == once
            for v, (lo, hi) in zip(once, bounds):
                assert lo <= v <= hi


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = [SeededRng(99).random() for _ in range(5)]
        b = [SeededRng(99).random() for _ in range(5)]
        assert a == b

    def test_derive_is_stable_and_distinct(self):
        root = SeededRng(4)
        assert root.derive("x", 1).random() == SeededRng(4).derive("x", 1).random()
        assert root.derive("x", 1).seed_value != root.derive("x", 2).seed_value
        assert root.derive("x").seed_value != root.derive("y").seed_value

    def test_mix_seed_stable(self):
        assert mix_seed(1, "f", "m", 0) == mix_seed(1, "f", "m", 0)
        assert mix_seed(1, "f", "m", 0) != mix_seed(2, "f", "m", 0)


class TestPopulation:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            Population([Individual([1.0]), Individual([1.0, 2.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Population([])

    def test_copy_is_bit_exact_and_independent(self):
        rng = SeededRng(2)
        pop = random_population(8, [(-5.0, 5.0)] * 3, rng)
        evaluate_population(pop, BudgetedObjective(sphere, 8))
        twin = pop.copy()
        assert [m.position for m in twin] == [m.position for m in pop]
        assert [m.cost for m in twin] == [m.cost for m in pop]
        twin.members[0].position[0] = 123.0
        assert pop.members[0].position[0] != 123.0

    def test_best_requires_costs(self):
        pop = random_population(3, [(-1.0, 1.0)], SeededRng(0))
        with pytest.raises(ValueError):
            pop.best()

    def test_random_population_within_bounds(self):
        bounds = [(-2.0, -1.0), (3.0, 7.0)]
        pop = random_population(50, bounds, SeededRng(8))
        for m in pop:
            for v, (lo, hi) in zip(m.position, bounds):
                assert lo <= v <= hi

    def test_evaluate_population_fills_what_the_budget_allows(self):
        pop = Population([Individual([float(i)]) for i in range(4)])
        with pytest.raises(BudgetExhausted):
            evaluate_population(pop, BudgetedObjective(sphere, 2))
        assert [m.cost for m in pop] == [0.0, 1.0, None, None]

    def test_evaluate_population_fills_missing_only(self):
        pop = Population([Individual([1.0], cost=5.0), Individual([2.0])])
        calls = []

        def fn(x):
            calls.append(list(x))
            return sphere(x)

        evaluate_population(pop, BudgetedObjective(fn, 10))
        assert calls == [[2.0]]
        assert pop.members[0].cost == 5.0
        assert pop.members[1].cost == 4.0


def test_deterministic_trajectories_same_seed():
    # identical seed and configuration: identical population trajectory
    from chmopt import make_optimizer

    bounds = [(-4.0, 4.0)] * 2
    results = []
    for _ in range(2):
        rng = SeededRng(31)
        pop = random_population(10, bounds, rng.derive("init"))
        evaluate_population(pop, BudgetedObjective(sphere, 10))
        out = make_optimizer("de").run(pop, BudgetedObjective(sphere, 150),
                                       bounds, rng.derive("run"))
        results.append([tuple(m.position) for m in out])
    assert results[0] == results[1]
