import contextlib
import hashlib
import math
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chmopt.benchmarks import get_benchmark
from chmopt.core import (
    BudgetedObjective,
    Individual,
    NonFiniteValue,
    SeededRng,
    best_of,
    evaluate_population,
    random_population,
)
from chmopt.chm import chm_run
from chmopt.harness import ExperimentPlan, run_cell, run_method
from chmopt.optimizers import (
    OPTIMIZER_CLASSES,
    OPTIMIZER_NAMES,
    BacterialForaging,
    DifferentialEvolution,
    GeneticAlgorithm,
    ParticleSwarm,
    SimulatedAnnealing,
    _lowest_of_sample,
    bfo_reproduce,
    default_portfolio,
    make_optimizer,
    sa_accept,
)

from conftest import (TableObjective, evaluation_batches, quiet_config, sequential_evaluations,
                      sphere)
from optimizer_reference import (REFERENCE_CLASSES, blend_crossover, pso_velocity_update,
                                 tumble_direction)


def evaluated_population(size, bounds, seed, fn=sphere):
    pop = random_population(size, bounds, SeededRng(seed))
    evaluate_population(pop, BudgetedObjective(fn, size))
    return pop


class TestPsoVelocityUpdate:
    def test_stationary_at_consensus(self):
        swarm = ParticleSwarm()
        x = (1.0, 2.0)
        assert pso_velocity_update((0.0, 0.0), x, x, x, swarm, 0.3, 0.7) == [0.0, 0.0]

    def test_pure_inertia_decay(self):
        swarm = ParticleSwarm(inertia=0.5)
        x = (0.0, 0.0)
        assert pso_velocity_update((2.0, 0.0), x, x, x, swarm, 0.9, 0.9) == [1.0, 0.0]

    def test_attraction_sum(self):
        swarm = ParticleSwarm(inertia=0.5, cognitive=1.0, social=1.0)
        v = pso_velocity_update((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                swarm, 1.0, 1.0)
        assert v == [1.0, 1.0]

    def test_velocity_clipping(self):
        swarm = ParticleSwarm(inertia=0.9, cognitive=2.0, social=2.0)
        v = pso_velocity_update((0.0,), (0.0,), (10.0,), (10.0,), swarm,
                                1.0, 1.0, v_max=(3.0,))
        assert v == [3.0]


class TestSaAccept:
    def test_improving_always_accepted(self):
        assert sa_accept(-1.0, 1e-9, 0.999999)

    def test_half_probability_boundary(self):
        t = 2.0
        delta = t * math.log(2.0)
        assert sa_accept(delta, t, 0.49)
        assert not sa_accept(delta, t, 0.51)

    def test_frozen_system_rejects_worsening(self):
        assert not sa_accept(10.0, 1e-300, 1e-9)


class TestBlendCrossover:
    def test_midpoint(self):
        child = blend_crossover((0.0, 0.0), (1.0, 1.0), (0.5, 0.5))
        assert child == [0.5, 0.5]

    def test_extrapolation_range(self):
        child = blend_crossover((0.0,), (1.0,), (1.5,))
        assert child == [1.5]


class TestBfoHelpers:
    def test_tumble_direction_unit_norm(self):
        rng = SeededRng(0)
        for dim in (1, 2, 5):
            d = tumble_direction(rng, dim)
            assert math.sqrt(sum(v * v for v in d)) == pytest.approx(1.0)

    def test_reproduction_duplicates_better_half(self):
        members = [Individual([float(i)], cost=c) for i, c in enumerate([1.0, 2.0, 3.0, 4.0])]
        after = bfo_reproduce(members)
        assert sorted(m.cost for m in after) == [1.0, 1.0, 2.0, 2.0]
        assert len(after) == 4

    def test_reproduction_odd_population_keeps_middle(self):
        members = [Individual([0.0], cost=c) for c in [5.0, 1.0, 3.0]]
        after = bfo_reproduce(members)
        assert sorted(m.cost for m in after) == [1.0, 1.0, 3.0]

    def test_zero_dispersal_probability_disperses_nobody(self):
        opt = make_optimizer("bfo", dispersal_probability=0.0)
        members = [Individual([0.5, 0.5], cost=0.5) for _ in range(6)]
        obj = BudgetedObjective(sphere, 100)
        count = opt._disperse(members, obj, [(-1.0, 1.0)] * 2, SeededRng(3))
        assert count == 0
        assert obj.used == 0

    def test_full_dispersal_replaces_everyone(self):
        opt = make_optimizer("bfo", dispersal_probability=1.0)
        members = [Individual([0.5, 0.5], cost=0.5) for _ in range(6)]
        obj = BudgetedObjective(sphere, 100)
        count = opt._disperse(members, obj, [(-1.0, 1.0)] * 2, SeededRng(3))
        assert count == 6
        assert obj.used == 6


@contextlib.contextmanager
def deadline(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class PlainTable:
    """A TableObjective without ``evaluate_many``: called point by point."""

    def __init__(self, values):
        self.values = values

    def __call__(self, x):
        return self.values[x[0]]


@settings(max_examples=300, deadline=None)
@given(evaluation_batches(), st.floats(-1e6, 1e6), st.sampled_from([TableObjective, PlainTable]))
@example(([3.0, -1.0, -2.0, -5.0], 3, 0), 0.0, TableObjective)  # the cap mid-batch
@example(([-1.0, math.nan, -9.0], 5, 0), 0.0, TableObjective)  # non-finite after a best
@example(([-1.0, math.nan, -9.0], 5, 0), 0.0, PlainTable)
@example(([-2.0, -2.0], 2, 0), 0.0, TableObjective)  # a tie keeps the first point
@example(([], 2, 0), 0.0, TableObjective)
@example(([-4.0], 1, 1), 0.0, TableObjective)
def test_evaluate_many_records_the_best_as_a_loop_of_evaluate(case, start_cost, table):
    values, cap, spent = case
    points = [[i] for i in range(len(values))]
    expected_obj = BudgetedObjective(table(values), cap)
    obj = BudgetedObjective(table(values), cap)
    for o in (expected_obj, obj):
        o.used = spent
        o.best_cost, o.best_position = start_cost, [-1]
    expected, failure = sequential_evaluations(expected_obj.evaluate, points)
    try:
        got = obj.evaluate_many(points)
    except NonFiniteValue as exc:
        assert (exc.position, repr(exc.value)) == failure
    else:
        assert failure is None and got == expected
    assert (obj.used, obj.best_cost, obj.best_position) == (
        expected_obj.used, expected_obj.best_cost, expected_obj.best_position)


@pytest.mark.parametrize("kind", OPTIMIZER_NAMES)
def test_run_starts_the_best_at_the_incoming_population(kind):
    """A point the objective evaluated before ``run`` cannot enter its result."""
    def far_better_outside_the_box(x):
        return -1e9 if x == [7.0, 7.0] else sphere(x)

    bounds = [(-1.0, 1.0)] * 2
    pop = evaluated_population(6, bounds, 40)
    used = BudgetedObjective(far_better_outside_the_box, 61)
    used.evaluate([7.0, 7.0])
    fresh = BudgetedObjective(far_better_outside_the_box, 60)
    outs = [make_optimizer(kind).run(pop, obj, bounds, SeededRng(41)) for obj in (used, fresh)]
    assert [(m.position, m.cost) for m in outs[0]] == [(m.position, m.cost) for m in outs[1]]
    assert used.used == used.cap and best_of(outs[0]).cost >= 0.0


class TestGaBehaviour:
    def test_identity_generation(self):
        bounds = [(-5.0, 5.0)] * 2
        pop = evaluated_population(6, bounds, 1)
        opt = make_optimizer("ga", mutation_rate=0.0, crossover_rate=0.0, elitism=6)
        out = opt.run(pop, BudgetedObjective(sphere, 100), bounds, SeededRng(2))
        assert sorted(tuple(m.position) for m in out) == sorted(tuple(m.position) for m in pop)

    def test_two_member_tournament_prefers_better(self):
        bounds = [(-5.0, 5.0)]
        pop = [Individual([2.0], cost=4.0), Individual([1.0], cost=1.0)]
        opt = make_optimizer("ga", mutation_rate=0.0, crossover_rate=0.0, elitism=0)
        out = opt.run(pop, BudgetedObjective(sphere, 100), bounds, SeededRng(5))
        # without crossover or mutation every child is the tournament winner
        assert all(m.position == [1.0] for m in out)

    @pytest.mark.parametrize("overrides, collapsed", [
        (dict(mutation_rate=0.0), True),
        (dict(mutation_rate=0.0, crossover_rate=0.0), False),
        (dict(elitism=6), False),
    ])
    def test_run_without_new_points_terminates(self, overrides, collapsed):
        bounds = [(-5.0, 5.0)] * 2
        pop = evaluated_population(6, bounds, 4)
        if collapsed:
            pop = [best_of(pop).copy() for _ in range(6)]
        obj = BudgetedObjective(sphere, 200)
        with deadline(10):
            out = make_optimizer("ga", **overrides).run(pop, obj, bounds, SeededRng(9))
        assert best_of(out).cost <= best_of(pop).cost
        assert obj.used <= 200

    def test_member_outside_the_box_is_not_stalled(self):
        # with nothing mutating, clamping still moves a member outside the box,
        # so a later generation can evaluate a new point
        opt = make_optimizer("ga", mutation_rate=0.0)
        members = [Individual([9.0, 0.0], cost=81.0), Individual([1.0, 1.0], cost=2.0),
                   Individual([1.0, 1.0], cost=2.0)]
        assert not opt._stalled(members, [(-5.0, 5.0)] * 2)
        assert opt._stalled(members[1:], [(-5.0, 5.0)] * 2)

    def test_tiny_mutation_without_crossover_terminates(self):
        # no child differs from its parent, so no generation evaluates: the run
        # stops once it has drawn as many children in a row as the budget has left
        bounds = [(-5.0, 5.0)] * 2
        pop = evaluated_population(6, bounds, 4)
        obj = BudgetedObjective(sphere, 100)
        opt = make_optimizer("ga", mutation_rate=1e-300, crossover_rate=0.0)
        with deadline(10):
            out = opt.run(pop, obj, bounds, SeededRng(9))
        assert obj.used == 0
        assert best_of(out).cost <= best_of(pop).cost

    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 8), collapsed=st.booleans(),
           tournament_size=st.integers(2, 9), elitism=st.integers(0, 9),
           crossover_rate=st.sampled_from([0.0, 0.5, 1.0]),
           mutation_rate=st.sampled_from([0.0, 1e-300, 0.3, None]),
           budget=st.integers(0, 80), seed=st.integers(0, 2 ** 32))
    def test_any_params_terminate_within_budget_and_elitist(
            self, size, collapsed, tournament_size, elitism, crossover_rate,
            mutation_rate, budget, seed):
        bounds = [(-5.0, 5.0)] * 2
        pop = evaluated_population(size, bounds, seed)
        if collapsed:
            pop = [best_of(pop).copy() for _ in range(size)]
        opt = make_optimizer("ga", tournament_size=tournament_size, elitism=elitism,
                             crossover_rate=crossover_rate, mutation_rate=mutation_rate)
        obj = BudgetedObjective(sphere, budget)
        with deadline(10):
            out = opt.run(pop, obj, bounds, SeededRng(seed))
        assert obj.used <= budget
        assert len(out) == size
        assert best_of(out).cost <= best_of(pop).cost

    def test_plan_override_without_new_points_terminates(self):
        plan = ExperimentPlan(functions=("matyas",), methods=("ga",), repetitions=1,
                              budget_override=(30, 60), population_size=6, iterations=2,
                              optimizer_overrides={"ga": {"mutation_rate": 0.0,
                                                          "crossover_rate": 0.0}})
        with deadline(10):
            record, _ = run_cell(plan, "matyas", "ga", 0)
        assert record.fe_used == 6

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(tournament_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithm(crossover_rate=1.5)


class TestParamValidation:
    def test_pso(self):
        with pytest.raises(ValueError):
            ParticleSwarm(inertia=1.5)
        with pytest.raises(ValueError):
            ParticleSwarm(cognitive=0.0)

    def test_sa(self):
        with pytest.raises(ValueError):
            SimulatedAnnealing(cooling=1.0)
        with pytest.raises(ValueError):
            SimulatedAnnealing(t0=-1.0)

    def test_de(self):
        with pytest.raises(ValueError):
            DifferentialEvolution(weight=0.0)

    def test_bfo(self):
        with pytest.raises(ValueError):
            BacterialForaging(chemotaxis_steps=0)
        with pytest.raises(ValueError):
            BacterialForaging(dispersal_probability=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_optimizer("cmaes")

    @pytest.mark.parametrize("kind, field, value, message", [
        ("bfo", "chemotaxis_steps", 2.5, "chemotaxis_steps must be an integer >= 1"),
        ("bfo", "swim_length", True, "swim_length must be an integer >= 1"),
        ("ga", "tournament_size", 2.5, "tournament_size must be an integer >= 2"),
        ("ga", "elitism", -1, "elitism must be an integer >= 0"),
        ("sa", "step_fraction", "x", "step_fraction must be a finite number"),
        ("sa", "t0", float("inf"), "t0 must be a finite number"),
        ("pso", "inertia", True, "inertia must be a finite number"),
        ("de", "weight", None, "weight must be a finite number"),
        ("ga", "mutation_rate", float("nan"), "mutation_rate must be a finite number"),
        ("pso", "v_max_fraction", -1.0, "v_max_fraction must be a finite number in (0, inf), got -1.0"),
        ("pso", "v_max_fraction", 0.0, "v_max_fraction must be a finite number in (0, inf), got 0.0"),
        ("sa", "step_fraction", 0.0, "step_fraction must be a finite number in (0, inf), got 0.0"),
        ("bfo", "step_fraction", -0.1, "step_fraction must be a finite number in (0, inf), got -0.1"),
        ("ga", "mutation_sigma_fraction", 0.0,
         "mutation_sigma_fraction must be a finite number in (0, inf), got 0.0"),
        ("ga", "blend_alpha", -0.5, "blend_alpha must be a finite number in [0, inf), got -0.5"),
        ("de", "strategy", "rand/1/bin", "strategy"),
        ("pso", "social", 0.0, "social must be a finite number in (0, inf), got 0.0"),
        ("pso", "inertia", 1.0, "inertia must be a finite number in (0, 1), got 1.0"),
        ("de", "weight", 2.5, "weight must be a finite number in (0, 2], got 2.5"),
        ("bfo", "dispersal_probability", 1.5,
         "dispersal_probability must be a finite number in [0, 1], got 1.5"),
        ("sa", "t0", 10 ** 400, "t0 must be a finite number in (0, inf), got " + str(10 ** 400)),
    ])
    def test_bad_field_rejected(self, kind, field, value, message):
        with pytest.raises((TypeError, ValueError), match=re.escape(message)):
            make_optimizer(kind, **{field: value})

    def test_optional_fields_and_edges_accepted(self):
        make_optimizer("sa", t0=None)
        make_optimizer("ga", mutation_rate=None, blend_alpha=0.0, elitism=0)
        make_optimizer("pso", v_max_fraction=1)


@pytest.mark.parametrize("overrides", [
    {"psoo": {}}, {"PSO": {}}, {"pso": {"inertia": 2.0}}, {"pso": {"bogus": 1}},
    {"pso": 0.5}, ["pso"]])
def test_portfolio_rejects_overrides_as_a_plan_does(overrides):
    with pytest.raises(ValueError) as from_plan:
        ExperimentPlan(functions=("matyas",), optimizer_overrides=overrides)
    with pytest.raises(ValueError) as from_portfolio:
        default_portfolio(overrides)
    assert str(from_portfolio.value) == str(from_plan.value)
    assert str(from_portfolio.value).startswith("optimizer_overrides")


def test_portfolio_applies_overrides_in_fixed_order():
    portfolio = default_portfolio({"de": {"weight": 0.7}})
    assert [opt.name for opt in portfolio] == list(OPTIMIZER_NAMES)
    assert portfolio[OPTIMIZER_NAMES.index("de")] == DifferentialEvolution(weight=0.7)
    assert default_portfolio(None) == default_portfolio({}) == default_portfolio()


@pytest.mark.parametrize("kind", OPTIMIZER_NAMES)
class TestRunContracts:
    bounds = [(-4.0, 4.0)] * 2

    def test_already_at_optimum_stays(self, kind):
        pop = [Individual([0.0, 0.0], cost=0.0) for _ in range(6)]
        out = make_optimizer(kind).run(pop, BudgetedObjective(sphere, 120),
                                       self.bounds, SeededRng(1))
        assert best_of(out).cost == 0.0

    def test_used_equals_cap_when_budget_small(self, kind):
        pop = evaluated_population(8, self.bounds, 2)
        obj = BudgetedObjective(sphere, 8)
        make_optimizer(kind).run(pop, obj, self.bounds, SeededRng(3))
        assert obj.used == obj.cap

    def test_bounds_of_another_dimension_rejected(self, kind):
        pop = evaluated_population(5, self.bounds, 4)
        # every member is checked, not only the first
        ragged = pop[:-1] + [Individual([1.0, 1.0, 1.0], cost=3.0)]
        cases = [(pop, self.bounds[:1], "dimension mismatch: 2 vs 1 bounds"),
                 (pop, self.bounds * 2, "dimension mismatch: 2 vs 4 bounds"),
                 (ragged, self.bounds, "dimension mismatch: 3 vs 2 bounds"),
                 ([], self.bounds, "population cannot be empty")]
        for members, bounds, message in cases:
            for cap in (10, 0):  # also before the zero-budget return
                with pytest.raises(ValueError, match=f"^{message}$"):
                    make_optimizer(kind).run(members, BudgetedObjective(sphere, cap), bounds,
                                             SeededRng(5))

    def test_unevaluated_population_rejected(self, kind):
        pop = random_population(5, self.bounds, SeededRng(4))
        with pytest.raises(ValueError, match="evaluated incoming population"):
            make_optimizer(kind).run(pop, BudgetedObjective(sphere, 10), self.bounds,
                                     SeededRng(5))

    def test_zero_budget_returns_population_unchanged(self, kind):
        pop = evaluated_population(5, self.bounds, 4)
        out = make_optimizer(kind).run(pop, BudgetedObjective(sphere, 0),
                                       self.bounds, SeededRng(5))
        assert [m.position for m in out] == [m.position for m in pop]
        assert [m.cost for m in out] == [m.cost for m in pop]

    def test_elitism_over_seeds_and_functions(self, kind):
        for name in ("matyas", "rastrigin", "rosenbrock"):
            spec = get_benchmark(name)
            for seed in range(10):
                pop = random_population(6, spec.bounds, SeededRng(seed))
                evaluate_population(pop, BudgetedObjective(spec.formula, 6))
                before = best_of(pop).cost
                obj = BudgetedObjective(spec.formula, 90)
                out = make_optimizer(kind).run(pop, obj, spec.bounds,
                                               SeededRng(seed + 1000))
                assert best_of(out).cost <= before
                assert obj.used <= obj.cap
                assert len(out) == len(pop)

    def test_outputs_within_bounds(self, kind):
        spec = get_benchmark("eggcrate")
        pop = random_population(7, spec.bounds, SeededRng(9))
        evaluate_population(pop, BudgetedObjective(spec.formula, 7))
        out = make_optimizer(kind).run(pop, BudgetedObjective(spec.formula, 150),
                                       spec.bounds, SeededRng(10))
        for m in out:
            for v, (lo, hi) in zip(m.position, spec.bounds):
                assert lo <= v <= hi

    def test_deterministic_given_seed(self, kind):
        outs = []
        for _ in range(2):
            pop = evaluated_population(6, self.bounds, 21)
            out = make_optimizer(kind).run(pop, BudgetedObjective(sphere, 100),
                                           self.bounds, SeededRng(22))
            outs.append([(tuple(m.position), m.cost) for m in out])
        assert outs[0] == outs[1]

    def test_input_population_not_mutated(self, kind):
        pop = evaluated_population(6, self.bounds, 30)
        snapshot = [(tuple(m.position), m.cost) for m in pop]
        make_optimizer(kind).run(pop, BudgetedObjective(sphere, 80),
                                 self.bounds, SeededRng(31))
        assert [(tuple(m.position), m.cost) for m in pop] == snapshot


@pytest.mark.parametrize("entry", [*OPTIMIZER_NAMES, "chm_run", "run_method"])
def test_bounds_with_no_dimension_rejected(entry):
    # with no dimension DE's j_rand redraw and BFO's tumble never ended, GA
    # divided by zero, and chm_run evaluated empty points before it failed
    calls = []

    def fn(x):
        calls.append(list(x))
        return 0.0

    with deadline(5), pytest.raises(ValueError,
                                    match="^bounds must have at least one dimension$"):
        if entry == "chm_run":
            chm_run(quiet_config(), fn, [], 1)
        elif entry == "run_method":
            run_method("de", fn, [], 1, quiet_config())
        else:
            pop = [Individual([], cost=0.0) for _ in range(4)]
            make_optimizer(entry).run(pop, BudgetedObjective(fn, 50), [], SeededRng(1))
    assert calls == []


@pytest.mark.parametrize("bounds", [[(1.0, 0.0)], [(0.0, math.inf)], [(math.nan, 1.0)],
                                    [(0.0, 1.0), (1.0, 0.0)]],
                         ids=["reversed", "high_inf", "low_nan", "second_reversed"])
@pytest.mark.parametrize("entry", [*OPTIMIZER_NAMES, "chm_run", "run_method"])
def test_bounds_reversed_or_not_finite_rejected(entry, bounds):
    # a reversed box sent every clamped move to one end, and a box with a
    # non-finite end made the first evaluation fail as if the objective had
    calls = []

    def fn(x):
        calls.append(list(x))
        return 0.0

    index = len(bounds) - 1
    message = f"bounds[{index}] must be finite with low <= high, got {bounds[index]!r}"
    with deadline(5), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if entry == "chm_run":
            chm_run(quiet_config(), fn, bounds, 1)
        elif entry == "run_method":
            run_method("de", fn, bounds, 1, quiet_config())
        else:
            pop = [Individual([0.5] * len(bounds), cost=0.0) for _ in range(4)]
            make_optimizer(entry).run(pop, BudgetedObjective(fn, 50), bounds, SeededRng(1))
    assert calls == []


@pytest.mark.parametrize("entry", [*OPTIMIZER_NAMES, "chm_run"])
def test_zero_width_dimension_accepted(entry):
    bounds = [(1.0, 1.0), (-1.0, 1.0)]
    if entry == "chm_run":
        best, _ = chm_run(quiet_config(), sphere, bounds, 1)
        assert best.position[0] == 1.0
    else:
        out = make_optimizer(entry).run(evaluated_population(6, bounds, 5),
                                        BudgetedObjective(sphere, 60), bounds, SeededRng(6))
        assert all(m.position[0] == 1.0 for m in out)


def _open_unit(**kw):
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, **kw)


# every field drawn inside the range its params record accepts
PARAM_STRATEGIES = {
    "pso": st.fixed_dictionaries(dict(
        inertia=_open_unit(), cognitive=st.floats(0.0, 4.0, exclude_min=True),
        social=st.floats(0.0, 4.0, exclude_min=True),
        v_max_fraction=st.floats(0.0, 1.0, exclude_min=True))),
    "sa": st.fixed_dictionaries(dict(
        cooling=_open_unit(), step_fraction=st.floats(0.0, 0.5, exclude_min=True),
        t0=st.none() | st.floats(0.0, 100.0, exclude_min=True),
        t0_floor=st.floats(0.0, 1.0, exclude_min=True))),
    "de": st.fixed_dictionaries(dict(
        weight=st.floats(0.0, 2.0, exclude_min=True),
        crossover_rate=st.floats(0.0, 1.0))),
    "bfo": st.fixed_dictionaries(dict(
        chemotaxis_steps=st.integers(1, 4), swim_length=st.integers(1, 4),
        reproduction_steps=st.integers(1, 3),
        elimination_dispersal_steps=st.integers(1, 2),
        dispersal_probability=st.floats(0.0, 1.0),
        step_fraction=st.floats(0.0, 0.2, exclude_min=True))),
}


@pytest.mark.parametrize("kind", sorted(PARAM_STRATEGIES))
@settings(max_examples=75, deadline=None)
@given(data=st.data(), size=st.integers(1, 8), collapsed=st.booleans(),
       budget=st.integers(0, 80), seed=st.integers(0, 2 ** 32))
def test_any_params_keep_run_contracts(kind, data, size, collapsed, budget, seed):
    bounds = [(-5.0, 5.0)] * 2
    pop = evaluated_population(size, bounds, seed)
    if collapsed:
        pop = [best_of(pop).copy() for _ in range(size)]
    snapshot = [(tuple(m.position), m.cost) for m in pop]
    opt = make_optimizer(kind, **data.draw(PARAM_STRATEGIES[kind]))
    obj = BudgetedObjective(sphere, budget)
    with deadline(10):
        out = opt.run(pop, obj, bounds, SeededRng(seed))
    assert obj.used <= budget
    assert len(out) == size
    assert best_of(out).cost <= best_of(pop).cost
    for m in out:
        assert all(lo <= v <= hi for v, (lo, hi) in zip(m.position, bounds))
        assert m.cost == sphere(m.position)
    assert [(tuple(m.position), m.cost) for m in pop] == snapshot


def test_sa_rejects_zero_temperature_floor():
    # a zero floor on a collapsed population gives temperature 0 and a
    # division by zero in the Metropolis rule
    with pytest.raises(ValueError):
        SimulatedAnnealing(t0_floor=0.0)


def test_de_regression_anchor_on_matyas():
    # frozen-seed anchor: DE, population 20, cap 600 on matyas
    spec = get_benchmark("matyas")
    rng = SeededRng(42)
    pop = random_population(20, spec.bounds, rng.derive("init"))
    evaluate_population(pop, BudgetedObjective(spec.formula, 20))
    obj = BudgetedObjective(spec.formula, 600)
    out = make_optimizer("de").run(pop, obj, spec.bounds, rng.derive("run"))
    best_fitness = abs(best_of(out).cost - spec.reference_value)
    assert best_fitness < 1e-3
    assert best_of(out).cost == pytest.approx(3.291408095344954e-09, rel=1e-9)
    assert obj.used == 600


def test_population_transfer_round_trip():
    # export -> import preserves positions bit-exactly and order
    pop = evaluated_population(9, [(-2.0, 2.0)] * 2, 77)
    transferred = [m.copy() for m in pop]
    assert [m.position for m in transferred] == [m.position for m in pop]
    assert [m.cost for m in transferred] == [m.cost for m in pop]


def test_all_optimizers_bit_exact_pin():
    # frozen-seed anchor for every method: positions, costs and evaluations
    # used over a grid that includes a single member, a zero budget and a
    # budget smaller than the population
    digest = hashlib.sha256()
    for name in ("matyas", "rastrigin", "rosenbrock", "ackley02", "eggcrate", "bird"):
        spec = get_benchmark(name)
        for kind in OPTIMIZER_NAMES:
            for seed in range(3):
                for size, cap in ((1, 7), (3, 40), (8, 0), (8, 5), (12, 150)):
                    pop = random_population(size, spec.bounds, SeededRng(seed))
                    evaluate_population(pop, BudgetedObjective(spec.formula, size))
                    obj = BudgetedObjective(spec.formula, cap)
                    out = make_optimizer(kind).run(pop, obj, spec.bounds,
                                                   SeededRng(seed + 100))
                    digest.update(repr(([(m.position, m.cost) for m in out],
                                        obj.used)).encode())
    assert digest.hexdigest() == "f8ff4b4a9e958ce534cbf8f5e3d84237b9f017849773b1c5ea1e6d4cfef39f92"


def test_large_population_bit_exact_pin():
    # frozen-seed anchor for the draw paths the pin above never reaches: GA
    # tournaments over populations past 21 (random.sample's rejection path)
    # and of more than 5 picks, and DE's three-member choice path. The digest
    # was recorded while the tournament still called random.sample.
    digest = hashlib.sha256()
    for name in ("matyas", "rastrigin", "ackley02", "bird"):
        spec = get_benchmark(name)
        for seed in range(2):
            cases = [("ga", dict(tournament_size=t), size, 6 * size)
                     for size in (22, 40) for t in (2, 3, 7)]
            cases += [("de", {}, 3, 60), ("de", {}, 30, 300)]
            for kind, overrides, size, cap in cases:
                pop = random_population(size, spec.bounds, SeededRng(seed))
                evaluate_population(pop, BudgetedObjective(spec.formula, size))
                obj = BudgetedObjective(spec.formula, cap)
                out = make_optimizer(kind, **overrides).run(pop, obj, spec.bounds,
                                                            SeededRng(seed + 100))
                digest.update(repr(([(m.position, m.cost) for m in out],
                                    obj.used)).encode())
    assert digest.hexdigest() == "49b8a52742c9a6ef3a7626a347039fd217234ab747da9d12b3601757cb014d1d"


@st.composite
def sample_shapes(draw):
    """(n, k): k of n indices, as many as a tournament over n members picks."""
    n = draw(st.integers(1, 64))
    return n, draw(st.integers(1, min(n, 10)))


@settings(max_examples=400, deadline=None)
@given(shape=sample_shapes(), seed=st.integers(0, 2 ** 64))
@example(shape=(20, 2), seed=0)  # the default tournament, from the pool
@example(shape=(21, 5), seed=1)  # the largest pool for up to 5 picks
@example(shape=(22, 2), seed=2)  # the smallest rejection path
@example(shape=(64, 10), seed=3)  # more than 5 picks: the pool again
def test_tournament_draws_match_random_sample(shape, seed):
    # the GA tournament must make the randbelow calls random.sample makes;
    # a CPython release that changes sample fails here
    n, k = shape
    expected_rng, rng = SeededRng(seed), SeededRng(seed)
    expected = min(expected_rng.sample(range(n), k))
    assert _lowest_of_sample(rng.getrandbits, n, k) == expected
    assert rng.getstate() == expected_rng.getstate()


GA_PARAMS = st.fixed_dictionaries(dict(
    tournament_size=st.integers(2, 10), crossover_rate=st.floats(0.0, 1.0),
    blend_alpha=st.floats(0.0, 1.0),
    mutation_rate=st.none() | st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.05, 1.0),
    mutation_sigma_fraction=st.floats(0.0, 0.5, exclude_min=True),
    elitism=st.integers(0, 41)))


class _ProbeObjective:
    """A smooth cost, rounded to one decimal for ties when ``coarse``, that
    returns nan on call number ``poison``."""

    def __init__(self, coarse, poison=None):
        self.coarse = coarse
        self.poison = poison
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls == self.poison:
            return math.nan
        value = sum(v * v - math.cos(3.0 * v) for v in x)
        return round(value, 1) if self.coarse else value


def _library_and_reference(kind, params, pop, bounds, budget, make_rng, gauss_next, objective):
    """The returned population (or the non-finite point that ended the run),
    the evaluations used and the RNG state after the library's loop and after
    the reference loop, each run on a fresh ``make_rng()`` with ``gauss_next``
    set and on a fresh ``objective()``."""
    outcomes = []
    for cls in (OPTIMIZER_CLASSES[kind], REFERENCE_CLASSES[kind]):
        run_rng = make_rng()
        run_rng.gauss_next = gauss_next
        obj = BudgetedObjective(objective(), budget)
        try:
            with deadline(20):
                out = cls(**params).run(pop, obj, bounds, run_rng)
            result = repr([(m.position, m.cost) for m in out])
        except NonFiniteValue as exc:
            result = ("non-finite", repr(exc.position))
        outcomes.append((result, obj.used, repr(run_rng.getstate())))
    return outcomes


@pytest.mark.parametrize("kind", sorted(REFERENCE_CLASSES))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 40), dim=st.integers(1, 8),
       budget=st.integers(0, 200), seed=st.integers(0, 2 ** 32),
       gauss_next=st.none() | st.floats(-4.0, 4.0),
       collapsed=st.booleans(), coarse=st.booleans(),
       poison=st.none() | st.integers(1, 200))
def test_inline_draws_match_reference_loops(kind, data, size, dim, budget, seed, gauss_next,
                                            collapsed, coarse, poison):
    # the hot loops inline CPython's gauss and _randbelow_with_getrandbits;
    # every population, count and RNG state must be what the helpers give,
    # also when a non-finite cost ends the run early
    strategy = GA_PARAMS if kind == "ga" else PARAM_STRATEGIES[kind]
    params = data.draw(strategy)
    init_rng = SeededRng(seed)
    bounds = [(lo, lo + init_rng.uniform(0.5, 20.0))
              for lo in (init_rng.uniform(-10.0, 0.0) for _ in range(dim))]
    pop = evaluated_population(size, bounds, seed + 1, _ProbeObjective(coarse))
    if collapsed:
        pop = [best_of(pop).copy() for _ in range(size)]
    outcomes = _library_and_reference(kind, params, pop, bounds, budget,
                                      lambda: SeededRng(seed + 2), gauss_next,
                                      lambda: _ProbeObjective(coarse, poison))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kind, overrides", [("sa", {}), ("ga", dict(elitism=0, mutation_rate=1.0))])
def test_inline_gauss_keeps_signed_zero(kind, overrides):
    # gauss returns mu + z * sigma: with mu = 0.0 a step of z = -0.0 moves -0.0
    # to 0.0, which a bare z * sigma would not
    pop = [Individual([-0.0], cost=1.0)]
    outcomes = []
    for cls in (OPTIMIZER_CLASSES[kind], REFERENCE_CLASSES[kind]):
        rng = SeededRng(0)
        rng.gauss_next = -0.0
        out = cls(**overrides).run(
            pop, BudgetedObjective(sphere, 1), [(-1.0, 1.0)], rng)
        outcomes.append(repr([(m.position, m.cost) for m in out]))
    assert outcomes[0] == outcomes[1] == "[([0.0], 0.0)]"


# Two-coordinate boxes take the written-out blocks of each loop; the reference
# loops are the general ones. The bounds differ per coordinate, so a block
# that swaps its coordinates' draws, widths or bounds gives other points.
TWO_BOUNDS = [(-5.0, 3.0), (-2.0, 7.5)]


@pytest.mark.parametrize("kind, params, size, budget, gauss_next, collapsed", [
    pytest.param("pso", {}, 20, 300, None, False, id="pso"),
    pytest.param("pso", {}, 10, 120, 0.5, True, id="pso-collapsed-preset"),
    pytest.param("sa", {}, 20, 250, None, False, id="sa-mid-sweep"),
    pytest.param("sa", {}, 20, 300, 0.7, False, id="sa-preset"),
    pytest.param("sa", {}, 7, 100, None, True, id="sa-collapsed"),
    pytest.param("ga", {}, 20, 288, None, False, id="ga-mid-generation"),
    pytest.param("ga", dict(mutation_rate=1.0, crossover_rate=0.0), 20, 300, -1.3, False,
                 id="ga-mutate-all-no-crossover-preset"),
    pytest.param("ga", dict(mutation_rate=1.0, crossover_rate=1.0), 20, 300, None, False,
                 id="ga-mutate-all-crossover-all"),
    pytest.param("ga", dict(crossover_rate=1.0), 10, 200, 0.4, True,
                 id="ga-collapsed-preset"),
    pytest.param("de", {}, 3, 60, None, False, id="de-3"),
    pytest.param("de", {}, 20, 300, 0.9, False, id="de-20-preset"),
    pytest.param("de", dict(crossover_rate=0.0), 8, 100, None, True, id="de-collapsed"),
    pytest.param("bfo", {}, 20, 300, None, False, id="bfo"),
    pytest.param("bfo", {}, 20, 300, 2.1, False, id="bfo-preset"),
    pytest.param("bfo", {}, 6, 97, None, True, id="bfo-collapsed-mid-dispersal"),
])
def test_two_coordinate_blocks_match_reference_loops(kind, params, size, budget, gauss_next,
                                                     collapsed):
    pop = evaluated_population(size, TWO_BOUNDS, 11, _ProbeObjective(False))
    if collapsed:
        pop = [best_of(pop).copy() for _ in range(size)]
    outcomes = _library_and_reference(kind, params, pop, TWO_BOUNDS, budget,
                                      lambda: SeededRng(12), gauss_next,
                                      lambda: _ProbeObjective(False))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == budget


class _ZeroStream(SeededRng):
    """Every ``random()`` is 0.0, so a fresh inline gauss pair is (-0.0, -0.0):
    ``sqrt(-2.0 * log(1.0))`` is -0.0. ``getrandbits`` is defined again only so
    that ``random.Random`` keeps drawing bounded integers from it."""

    def random(self):
        return 0.0

    def getrandbits(self, k):
        return super().getrandbits(k)


@pytest.mark.parametrize("kind, overrides, rng_class, gauss_next", [
    ("sa", {}, _ZeroStream, None),
    ("sa", {}, _ZeroStream, -0.0),
    ("ga", dict(elitism=0, mutation_rate=1.0), _ZeroStream, None),
    ("ga", dict(elitism=0, mutation_rate=1.0), _ZeroStream, -0.0),
    ("bfo", {}, SeededRng, -0.0),  # the held -0.0 is coordinate 0's draw
    ("bfo", {}, _ZeroStream, 0.5),  # the fresh pair's -0.0 is coordinate 1's
])
def test_two_coordinate_gauss_keeps_signed_zero(kind, overrides, rng_class, gauss_next):
    # mu + z * sigma with mu = 0.0 moves -0.0 by a z = -0.0 step to 0.0 in
    # either coordinate; a bare z * sigma would leave -0.0
    pop = [Individual([-0.0, -0.0], cost=1.0)]
    outcomes = _library_and_reference(kind, overrides, pop, [(-1.0, 1.0)] * 2, 1,
                                      lambda: rng_class(0), gauss_next, lambda: sphere)
    assert outcomes[0] == outcomes[1]
    assert "-0.0" not in outcomes[0][0]
    if kind != "bfo":
        assert outcomes[0][0] == "[([0.0, 0.0], 0.0)]"
