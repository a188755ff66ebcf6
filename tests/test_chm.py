import json
import warnings

import pytest

from chmopt import (
    BudgetedObjective,
    ChmConfig,
    EvaluationAborted,
    Individual,
    Population,
    SeededRng,
    check_convergence,
    chm_run,
    evaluate_population,
    get_benchmark,
    make_optimizer,
    probe_all,
    random_population,
    run_segmented,
)
from chmopt.optimizers import InnerOptimizer, _BestTracker

from conftest import best_fitness_history, run_segmented_mirror, sphere


class StubOptimizer(InnerOptimizer):
    """Returns the incoming population with one member replaced by a fixed-cost
    point; optionally burns the whole budget first. Records incoming positions."""

    def __init__(self, name, best_cost=None, burn_budget=False):
        self.name = name
        self.best_cost_value = best_cost
        self.burn_budget = burn_budget
        self.seen = []

    def run(self, pop, obj, bounds, rng):
        self.seen.append([tuple(m.position) for m in pop])
        if obj.remaining <= 0:
            return pop.copy()
        out = pop.copy()
        if self.burn_budget:
            probe = list(out.members[0].position)
            try:
                while True:
                    obj.evaluate(probe)
            except Exception:
                pass
        if self.best_cost_value is not None and self.best_cost_value < out.best_cost():
            out.members[0] = Individual(out.members[0].position, self.best_cost_value)
        return out


class DivergingOptimizer(InnerOptimizer):
    """Worsens every member it can, but plays by the tracker rules."""

    name = "worse"

    def run(self, pop, obj, bounds, rng):
        members = [m.copy() for m in pop.members]
        tracker = _BestTracker(members)
        try:
            for i, m in enumerate(members):
                moved = [min(hi, v + 0.5 * (hi - lo)) for v, (lo, hi) in
                         zip(m.position, bounds)]
                values = tracker.evaluate_many(obj, [moved])
                if not values:
                    break
                members[i] = Individual(moved, values[0])
        except Exception:
            pass
        return tracker.finalize(members)


def quiet_config(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ChmConfig(**kwargs)


BOUNDS = [(1.0, 2.0)] * 2  # keeps sphere costs >= 2 so stub costs below win


class TestCheckConvergence:
    def test_below_epsilon(self):
        assert check_convergence([5.0, 1e-9], 1e-8, 1)

    def test_still_improving(self):
        assert not check_convergence([5.0, 4.0, 3.0], 1e-8, 2)

    def test_stagnation(self):
        assert check_convergence([3.0, 3.0, 3.0], 1e-8, 2)

    def test_short_history_needs_absolute_criterion(self):
        assert not check_convergence([5.0], 1e-8, 1)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            check_convergence([], 1e-8, 1)


class TestConfig:
    def test_ratio_inside_guidance_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ChmConfig(maxfe_probing=300, maxfe_fit=600)  # ratio 0.5

    def test_ratio_outside_guidance_warns(self):
        with pytest.warns(UserWarning, match="probing-to-fit"):
            ChmConfig(maxfe_probing=700, maxfe_fit=600)

    def test_single_optimizer_warns_but_is_legal(self):
        with pytest.warns(UserWarning, match="single-optimizer"):
            ChmConfig(optimizers=(make_optimizer("de"),),
                      maxfe_probing=300, maxfe_fit=600)

    def test_no_optimizers_rejected(self):
        with pytest.raises(ValueError):
            ChmConfig(optimizers=())

    def test_max_total_fe(self):
        config = quiet_config(iterations=4, population_size=20,
                              maxfe_probing=300, maxfe_fit=600)
        assert config.max_total_fe() == 20 + 4 * (5 * 300 + 600)


class TestSelection:
    def test_always_selects_lower_stub(self):
        a = StubOptimizer("a", best_cost=0.1)
        b = StubOptimizer("b", best_cost=0.2)
        config = quiet_config(iterations=3, optimizers=(a, b), population_size=5,
                              maxfe_probing=10, maxfe_fit=20,
                              convergence_epsilon=1e-12)
        best, trace = chm_run(config, sphere, BOUNDS, 3, reference_value=0.0)
        assert [it.selected_name for it in trace.iterations] == ["a"] * len(trace.iterations)
        assert all(it.selected == 0 for it in trace.iterations)
        assert best.cost == 0.1

    def test_tie_breaks_to_lowest_index(self):
        a = StubOptimizer("a", best_cost=0.5)
        b = StubOptimizer("b", best_cost=0.5)
        config = quiet_config(iterations=1, optimizers=(a, b), population_size=5,
                              maxfe_probing=10, maxfe_fit=20)
        _, trace = chm_run(config, sphere, BOUNDS, 3, reference_value=0.0)
        assert trace.iterations[0].selected_name == "a"

    def test_selection_is_argmin_of_probe_costs(self):
        config = quiet_config(iterations=2, population_size=6,
                              maxfe_probing=40, maxfe_fit=80)
        _, trace = chm_run(config, sphere, [(-3.0, 3.0)] * 2, 11, reference_value=0.0)
        for it in trace.iterations:
            assert it.probe_best_costs[it.selected] == min(it.probe_best_costs)


class TestConvergenceBreak:
    def test_constant_objective_breaks_after_first_iteration(self):
        config = quiet_config(iterations=4, population_size=5,
                              maxfe_probing=10, maxfe_fit=20)
        best, trace = chm_run(config, lambda x: 1.0, BOUNDS, 5, reference_value=1.0)
        assert trace.converged
        assert len(trace.iterations) == 1
        assert trace.total_fe <= 5 + 5 * 10 + 20


class TestCarryover:
    def test_identity_fit_reverts_population(self):
        a = StubOptimizer("a")  # changes nothing: fit can never improve
        config = quiet_config(iterations=2, optimizers=(a,), population_size=5,
                              maxfe_probing=10, maxfe_fit=20,
                              convergence_epsilon=0.0, convergence_patience=2)
        _, trace = chm_run(config, sphere, BOUNDS, 7, reference_value=0.0)
        assert all(not it.carryover for it in trace.iterations)
        # call sequence: probe iter1, fit iter1, probe iter2, fit iter2
        assert len(a.seen) >= 3
        probe_1_input = a.seen[0]
        probe_2_input = a.seen[2]
        assert probe_2_input == probe_1_input  # pre-fit population carried forward

    def test_improving_fit_carries_over(self):
        spec = get_benchmark("matyas")
        config = quiet_config(iterations=2, population_size=8,
                              maxfe_probing=40, maxfe_fit=80,
                              convergence_epsilon=1e-15, convergence_patience=2)
        _, trace = chm_run(config, spec.formula, spec.bounds, 1,
                           reference_value=spec.reference_value)
        assert trace.iterations[0].carryover  # plenty of budget to improve


class TestBudgetAccounting:
    def test_budget_sum_with_burning_stubs(self):
        a = StubOptimizer("a", best_cost=0.5, burn_budget=True)
        b = StubOptimizer("b", best_cost=0.6, burn_budget=True)
        config = quiet_config(iterations=2, optimizers=(a, b), population_size=5,
                              maxfe_probing=15, maxfe_fit=30,
                              convergence_epsilon=0.0, convergence_patience=5)
        _, trace = chm_run(config, sphere, BOUNDS, 9, reference_value=0.0)
        for it in trace.iterations:
            assert it.probe_fe == (15, 15)
            assert it.fit_fe == 30
            assert it.fe_used == 2 * 15 + 30
        assert trace.total_fe == 5 + sum(it.fe_used for it in trace.iterations)

    def test_whole_run_fe_bound_random_configs(self):
        rng = SeededRng(100)
        for _ in range(25):
            k = rng.randrange(2, 6)
            names = rng.sample(list("abcde"), k)
            opts = tuple(StubOptimizer(n, best_cost=None, burn_budget=True)
                         for n in names)
            config = quiet_config(
                iterations=rng.randrange(1, 4),
                optimizers=opts,
                population_size=rng.randrange(2, 8),
                maxfe_probing=rng.randrange(3, 20),
                maxfe_fit=rng.randrange(5, 40),
                convergence_epsilon=0.0, convergence_patience=10)
            _, trace = chm_run(config, sphere, BOUNDS, rng.randrange(10**6),
                               reference_value=0.0)
            assert trace.total_fe <= config.max_total_fe()


class TestProbeAll:
    def test_theta_unmodified_and_budgets_independent(self):
        pop = random_population(6, [(-3.0, 3.0)] * 2, SeededRng(4))
        evaluate_population(pop, BudgetedObjective(sphere, 6))
        snapshot = [(tuple(m.position), m.cost) for m in pop]
        optimizers = tuple(make_optimizer(k) for k in ("de", "pso"))
        results = probe_all(pop, optimizers, sphere, 30, [(-3.0, 3.0)] * 2,
                            SeededRng(5), iteration=1)
        assert [(tuple(m.position), m.cost) for m in pop] == snapshot
        assert len(results) == 2
        assert all(r.fe_used <= 30 for r in results)
        assert {r.method for r in results} == {"de", "pso"}

    def test_diverging_method_still_elitist(self):
        pop = random_population(5, [(-3.0, 3.0)] * 2, SeededRng(6))
        evaluate_population(pop, BudgetedObjective(sphere, 5))
        before = pop.best_cost()
        results = probe_all(pop, (DivergingOptimizer(),), sphere, 20,
                            [(-3.0, 3.0)] * 2, SeededRng(7), iteration=1)
        assert results[0].best_cost <= before


class TestMonotonicityAndDeterminism:
    def test_best_fitness_trace_monotone(self):
        spec = get_benchmark("rastrigin")
        config = quiet_config(iterations=4, population_size=10,
                              maxfe_probing=60, maxfe_fit=120)
        _, trace = chm_run(config, spec.formula, spec.bounds, 13,
                           reference_value=spec.reference_value)
        history = best_fitness_history(trace)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_identical_seed_identical_trace(self):
        spec = get_benchmark("price02")
        traces = []
        for _ in range(2):
            config = quiet_config(iterations=3, population_size=8,
                                  maxfe_probing=50, maxfe_fit=100)
            _, trace = chm_run(config, spec.formula, spec.bounds, 77,
                               reference_value=spec.reference_value)
            traces.append(json.dumps(trace.to_records(), sort_keys=True))
        assert traces[0] == traces[1]

    def test_rescaled_costs_never_change_selection(self):
        # argmin invariance: scaling all probe costs by a positive constant
        for scale in (1.0, 7.5, 1e-3):
            a = StubOptimizer("a", best_cost=0.2 * scale)
            b = StubOptimizer("b", best_cost=0.3 * scale)
            config = quiet_config(iterations=1, optimizers=(a, b),
                                  population_size=4, maxfe_probing=5, maxfe_fit=10)
            _, trace = chm_run(config, lambda x: scale * sphere(x), BOUNDS, 5,
                               reference_value=0.0)
            assert trace.iterations[0].selected_name == "a"


class TestErrorHandling:
    def test_non_finite_objective_names_phase_and_method(self):
        calls = {"n": 0}

        def nasty(x):
            calls["n"] += 1
            if calls["n"] > 8:
                return float("nan")
            return sphere(x)

        config = quiet_config(iterations=2, population_size=4,
                              maxfe_probing=10, maxfe_fit=20)
        with pytest.raises(EvaluationAborted) as err:
            chm_run(config, nasty, BOUNDS, 3, reference_value=0.0)
        assert err.value.phase in ("initialization", "probing", "fit")
        assert err.value.position is not None

    def test_non_finite_at_init(self):
        config = quiet_config(iterations=1, population_size=4,
                              maxfe_probing=10, maxfe_fit=20)
        with pytest.raises(EvaluationAborted) as err:
            chm_run(config, lambda x: float("inf"), BOUNDS, 3, reference_value=0.0)
        assert err.value.phase == "initialization"


class TestDegeneracyEquivalence:
    @pytest.mark.parametrize("function", ["matyas", "rosenbrock", "rastrigin"])
    def test_k1_matches_direct_segmented_run(self, function):
        spec = get_benchmark(function)
        optimizer = make_optimizer("de")
        seed = 2024
        config = quiet_config(iterations=3,
                              optimizers=(make_optimizer("de"),),
                              population_size=8, maxfe_probing=40, maxfe_fit=80,
                              convergence_epsilon=1e-12)
        best, trace = chm_run(config, spec.formula, spec.bounds, seed,
                              reference_value=spec.reference_value)
        mirror_best, mirror_pop, mirror_costs = run_segmented_mirror(
            optimizer, spec.formula, spec.bounds, seed,
            iterations=3, maxfe_probing=40, maxfe_fit=80, population_size=8,
            reference_value=spec.reference_value, epsilon=1e-12, patience=1)
        assert best.cost == mirror_best.cost
        assert best.position == mirror_best.position
        assert [it.best_cost for it in trace.iterations] == mirror_costs


class TestSegmentedDriver:
    def test_budget_and_trace_shape(self):
        spec = get_benchmark("matyas")
        best, trace = run_segmented(
            make_optimizer("pso"), spec.formula, spec.bounds, 5,
            segments=3, segment_fe=50, population_size=6,
            reference_value=spec.reference_value, convergence_epsilon=1e-15,
            convergence_patience=3)
        assert trace.total_fe <= 6 + 3 * 50
        assert 1 <= len(trace.iterations) <= 3
        history = best_fitness_history(trace)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_converges_and_stops_early(self):
        best, trace = run_segmented(
            make_optimizer("de"), lambda x: 0.0, BOUNDS, 6,
            segments=5, segment_fe=30, population_size=4, reference_value=0.0)
        assert trace.converged
        assert len(trace.iterations) == 1

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError, match="segments"):
            run_segmented(make_optimizer("de"), sphere, BOUNDS, 6,
                          segments=0, segment_fe=30, population_size=4)


def test_trace_records_round_trip_shape():
    config = quiet_config(iterations=2, population_size=5,
                          maxfe_probing=20, maxfe_fit=40)
    _, trace = chm_run(config, sphere, [(-2.0, 2.0)] * 2, 8, reference_value=0.0)
    records = trace.to_records()
    assert records[0]["kind"] == "init"
    assert records[0]["fe_used"] == 5
    for record in records[1:]:
        assert record["kind"] == "chm_iteration"
        assert set(record) >= {"iteration", "selected", "best_fitness", "fe_used"}
    # records serialize to JSON lines
    for record in records:
        json.loads(json.dumps(record))


def test_segmented_trace_records_shape():
    spec = get_benchmark("matyas")
    _, trace = run_segmented(
        make_optimizer("de"), spec.formula, spec.bounds, 5,
        segments=3, segment_fe=50, population_size=6,
        reference_value=spec.reference_value, convergence_epsilon=1e-15,
        convergence_patience=3)
    records = trace.to_records()
    assert records[0] == {"kind": "init", "iteration": 0, "fe_used": 6,
                          "best_cost": trace.initial_best_cost,
                          "best_fitness": trace.initial_best_fitness}
    assert len(records) >= 2
    for index, record in enumerate(records[1:], start=1):
        assert set(record) == {"kind", "iteration", "selected", "fe_used",
                               "best_cost", "best_fitness"}
        assert record["kind"] == "segment"
        assert record["selected"] == "de"
        assert record["iteration"] == index
        assert record["fe_used"] == 50
        assert record["best_fitness"] == abs(record["best_cost"] - spec.reference_value)
    assert sum(r["fe_used"] for r in records) == trace.total_fe
    assert records[-1]["best_cost"] == trace.final_best.cost
