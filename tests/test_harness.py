import json
import math
import os

import pytest

from chmopt import (
    ChmConfig,
    ExperimentPlan,
    RunRecord,
    aggregate_records,
    chm_run,
    export_results,
    get_benchmark,
    load_plan,
    replay_record,
    run_cell,
    run_experiment,
    save_plan,
    selection_frequencies,
)
from chmopt.harness import build_leaderboard, format_leaderboard, load_records


def small_plan(**kwargs):
    defaults = dict(name="test", functions=("matyas",), methods=("chm", "de"),
                    repetitions=3, base_seed=5, budget_override=(30, 60),
                    population_size=6, iterations=2)
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            small_plan(repetitions=0)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            small_plan(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_plan(methods=("chm", "cma"))

    def test_unknown_function_rejected(self):
        with pytest.raises(Exception):
            small_plan(functions=("nosuchfn",))

    def test_round_trip_file(self, tmp_path):
        plan = small_plan()
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        loaded = load_plan(str(path))
        assert loaded == plan

    def test_budgets_for_uses_bucket_defaults(self):
        plan = small_plan(budget_override=None)
        assert plan.budgets_for("matyas") == (300, 600)
        assert plan.budgets_for("rastrigin") == (400, 800)

    def test_per_run_cap(self):
        plan = small_plan(budget_override=None, population_size=20, iterations=4)
        assert plan.per_run_cap("matyas") == 20 + 4 * (5 * 300 + 600)


class TestRunExperiment:
    def test_record_count_and_aggregates(self):
        plan = small_plan()
        result = run_experiment(plan)
        assert len(result.records) == 2 * 3
        stats = result.stats[("matyas", "chm")]
        fits = sorted(r.best_fitness for r in result.records if r.method == "chm")
        assert stats.repetitions == 3
        assert stats.mean_fitness == pytest.approx(sum(fits) / 3)
        assert stats.min_fitness == fits[0]
        assert stats.sum_fitness == pytest.approx(sum(fits))

    def test_closed_form_statistics(self):
        records = [
            RunRecord("f", "m", i, i, best_fitness=v, best_cost=v,
                      best_position=(0.0,), distance=0.0, fe_used=10,
                      phases=1, converged=True)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        stats = aggregate_records(records)[("f", "m")]
        assert stats.mean_fitness == 2.0
        assert stats.min_fitness == 1.0
        assert stats.sum_fitness == 6.0
        assert stats.std_fitness == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_fairness_cap_respected(self):
        plan = small_plan(methods=("chm", "de", "sa", "bfo"))
        result = run_experiment(plan)
        for record in result.records:
            assert record.fe_used <= plan.per_run_cap(record.function)

    def test_chm_and_single_get_same_cap(self):
        plan = small_plan()
        cap = plan.per_run_cap("matyas")
        result = run_experiment(plan)
        for record in result.records:
            assert record.fe_used <= cap

    def test_workers_do_not_change_results(self):
        sequential = run_experiment(small_plan())
        parallel = run_experiment(small_plan(workers=2))
        key = lambda r: (r.function, r.method, r.repetition)
        assert ([r.to_dict() for r in sorted(sequential.records, key=key)]
                == [r.to_dict() for r in sorted(parallel.records, key=key)])

    def test_replay_is_bit_exact(self):
        plan = small_plan()
        result = run_experiment(plan)
        for record in result.records[:3]:
            again = replay_record(plan, record)
            assert again.best_fitness == record.best_fitness
            assert again.best_position == record.best_position
            assert again.fe_used == record.fe_used

    def test_seed_mixing_differs_across_cells(self):
        plan = small_plan()
        seeds = {plan.cell_seed("matyas", m, r) for m in plan.methods
                 for r in range(plan.repetitions)}
        assert len(seeds) == 2 * 3


class TestSelectionFrequencies:
    def test_uniform_selection(self):
        spec = get_benchmark("matyas")
        traces = []
        for seed in range(2):
            config = ChmConfig(iterations=2, population_size=5,
                               maxfe_probing=20, maxfe_fit=40,
                               convergence_epsilon=0.0, convergence_patience=5)
            _, trace = chm_run(config, spec.formula, spec.bounds, seed,
                               reference_value=spec.reference_value)
            traces.append(trace)
        counts = selection_frequencies(traces)
        assert sum(counts.values()) == sum(len(t.iterations) for t in traces)

    def test_hand_built_counts(self):
        class FakeTrace:
            def __init__(self, names):
                self.names = names

            def selections(self):
                return tuple(self.names)

        counts = selection_frequencies([FakeTrace(["de", "pso"]),
                                        FakeTrace(["pso", "pso"])])
        assert counts == {"de": 1, "pso": 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            selection_frequencies([])


class TestLeaderboard:
    def test_counts_allow_ties(self):
        records = []
        for method, fitnesses in {"de": [1.0], "pso": [1.0], "sa": [2.0]}.items():
            for i, v in enumerate(fitnesses):
                records.append(RunRecord("matyas", method, i, 0, v, v, (0.0, 0.0),
                                         distance=v, fe_used=5, phases=1,
                                         converged=True))
        plan = small_plan(methods=("de", "pso", "sa"))
        stats = aggregate_records(records)
        board = build_leaderboard(plan, stats).as_dict()
        assert board["lowest_fitness_counts"]["de"] == 1
        assert board["lowest_fitness_counts"]["pso"] == 1
        assert board["lowest_fitness_counts"]["sa"] == 0
        assert board["single_best"]["matyas"] == ["de", "pso"]

    def test_suite_sums_match_stats(self):
        plan = small_plan()
        result = run_experiment(plan)
        board = result.leaderboard.as_dict()
        assert board["suite_sum_fitness"]["chm"] == pytest.approx(
            result.stats[("matyas", "chm")].mean_fitness)


class TestExport:
    def test_files_and_rounding(self, tmp_path):
        plan = small_plan()
        result = run_experiment(plan, out_dir=str(tmp_path))
        root = tmp_path / "test"
        for table in ("mean_fitness", "std_fitness", "min_fitness", "sum_fitness",
                      "mean_distance", "mean_fe", "selection_frequencies", "summary"):
            assert (root / "tables" / f"{table}.csv").exists()
        assert (root / "raw" / "runs.jsonl").exists()
        assert (root / "raw" / "plan.json").exists()
        assert (root / "traces" / "matyas__chm.jsonl").exists()

        lines = (root / "tables" / "mean_fitness.csv").read_text().splitlines()
        assert lines[0] == "function,chm,de"
        for cell in lines[1].split(",")[1:]:
            assert len(cell.split(".")[-1]) == 3  # three decimals

        # raw records keep full precision and reproduce the table aggregates
        raw = load_records(str(root / "raw" / "runs.jsonl"))
        stats = aggregate_records(raw)
        mean_chm = stats[("matyas", "chm")].mean_fitness
        assert mean_chm == result.stats[("matyas", "chm")].mean_fitness
        assert lines[1].split(",")[1] == f"{mean_chm:.3f}"

    def test_small_value_renders_as_zero(self):
        from chmopt.harness import format_table_value

        assert format_table_value(0.00004) == "0.000"
        assert format_table_value(0.0006) == "0.001"

    def test_traces_replayable_fields(self, tmp_path):
        plan = small_plan()
        run_experiment(plan, out_dir=str(tmp_path))
        lines = (tmp_path / "test" / "traces" / "matyas__chm.jsonl").read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert all("seed" in p and "repetition" in p for p in parsed)
        kinds = {p["kind"] for p in parsed}
        assert kinds == {"init", "chm_iteration"}

    def test_single_method_trace_export(self, tmp_path):
        plan = small_plan()
        result = run_experiment(plan, out_dir=str(tmp_path))
        lines = (tmp_path / "test" / "traces" / "matyas__de.jsonl").read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        records = {r.repetition: r for r in result.records if r.method == "de"}
        assert {p["repetition"] for p in parsed} == set(records)
        for p in parsed:
            assert p["seed"] == records[p["repetition"]].seed
            if p["kind"] == "init":
                assert p["iteration"] == 0 and p["fe_used"] == 6
                continue
            assert p["kind"] == "segment"
            assert set(p) == {"kind", "iteration", "selected", "fe_used", "best_cost",
                              "best_fitness", "repetition", "seed"}
            assert p["selected"] == "de"
            assert p["fe_used"] == 5 * 30 + 60
        segments = [p for p in parsed if p["kind"] == "segment"]
        assert len(segments) == sum(r.phases for r in records.values())

    def test_unwritable_destination_error_names_path(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        plan = small_plan()
        result = run_experiment(plan)
        with pytest.raises(RuntimeError, match="blocked"):
            export_results(result, str(blocker))

    def test_validation_fails_before_any_write(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentPlan(name="bad", functions=("matyas",), methods=(),
                           repetitions=1)
        assert list(tmp_path.iterdir()) == []


def test_format_leaderboard_renders():
    result = run_experiment(small_plan())
    text = format_leaderboard(result)
    assert "chm" in text and "de" in text
    assert "sum fitness" in text.splitlines()[0]


def test_distance_to_nearest_optimum():
    # himmelblau has four global optima; a run landing on an alternate one
    # reports a large listed-optimum distance but a near-zero nearest distance
    listed = run_experiment(small_plan(functions=("himmelblau",), methods=("de",),
                                       repetitions=8, budget_override=(60, 120)))
    nearest = run_experiment(small_plan(functions=("himmelblau",), methods=("de",),
                                        repetitions=8, budget_override=(60, 120),
                                        distance_to_nearest=True))
    listed_d = [r.distance for r in listed.records]
    nearest_d = [r.distance for r in nearest.records]
    assert all(n <= l + 1e-12 for n, l in zip(nearest_d, listed_d))
    assert max(nearest_d) < 1.0  # every run found one of the four basins


class TestOptimizerOverrides:
    def test_overrides_change_behaviour(self):
        base = run_experiment(small_plan(methods=("de",)))
        tweaked = run_experiment(small_plan(
            methods=("de",), optimizer_overrides={"de": {"weight": 1.9}}))
        assert ([r.best_fitness for r in base.records]
                != [r.best_fitness for r in tweaked.records])

    def test_overrides_survive_plan_file(self, tmp_path):
        plan = small_plan(optimizer_overrides={"de": {"weight": 0.7},
                                               "pso": {"inertia": 0.6}})
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        loaded = load_plan(str(path))
        assert loaded.optimizer_overrides == plan.optimizer_overrides
        result = run_experiment(loaded)
        assert len(result.records) == 6

    def test_unknown_override_key_fails_fast(self):
        plan = small_plan(methods=("de",),
                          optimizer_overrides={"de": {"no_such_param": 1}})
        with pytest.raises(TypeError):
            run_experiment(plan)


class TestErrorPolicy:
    @staticmethod
    def _poisoned_plan(monkeypatch, **kwargs):
        from chmopt import harness as harness_module

        real = harness_module.get_benchmark

        def poisoned(name):
            spec = real(name)
            calls = {"n": 0}

            def formula(x):
                calls["n"] += 1
                if calls["n"] > 30:
                    return float("nan")
                return spec.formula(x)

            import dataclasses

            return dataclasses.replace(spec, formula=formula)

        monkeypatch.setattr(harness_module, "get_benchmark", poisoned)
        return small_plan(**kwargs)

    def test_fail_fast_by_default(self, monkeypatch):
        plan = self._poisoned_plan(monkeypatch)
        from chmopt import EvaluationAborted

        with pytest.raises(EvaluationAborted):
            run_experiment(plan)

    def test_skip_on_error_records_diagnostic(self, monkeypatch):
        plan = self._poisoned_plan(monkeypatch, skip_on_error=True)
        result = run_experiment(plan)
        failed = [r for r in result.records if r.error is not None]
        assert failed
        assert "non-finite" in failed[0].error
        assert all(not math.isnan(s.mean_fitness) for s in result.stats.values())
