import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmopt.cli import main as cli_main
from chmopt.fselect import make_synthetic_dataset
from chmopt.harness import (
    ALL_METHODS,
    ExperimentPlan,
    RunRecord,
    aggregate_records,
    build_leaderboard,
    export_results,
    format_leaderboard,
    load_plan,
    replay_record,
    run_cell,
    run_experiment,
    run_method,
    save_plan,
)
from conftest import config_budget, load_records, quiet_config, sphere
from dataset_csv import write_dataset_csv

# sha256 over every file `TestExport.test_export_output_pin` writes; any
# change to an exported byte, file name or file count changes it
EXPORT_PIN = "06b5bf973ec4be1ef00e997235f37721328dd893d96027116d5d3757831198d0"


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

    @pytest.mark.parametrize("field, value, message", [
        ("repetitions", 2.5, "repetitions must be an integer"),
        ("iterations", 2.5, "iterations must be an integer"),
        ("population_size", True, "population_size must be an integer"),
        ("workers", "2", "workers must be an integer"),
        ("convergence_patience", 1.5, "convergence_patience must be an integer"),
        ("base_seed", "7", "base_seed must be an integer"),
        ("base_seed", False, "base_seed must be an integer"),
        ("convergence_epsilon", "x", "convergence_epsilon must be a finite number"),
        ("convergence_epsilon", float("nan"), "convergence_epsilon must be a finite number"),
        ("convergence_epsilon", True, "convergence_epsilon must be a finite number"),
        ("budget_override", (2.5, 3), "maxfe_probing must be an integer >= 1, got 2.5"),
        ("budget_override", (10, 20, 30), "budget_override must be two integers"),
        ("budget_override", (0, 20), "maxfe_probing must be an integer >= 1, got 0"),
        ("skip_on_error", "no", "skip_on_error must be true or false"),
        ("distance_to_nearest", 1, "distance_to_nearest must be true or false"),
        ("functions", ("matyas", "brent", "matyas"), "functions must not repeat"),
        ("functions", ("matyas", " Matyas"), "functions must not repeat"),
        ("methods", ("de", "chm", "DE"), "methods must not repeat"),
        ("functions", ("matyas", 3), "function names must be strings"),
        ("budget_override", (20, True), "maxfe_fit must be an integer >= 1, got True"),
        ("budget_override", "20,40", "budget_override must be two integers"),
        ("workers", None, "workers must be an integer >= 1, got None"),
        ("skip_on_error", None, "skip_on_error must be true or false, got None"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            small_plan(**{field: value})

    def test_plan_is_frozen_and_replace_checks_it_again(self):
        plan = small_plan(functions=[" Matyas"], budget_override=[30, 60])
        assert plan.functions == ("matyas",) and plan.budget_override == (30, 60)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.workers = 0
        for field, message in (("workers", "workers must be an integer >= 1, got 0"),
                               ("iterations", "iterations must be an integer >= 1, got 0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                dataclasses.replace(plan, **{field: 0})
        assert dataclasses.replace(plan, workers=2) == small_plan(workers=2)

    def test_integral_numbers_accepted(self):
        plan = small_plan(repetitions=np.int64(2), base_seed=-3, convergence_epsilon=0)
        assert plan.repetitions == 2 and plan.base_seed == -3

    def test_round_trip_file(self, tmp_path):
        plan = small_plan()
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        loaded = load_plan(str(path))
        assert loaded == plan

    def test_function_names_normalised(self, tmp_path):
        """A plan's function names are registry names, so their spelling
        changes no seed, record or exported file name."""
        results = {}
        for spelling in ("Matyas", "matyas"):
            plan = small_plan(functions=(spelling,), repetitions=1)
            assert plan.functions == ("matyas",)
            result = run_experiment(plan, out_dir=str(tmp_path / spelling))
            traces = sorted(os.listdir(tmp_path / spelling / "test" / "traces"))
            results[spelling] = ([r.to_dict() for r in result.records], traces)
        assert results["Matyas"] == results["matyas"]
        assert results["matyas"][1] == ["matyas__chm.jsonl", "matyas__de.jsonl"]

    def test_budgets_for_uses_bucket_defaults(self):
        plan = small_plan(budget_override=None)
        assert plan.budgets_for("matyas") == (300, 600)
        assert plan.budgets_for("rastrigin") == (400, 800)

    def test_per_run_cap(self):
        plan = small_plan(budget_override=None, population_size=20, iterations=4)
        assert plan.per_run_cap("matyas") == 20 + 4 * (5 * 300 + 600)


# each run setting of ChmConfig with small valid values, and values none accepts
RUN_SETTINGS = {
    "iterations": st.integers(1, 3),
    "population_size": st.integers(1, 6),
    "maxfe_probing": st.integers(1, 8),
    "maxfe_fit": st.integers(1, 12),
    "convergence_patience": st.integers(1, 3),
    "convergence_epsilon": st.floats(allow_nan=False, allow_infinity=False),
}
BAD_SETTINGS = (0, -1, 2.5, True, math.nan, math.inf, "3")


class TestRunSettings:
    @settings(max_examples=100, deadline=None)
    @given(valid=st.fixed_dictionaries(RUN_SETTINGS), data=st.data())
    def test_bad_setting_is_named_at_construction(self, valid, data):
        name = data.draw(st.sampled_from(sorted(RUN_SETTINGS)))
        # 0, -1 and 2.5 are finite numbers, which convergence_epsilon accepts
        bad = data.draw(st.sampled_from(
            [v for v in BAD_SETTINGS
             if name != "convergence_epsilon" or v not in (0, -1, 2.5)]))
        with pytest.raises(ValueError, match=f"^{name} must be "):
            quiet_config(**{**valid, name: bad})

    @settings(max_examples=100, deadline=None)
    @given(valid=st.fixed_dictionaries(RUN_SETTINGS), seed=st.integers(0, 2**32))
    def test_valid_settings_run_every_method_within_budget(self, valid, seed):
        config = quiet_config(**valid)
        for method in ALL_METHODS:
            calls = []
            best, trace = run_method(method, lambda x: calls.append(x) or sphere(x),
                                     [(-5.0, 5.0)] * 2, seed, config)
            assert len(calls) == trace.total_fe <= config_budget(config)
            assert best.cost == min(map(sphere, calls))

    def test_unknown_method_lists_the_portfolio(self):
        with pytest.raises(ValueError, match="valid: chm, pso, sa, ga, de, bfo$"):
            run_method("cma", sphere, [(-5.0, 5.0)] * 2, 1, quiet_config())

    def test_plan_config_holds_the_cell_settings(self):
        plan = small_plan(optimizer_overrides={"de": {"weight": 0.7}}, convergence_patience=2)
        config = plan.config("matyas")
        assert (config.iterations, config.population_size, config.maxfe_probing,
                config.maxfe_fit, config.convergence_patience) == (2, 6, 30, 60, 2)
        assert [opt.name for opt in config.optimizers] == ["pso", "sa", "ga", "de", "bfo"]
        assert config.optimizers[3].weight == 0.7


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
        # one fit-phase selection per hybrid iteration
        chm_phases = sum(r.phases for r in result.records if r.method == "chm")
        assert sum(n for _, n in stats.selection_counts) == chm_phases

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

    @pytest.mark.parametrize("workers, functions, cpus, pool_size", [
        (64, ("matyas",), 8, 2),
        (3, ("matyas", "beale", "brent"), 8, 3),
        (64, ("matyas", "beale", "brent"), 4, 4),
        (64, ("matyas",), None, None),
        (1, ("matyas",), 8, None),
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, functions, cpus, pool_size):
        """The pool holds at most one worker per group and per CPU, and none
        at all when that leaves one; no process is started here."""
        import chmopt.harness as harness

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        result = run_experiment(small_plan(functions=functions, repetitions=1,
                                           workers=workers))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(result.records) == 2 * len(functions)

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
        board = build_leaderboard(plan, stats)
        assert board.lowest_fitness_counts == {"de": 1, "pso": 1, "sa": 0}
        assert board.lowest_distance_counts == {"de": 1, "pso": 1, "sa": 0}

    def test_suite_sums_match_stats(self):
        plan = small_plan()
        result = run_experiment(plan)
        assert result.leaderboard.suite_sum_fitness["chm"] == pytest.approx(
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

    def test_export_output_pin(self, tmp_path):
        # sha256 over every file a sweep exports (with two workers), the
        # `run --out` traces and the `fselect --out` report: path, then bytes
        plan = small_plan(name="pin", functions=("matyas", "himmelblau", "rastrigin"),
                          methods=("chm", "pso", "sa", "ga", "de", "bfo"),
                          repetitions=2, budget_override=(20, 40), workers=2,
                          optimizer_overrides={"de": {"weight": 0.7}})
        run_experiment(plan, out_dir=str(tmp_path / "bench"))
        assert cli_main(["run", "matyas", "chm", "--reps", "2", "--seed", "3",
                         "--out", str(tmp_path / "run"), "--format", "records"]) == 0
        csv_path = tmp_path / "synth.csv"
        write_dataset_csv(make_synthetic_dataset(n_rows=60, n_noise=4, seed=9),
                          str(csv_path))
        assert cli_main(["fselect", str(csv_path), "--label", "label", "--method", "all",
                         "--reps", "2", "--budgets", "5,10", "--trees", "5",
                         "--depth", "4", "--population", "5", "--iterations", "1",
                         "--format", "records", "--out", str(tmp_path / "fs")]) == 0
        digest = hashlib.sha256()
        paths = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != csv_path)
        assert len(paths) == 8 + 2 + 18 + 2 + 1
        for path in paths:
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == EXPORT_PIN

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
        with pytest.raises(ValueError, match="'de'.*no_such_param"):
            small_plan(methods=("de",), optimizer_overrides={"de": {"no_such_param": 1}})

    @pytest.mark.parametrize("overrides, message", [
        ({"pso": {"inertia": 2.0}}, "'pso'.*inertia"),
        ({"pso": {"bogus": 1}}, "'pso'.*bogus"),
        ({"psoo": {"inertia": 0.5}}, "unknown method 'psoo'"),
        ({"chm": {}}, "unknown method 'chm'"),
        ({"pso": 0.5}, "'pso'.*must map"),
        (["pso"], "must map"),
    ])
    def test_bad_overrides_rejected_by_plan(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_plan(optimizer_overrides=overrides)

    def test_override_added_after_construction_fails_before_export(self, tmp_path):
        # the plan's dict is not frozen: the portfolio reads it when a cell runs
        plan = small_plan()
        plan.optimizer_overrides["psox"] = {}
        with pytest.raises(ValueError, match="^optimizer_overrides: unknown method 'psox'; "):
            run_experiment(plan, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, params, message", [
        ("psox", {}, r"^optimizer_overrides: unknown method 'psox'; "),
        ("pso", {"inertia": 2.0}, r"^optimizer_overrides\['pso'\]: inertia "),
    ], ids=["unknown-method", "rejected-value"])
    def test_override_changed_after_construction_is_not_skipped(self, tmp_path, name, params,
                                                                 message):
        # skip_on_error covers a cell's run, not the plan's settings: they are
        # read before any group starts, so no cell records the error
        plan = small_plan(skip_on_error=True)
        plan.optimizer_overrides[name] = params
        with pytest.raises(ValueError, match=message):
            run_experiment(plan, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_value_changed_after_construction_names_the_override(self):
        plan = small_plan(optimizer_overrides={"pso": {"inertia": 0.5}})
        plan.optimizer_overrides["pso"]["inertia"] = 2.0
        with pytest.raises(ValueError, match=r"^optimizer_overrides\['pso'\]: inertia "):
            run_cell(plan, "matyas", "chm", 0)


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
        from chmopt.chm import EvaluationAborted

        with pytest.raises(EvaluationAborted):
            run_experiment(plan)

    def test_skip_on_error_records_diagnostic(self, monkeypatch):
        plan = self._poisoned_plan(monkeypatch, skip_on_error=True)
        result = run_experiment(plan)
        failed = [r for r in result.records if r.error is not None]
        assert failed
        assert "non-finite" in failed[0].error
        assert all(not math.isnan(s.mean_fitness) for s in result.stats.values())
