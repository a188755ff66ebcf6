import contextlib
import dataclasses
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chmopt.cli
from chmopt.cli import main
from chmopt.fselect import make_synthetic_dataset
from chmopt.harness import ALL_METHODS
from chmopt.optimizers import OPTIMIZER_CLASSES, OPTIMIZER_NAMES
from dataset_csv import write_dataset_csv
from setting_rules import RULES, small_plan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_all_28_rows(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert len(out.strip().splitlines()) == 30  # header + rule + 28

    def test_bucket_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--bucket", "highly-multimodal")
        assert code == 0
        assert len(out.strip().splitlines()) == 15  # header + rule + 13

    def test_unknown_bucket_exits_one_with_names(self, capsys):
        code, _, err = run_cli(capsys, "list", "--bucket", "nosuch")
        assert code == 1
        assert "single_basin" in err

    def test_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 28
        assert all("reference_value" in r for r in records)

    def test_bucket_filter_in_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--bucket", "highly-multimodal",
                               "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 13
        assert {r["bucket"] for r in records} == {"highly_multimodal"}


class TestRun:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ("run", "matyas", "chm", "--seed", "7", "--out", str(tmp_path))
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_de_regression_anchor(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", "matyas", "de", "--seed", "7",
                               "--out", str(tmp_path), "--format", "records")
        assert code == 0
        record = json.loads(out.strip().splitlines()[0])
        assert record["best_fitness"] < 1e-3

    def test_writes_trace(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", "rastrigin", "chm", "--seed", "3",
                               "--out", str(tmp_path))
        assert code == 0
        traces = list((tmp_path / "traces").iterdir())
        assert len(traces) == 1
        lines = traces[0].read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "init"

    def test_unknown_function_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "run", "nosuchfn", "chm")
        assert code == 1
        assert err.startswith("error: unknown benchmark 'nosuchfn'; valid names: ackley02, ")

    def test_zero_reps_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "matyas", "chm", "--reps", "0",
                               "--out", str(tmp_path))
        assert code == 1
        assert err == "error: repetitions must be an integer >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "matyas", "chm", "--bogus")
        assert code == 1

    def test_method_reads_as_in_bench(self, tmp_path, capsys):
        # argparse once matched the method by exact case; bench took "CHM"
        flags = ("--seed", "7", "--out", str(tmp_path), "--format", "records")
        code1, out1, _ = run_cli(capsys, "run", "matyas", "chm", *flags)
        code2, out2, _ = run_cli(capsys, "run", "matyas", "CHM", *flags)
        assert code1 == code2 == 0
        assert out2 == out1 and json.loads(out1)["method"] == "chm"
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == [
            f"matyas__chm__seed{json.loads(out1)['seed']}.jsonl"]

    def test_unknown_method_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", "matyas", "cma", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err == "error: unknown method 'cma'; valid: chm, pso, sa, ga, de, bfo\n"
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_cell_count(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bench", "--functions", "matyas",
                               "--methods", "chm,de", "--reps", "3",
                               "--seed", "1", "--budgets", "20,40",
                               "--out", str(tmp_path), "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 6

    def test_zero_reps_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--reps", "0",
                               "--functions", "matyas", "--out", str(tmp_path))
        assert code == 1
        assert not (tmp_path / "default").exists()

    def test_leaderboard_summary_printed(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bench", "--functions", "matyas,brent",
                               "--methods", "chm,de", "--reps", "2",
                               "--budgets", "15,30", "--out", str(tmp_path))
        assert code == 0
        assert "sum fitness" in out
        root = tmp_path / "default"
        assert (root / "tables" / "mean_fitness.csv").exists()

    def test_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "name": "fromfile", "functions": ["matyas"], "methods": ["de"],
            "repetitions": 2, "base_seed": 3, "budget_override": [10, 20],
            "population_size": 5, "iterations": 2,
        }))
        code, out, _ = run_cli(capsys, "bench", "--plan", str(plan_path),
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fromfile" / "raw" / "runs.jsonl").exists()

    @pytest.mark.parametrize("overrides", [
        {"pso": {"inertia": 2.0}}, {"pso": {"bogus": 1}}, {"psoo": {"inertia": 0.5}}])
    def test_bad_plan_overrides_exit_one(self, tmp_path, capsys, overrides):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "name": "fromfile", "functions": ["matyas"], "methods": ["chm", "pso"],
            "repetitions": 1, "budget_override": [10, 20], "population_size": 5,
            "iterations": 1, "optimizer_overrides": overrides,
        }))
        out_root = tmp_path / "out"
        code, out, err = run_cli(capsys, "bench", "--plan", str(plan_path),
                                 "--out", str(out_root))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "optimizer_overrides" in err
        assert not out_root.exists()

    def test_workers_flag_overrides_plan(self, tmp_path, capsys, monkeypatch):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "name": "fromfile", "functions": ["matyas"], "methods": ["de"],
            "repetitions": 1, "budget_override": [10, 20], "population_size": 5,
            "iterations": 1, "workers": 1,
        }))
        seen = []
        real = chmopt.cli.run_experiment

        def spy(plan, out_dir=None):
            seen.append(plan.workers)
            return real(plan, out_dir=out_dir)

        monkeypatch.setattr(chmopt.cli, "run_experiment", spy)
        args = ("bench", "--plan", str(plan_path), "--out", str(tmp_path))
        assert run_cli(capsys, *args, "--workers", "4")[0] == 0
        assert run_cli(capsys, *args)[0] == 0
        assert seen == [4, 1]
        code, _, err = run_cli(capsys, *args, "--workers", "0")
        assert code == 1
        assert err == "error: workers must be an integer >= 1, got 0\n"
        assert seen == [4, 1]

    @pytest.mark.parametrize("field, value", [
        ("iterations", 0), ("population_size", 0), ("name", "../../escape"),
        ("name", ".."), ("name", ""),
        ("repetitions", 2.5), ("iterations", 2.5), ("population_size", True),
        ("convergence_epsilon", "x"), ("convergence_epsilon", None),
        ("budget_override", [2.5, 3]), ("budget_override", [10]), ("base_seed", "7"),
        ("base_seed", 7.0), ("methods", [1]), ("functions", [1]), ("name", 5),
        ("optimizer_overrides", {"bfo": {"chemotaxis_steps": 2.5}}),
        ("optimizer_overrides", {"ga": {"tournament_size": 2.5}}),
        ("optimizer_overrides", {"sa": {"step_fraction": "x"}}),
        ("optimizer_overrides", {"pso": {"v_max_fraction": -1.0}}),
        ("optimizer_overrides", {"de": {"strategy": "rand/1/bin"}}),
        ("functions", ["matyas", "matyas"]), ("functions", ["matyas", "MATYAS"]),
        ("methods", ["de", "de"]), ("methods", ["de", " DE "]),
    ])
    def test_invalid_plan_file_exits_one(self, tmp_path, capsys, field, value):
        plan = {"name": "fromfile", "functions": ["matyas"], "methods": ["de"],
                "repetitions": 1, "budget_override": [10, 20], "population_size": 5,
                "iterations": 1}
        plan[field] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out_root = tmp_path / "a" / "b" / "r"
        code, _, err = run_cli(capsys, "bench", "--plan", str(plan_path),
                               "--out", str(out_root))
        assert code == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]

    @pytest.mark.parametrize("field, value", [("functions", "matyas"), ("methods", "de"),
                                              ("functions", None), ("methods", 5)])
    def test_plan_names_not_given_as_a_list_exit_one(self, tmp_path, capsys, field, value):
        plan = {"name": "fromfile", "functions": ["matyas"], "methods": ["de"],
                "repetitions": 1, "budget_override": [10, 20]}
        plan[field] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, _, err = run_cli(capsys, "bench", "--plan", str(plan_path),
                               "--out", str(tmp_path / "r"))
        assert code == 1
        assert err.strip().endswith(f"{field} must be a list of names, got {value!r}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]

    def test_repeated_names_exit_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "bench", "--functions", "matyas,matyas",
                                 "--methods", "de,de", "--reps", "1", "--budgets", "10,20",
                                 "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must not repeat" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, message", [
        ("--functions", "functions must be non-empty"),
        ("--methods", "methods must be non-empty"),
        ("--budgets", "budgets must be two comma-separated integers, got ''"),
    ])
    def test_empty_list_flag_exits_one(self, tmp_path, capsys, flag, message):
        # an empty value is refused, not read as the flag left out
        args = {"--functions": "matyas", "--methods": "de", "--budgets": "10,20", flag: ""}
        code, out, err = run_cli(capsys, "bench", "--reps", "1", "--out", str(tmp_path),
                                 *[v for pair in args.items() for v in pair])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["../../escape", "..", ".", "", "a/b", "a\x00b"])
    def test_name_outside_out_exits_one(self, tmp_path, capsys, name):
        out_root = tmp_path / "a" / "b" / "r"
        code, _, err = run_cli(capsys, "bench", "--functions", "matyas", "--methods", "de",
                               "--reps", "1", "--budgets", "10,20", "--name", name,
                               "--out", str(out_root))
        assert code == 1
        assert "plain directory name" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_plan_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--plan", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("data, kind", [([1, 2], "list"), ("x", "str"), (None, "NoneType"),
                                            (5, "int")])
    def test_plan_not_a_json_object_exits_one(self, tmp_path, capsys, data, kind):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "bench", "--plan", str(plan_path))
        assert code == 1 and out == ""
        assert err == (f"error: cannot load plan {str(plan_path)!r}: "
                       f"plan must be a JSON object, got {kind}\n")

    def test_plan_nested_too_deep_exits_one(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"functions": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, out, err = run_cli(capsys, "bench", "--plan", str(plan_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot load plan {str(plan_path)!r}: maximum recursion")
        assert len(err.splitlines()) == 1

    def test_unknown_function_is_not_quoted(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"functions": ["nosuch"]}))
        code, _, err = run_cli(capsys, "bench", "--plan", str(plan_path))
        assert code == 1
        assert err.startswith(f"error: cannot load plan {str(plan_path)!r}: "
                              f"unknown benchmark 'nosuch'; valid names: ackley02, ")
        code, _, err = run_cli(capsys, "bench", "--functions", "nosuch",
                               "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: unknown benchmark 'nosuch'; valid names: ackley02, ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]

    def test_ratio_warning_is_one_line(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--functions", "matyas,bird", "--methods",
                               "chm,de", "--reps", "2", "--budgets", "5,100",
                               "--out", str(tmp_path))
        assert code == 0
        assert err == ("warning: probing-to-fit ratio 0.050 outside the recommended "
                       "[0.2, 0.5] range\n")

    def test_env_var_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHMOPT_RESULTS", str(tmp_path / "envroot"))
        code, _, _ = run_cli(capsys, "bench", "--functions", "matyas",
                             "--methods", "de", "--reps", "1", "--budgets", "10,20")
        assert code == 0
        assert (tmp_path / "envroot" / "default" / "raw" / "runs.jsonl").exists()


VALID_PLAN = {"name": "fromfile", "functions": ["matyas"], "methods": ["de"],
              "repetitions": 1, "budget_override": [10, 20], "population_size": 5,
              "iterations": 1}


def hostile_plans():
    """(field, value, message) for every plan field, a wrong type and the
    first value out of range; a parameter inside optimizer_overrides is named
    as <method>.<parameter>."""
    def bad_values(rule):
        return ([v for v in ("1", None) if not rule.accepts(v)]
                + [v for v, accepted in rule.boundary() if not accepted][:1])

    cases = [(name, value, rule.message(name, value))
             for name, rule in RULES[small_plan].items() for value in bad_values(rule)]
    for kind, cls in OPTIMIZER_CLASSES.items():
        cases += [(f"{kind}.{name}", value,
                   f"optimizer_overrides[{kind!r}]: {rule.message(name, value)}")
                  for name, rule in RULES[cls].items() for value in bad_values(rule)]
    return cases + [
        ("budget_override", [0, 20], "maxfe_probing must be an integer >= 1, got 0"),
        ("budget_override", [10, 2.5], "maxfe_fit must be an integer >= 1, got 2.5"),
        ("budget_override", [10], "budget_override must be two integers (probing, fit), "
                                  "got (10,)"),
        ("budget_override", "10,20", "budget_override must be two integers (probing, fit), "
                                     "got '10,20'"),
        ("name", 5, "plan name 5 must be a plain directory name"),
        ("functions", "matyas", "functions must be a list of names, got 'matyas'"),
        ("functions", [1], "function names must be strings, got 1"),
        ("methods", ["cma"], "unknown method 'cma'; valid: chm, pso, sa, ga, de, bfo"),
        ("optimizer_overrides", ["pso"], "optimizer_overrides must map method names to "
                                         "parameters"),
    ]


HOSTILE_PLANS = hostile_plans()


@pytest.mark.parametrize("field, value, message", HOSTILE_PLANS,
                         ids=[f"{f}={v!r}" for f, v, _ in HOSTILE_PLANS])
def test_hostile_plan_value_is_one_error_line(tmp_path, capsys, monkeypatch, field, value,
                                              message):
    def no_run(*args, **kwargs):
        raise AssertionError("run_experiment called on a bad plan")

    monkeypatch.setattr(chmopt.cli, "run_experiment", no_run)
    plan = dict(VALID_PLAN)
    if "." in field:
        kind, name = field.split(".")
        plan["optimizer_overrides"] = {kind: {name: value}}
    else:
        plan[field] = value
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan_path),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot load plan {str(plan_path)!r}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


class TestFselect:
    @pytest.fixture()
    def synth_csv(self, tmp_path):
        dataset = make_synthetic_dataset(n_rows=60, n_noise=4, seed=9)
        path = tmp_path / "synth.csv"
        write_dataset_csv(dataset, str(path))
        return str(path)

    def test_report_with_baseline(self, synth_csv, capsys):
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", "de", "--reps", "1",
                                 "--budgets", "5,10", "--trees", "5", "--depth", "4",
                                 "--population", "5", "--iterations", "1")
        assert code == 0
        assert "none" in out
        assert "meta_name" in out
        assert err == ""  # a clean CSV drops no rows

    def test_out_writes_the_report_and_names_it(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code, out, _ = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                               "--method", "de", "--reps", "1",
                               "--budgets", "5,10", "--trees", "5", "--depth", "4",
                               "--population", "5", "--iterations", "1",
                               "--out", str(out_dir))
        assert code == 0
        path = out_dir / "fselect_report.jsonl"
        assert out.endswith(f"\nreport: {path}\n")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["meta_name"] for r in records} == {"de", "none"}

    def test_dropped_rows_noted_on_stderr(self, synth_csv, capsys):
        with open(synth_csv, "a") as fh:
            fh.write("0.5,0.5,,0.5,0.5,1\n")  # one blank cell
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", "de", "--reps", "1",
                                 "--budgets", "5,10", "--trees", "5", "--depth", "4",
                                 "--population", "5", "--iterations", "1",
                                 "--format", "records")
        assert code == 0
        assert err == "note: dropped 1 of 61 data rows (missing or unparseable cells)\n"
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["meta_name"] for r in records} == {"de", "none"}

    def test_records_format(self, synth_csv, capsys):
        code, out, _ = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                               "--method", "pso", "--reps", "1",
                               "--budgets", "5,10", "--trees", "5", "--depth", "4",
                               "--population", "5", "--iterations", "1",
                               "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["meta_name"] for r in records} == {"pso", "none"}

    def test_missing_label_flag_exits_one(self, synth_csv, capsys):
        code, _, _ = run_cli(capsys, "fselect", synth_csv)
        assert code == 1

    def test_wrong_label_exits_two(self, synth_csv, capsys):
        code, _, err = run_cli(capsys, "fselect", synth_csv, "--label", "nope")
        assert code == 2
        assert "available columns" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "fselect", str(tmp_path / "nope.csv"),
                             "--label", "y")
        assert code == 2

    def test_tree_count_past_the_int_range_exits_two(self, synth_csv, capsys):
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", "de", "--reps", "1", "--iterations", "1",
                                 "--budgets", "4,10", "--trees", str(10**20))
        assert code == 2 and out == ""
        assert err.startswith("error: OverflowError: ") and len(err.splitlines()) == 1

    def test_bad_method_exits_one(self, synth_csv, capsys):
        code, _, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                               "--method", "cma")
        assert code == 1

    def test_unknown_method_line_as_in_run_and_bench(self, tmp_path, capsys):
        # the plan reads the method before the CSV is opened
        code, out, err = run_cli(capsys, "fselect", str(tmp_path / "missing.csv"),
                                 "--label", "y", "--method", "cma")
        assert code == 1 and out == ""
        assert err == "error: unknown method 'cma'; valid: chm, pso, sa, ga, de, bfo\n"

    @pytest.mark.parametrize("bad_row, message", [
        # The id names the bad input: a label class with a single member.
        pytest.param("0.5,0.5,rare", "label 'rare' has only 1 row",
                     id="0.5,0.5,rare-fewer than 2 members"),
        ("0.5,0.5,rare\n0.25,0.75,rare", "label 'rare' has only 2 row"),
        ("0.5,inf,1", "column 'b'"),
        pytest.param("0.5,0.5,\xff", "byte 0xff at byte offset", id="0xff-not UTF-8"),
        pytest.param("0.5,0\x00.5,1", "line 22 holds a NUL byte", id="NUL"),
        pytest.param("0.5," + "5" * 140_000 + ",1", "line 22: field larger than field limit",
                     id="field over the csv limit"),
    ])
    def test_bad_csv_exits_two_with_one_line(self, tmp_path, capsys, bad_row, message):
        rows = ["a,b,y"] + [f"{i / 20},{(i * 7 % 20) / 20},{i % 2}" for i in range(20)]
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(rows + [bad_row]) + "\n").encode("latin-1"))
        code, _, err = run_cli(capsys, "fselect", str(path), "--label", "y",
                               "--method", "de", "--reps", "1", "--budgets", "5,10",
                               "--trees", "3", "--depth", "3", "--population", "4",
                               "--iterations", "1")
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("method", ["chm", "de"])
    @pytest.mark.parametrize("flag", ["--trees", "--depth", "--population", "--iterations",
                                      "--reps", "--budgets"])
    def test_zero_run_parameter_exits_one(self, synth_csv, capsys, flag, method):
        # each message names the setting that owns the rule, as the Python API does
        field = {"--trees": "n_trees", "--depth": "max_depth",
                 "--population": "population_size", "--iterations": "iterations",
                 "--reps": "repetitions", "--budgets": "maxfe_probing"}[flag]
        args = {"--trees": "5", "--depth": "4", "--population": "5", "--iterations": "1",
                "--reps": "1", "--budgets": "5,10"}
        args[flag] = "0,5" if flag == "--budgets" else "0"
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", method,
                                 *[v for pair in args.items() for v in pair])
        assert code == 1
        assert out == ""
        assert err == f"error: {field} must be an integer >= 1, got 0\n"

    def test_bad_setting_exits_before_the_csv_is_read(self, synth_csv, capsys, monkeypatch):
        with open(synth_csv, "a") as fh:
            fh.write("0.5,0.5,,0.5,0.5,1\n")  # a row load_csv would drop, with a note
        loads, real = [], chmopt.cli.load_csv

        def spy(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(chmopt.cli, "load_csv", spy)
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--reps", "0")
        assert code == 1 and out == ""
        assert err == "error: repetitions must be an integer >= 1, got 0\n"
        assert loads == []

    def test_ratio_warning_is_one_line(self, synth_csv, capsys):
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", "de", "--reps", "1", "--budgets", "1,100",
                                 "--trees", "3", "--depth", "3", "--population", "4",
                                 "--iterations", "1", "--format", "records")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # stdout holds only the records
        assert err == ("warning: probing-to-fit ratio 0.010 outside the recommended "
                       "[0.2, 0.5] range\n")


@pytest.mark.parametrize("command", [
    ("run", "matyas", "de"),
    ("bench", "--functions", "matyas", "--methods", "de"),
    ("fselect", "{csv}", "--label", "label", "--method", "de"),
])
def test_zero_reps_reads_the_same_in_every_command(tmp_path, capsys, command):
    dataset = make_synthetic_dataset(n_rows=60, n_noise=4, seed=9)
    csv_path = tmp_path / "synth.csv"
    write_dataset_csv(dataset, str(csv_path))
    out_root = tmp_path / "out"
    argv = [a.format(csv=csv_path) for a in command]
    if command[0] != "fselect":
        argv += ["--out", str(out_root)]
    code, out, err = run_cli(capsys, *argv, "--reps", "0")
    assert code == 1
    assert out == ""
    assert err == "error: repetitions must be an integer >= 1, got 0\n"
    assert not out_root.exists()


@pytest.mark.parametrize("command", [
    ("bench", "--functions", "matyas", "--methods", "de", "--reps", "1"),
    ("fselect", "{csv}", "--label", "label", "--method", "de", "--reps", "1"),
])
def test_zero_budget_reads_the_same_in_every_command(tmp_path, capsys, command):
    dataset = make_synthetic_dataset(n_rows=60, n_noise=4, seed=9)
    csv_path = tmp_path / "synth.csv"
    write_dataset_csv(dataset, str(csv_path))
    out_root = tmp_path / "out"
    argv = [a.format(csv=csv_path) for a in command] + ["--out", str(out_root)]
    code, out, err = run_cli(capsys, *argv, "--budgets", "0,5")
    assert code == 1
    assert out == ""
    assert err == "error: maxfe_probing must be an integer >= 1, got 0\n"
    assert not out_root.exists()


CSV_CELLS = {
    "number": st.integers(-5, 5).map(str) | st.floats(-1e3, 1e3).map(repr),
    "word": st.sampled_from(["u", "v", "w"]),
    "odd": st.sampled_from(["1", "nan", "inf", "-inf", "1e400", "", " ", "x", '"x', "\xe9"]),
}
# at most one fault in the header or the bytes; a bytes fault is inserted anywhere
CSV_FAULTS = [None] * 4 + ["repeated feature", "repeated label", "no label",
                           b"\x00", b"\xff", b"\xef\xbb\xbf"]


@st.composite
def hostile_csv(draw) -> bytes:
    """CSV bytes with a repeated column, no label column, a NUL, a byte that is
    not UTF-8 or a byte-order mark, or none of these; its rows may be ragged,
    hold non-finite or blank cells, and have one class or classes under 3 rows."""
    fault = draw(st.sampled_from(CSV_FAULTS))
    names = list("abcd"[:draw(st.integers(1, 4))])
    if fault == "repeated feature":
        names.append(draw(st.sampled_from(names)))
    for _ in range({"repeated label": 2, "no label": 0}.get(fault, 1)):
        names.insert(draw(st.integers(0, len(names))), "y")
    n_rows = draw(st.integers(0, 30))
    n_classes = draw(st.integers(1, 4))
    columns = []
    for name in names:
        cells = (st.integers(0, n_classes - 1).map(str) if name == "y"
                 else CSV_CELLS[draw(st.sampled_from(["number"] * 3 + ["word", "odd"]))])
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    rows = [names] + [list(row) for row in zip(*columns)]
    for i in draw(st.sets(st.integers(1, max(n_rows, 1)), max_size=min(n_rows, 3))):
        rows[i] = rows[i][:draw(st.integers(0, len(rows[i])))] + ["1"] * draw(st.integers(0, 1))
    data = ("\n".join(",".join(row) for row in rows) + "\n").encode()
    if isinstance(fault, bytes):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + fault + data[at:]
    return data


def assert_one_clean_exit(argv):
    """``main(argv)`` exits 0, 1 or 2 with at most one ``error:`` line, no
    traceback, and no output when it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in lines) <= 1
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(data=hostile_csv())
def test_hostile_csv_exits_with_one_error_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "hostile.csv"
    path.write_bytes(data)
    assert_one_clean_exit(["fselect", str(path), "--label", "y", "--reps", "1",
                           "--population", "2", "--iterations", "1", "--budgets", "1,4",
                           "--trees", "1", "--depth", "1"])


# counts stay small: a large one runs for as long as it asks to
SMALL = st.integers(-1, 50)
SEEDS = st.integers(-10**30, 10**30)
SIZES = st.sampled_from([-1, 0, 1, 10**20])
# a pair of small counts, or text without digits, which never parses
BUDGETS = (st.tuples(SMALL, SMALL).map(lambda p: f"{p[0]},{p[1]}")
           | st.text(st.characters(blacklist_categories=("Nd",)), max_size=6))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, reps=SMALL, budgets=BUDGETS,
       workers=st.integers(-1, 10**20))
def test_hostile_bench_flags_exit_with_one_error_line(tmp_path_factory, seed, reps, budgets,
                                                      workers):
    # one function and one method: a single group, so no worker pool starts
    assert_one_clean_exit(["bench", "--functions", "matyas", "--methods", "de",
                           "--reps", str(reps), "--seed", str(seed), "--budgets", budgets,
                           "--workers", str(workers),
                           "--out", str(tmp_path_factory.mktemp("bench"))])


@settings(max_examples=10, deadline=None)  # each repetition runs the default budgets
@given(seed=SEEDS, reps=SMALL)
def test_hostile_run_flags_exit_with_one_error_line(tmp_path_factory, seed, reps):
    assert_one_clean_exit(["run", "matyas", "de", "--seed", str(seed), "--reps", str(reps),
                           "--out", str(tmp_path_factory.mktemp("run"))])


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, reps=SMALL, population=SMALL, budgets=BUDGETS,
       trees=SIZES, depth=SIZES)
def test_hostile_fselect_flags_exit_with_one_error_line(tmp_path_factory, seed, reps,
                                                        population, budgets, trees, depth):
    path = tmp_path_factory.getbasetemp() / "hostile_flags.csv"
    if not path.exists():
        write_dataset_csv(make_synthetic_dataset(n_rows=30, n_noise=2, seed=3), str(path))
    assert_one_clean_exit(["fselect", str(path), "--label", "label", "--method", "de",
                           "--reps", str(reps), "--seed", str(seed),
                           "--population", str(population), "--iterations", "1",
                           "--budgets", budgets, "--trees", str(trees), "--depth", str(depth)])


# Plan fields that hold lists or objects, given values of any JSON shape: the
# leaves include every scalar type, 10**400, and a stand-in for an array
# nested 10**5 deep, which is written into the plan text as it is saved.
DEEP = "<nested 10**5 deep>"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=5)
    | st.sampled_from(["matyas", "de", "chm", 10**400, DEEP]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8)
PARAMETER_NAMES = sorted({f.name for cls in OPTIMIZER_CLASSES.values()
                          for f in dataclasses.fields(cls)})


def _valid_budgets_past_50(value) -> bool:
    # such a plan runs for as long as its budgets ask
    return (isinstance(value, list) and len(value) == 2
            and all(type(v) is int and v >= 1 for v in value) and max(value) > 50)


HOSTILE_PLAN_FIELDS = {
    "functions": JSON_VALUES | st.lists(JSON_VALUES | st.just("matyas"), max_size=3),
    "methods": JSON_VALUES | st.lists(JSON_VALUES | st.sampled_from(ALL_METHODS), max_size=3),
    "budget_override": (JSON_VALUES | st.lists(JSON_VALUES, min_size=2, max_size=2)
                        ).filter(lambda v: not _valid_budgets_past_50(v)),
    "optimizer_overrides": JSON_VALUES | st.dictionaries(
        st.sampled_from(OPTIMIZER_NAMES) | st.text(max_size=3),
        JSON_VALUES | st.dictionaries(st.sampled_from(PARAMETER_NAMES) | st.text(max_size=3),
                                      JSON_VALUES, max_size=3),
        max_size=3),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), method=st.sampled_from(ALL_METHODS),
       field=st.sampled_from(sorted(HOSTILE_PLAN_FIELDS)))
def test_hostile_non_scalar_plan_field_exits_with_one_error_line(tmp_path_factory, data,
                                                                 method, field):
    plan = {"name": "hostile", "functions": ["matyas"], "methods": [method],
            "repetitions": 1, "iterations": 1, "population_size": 4,
            "budget_override": [2, 4]}
    plan[field] = data.draw(HOSTILE_PLAN_FIELDS[field], label=field)
    root = tmp_path_factory.mktemp("plan")
    plan_path = root / "plan.json"
    plan_path.write_text(json.dumps(plan).replace(json.dumps(DEEP),
                                                  "[" * 10**5 + "]" * 10**5))
    assert_one_clean_exit(["bench", "--plan", str(plan_path), "--out", str(root / "out")])
