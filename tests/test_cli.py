import json
import os

import pytest

from chmopt import make_synthetic_dataset
from chmopt.cli import main
from dataset_csv import write_dataset_csv


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
        assert "unknown benchmark" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "matyas", "chm", "--bogus")
        assert code == 1


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
        import chmopt.cli

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
        assert code == 1 and "--workers" in err
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

    def test_repeated_names_exit_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "bench", "--functions", "matyas,matyas",
                                 "--methods", "de,de", "--reps", "1", "--budgets", "10,20",
                                 "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must not repeat" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["../../escape", "..", ".", "", "a/b"])
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

    def test_env_var_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHMOPT_RESULTS", str(tmp_path / "envroot"))
        code, _, _ = run_cli(capsys, "bench", "--functions", "matyas",
                             "--methods", "de", "--reps", "1", "--budgets", "10,20")
        assert code == 0
        assert (tmp_path / "envroot" / "default" / "raw" / "runs.jsonl").exists()


class TestFselect:
    @pytest.fixture()
    def synth_csv(self, tmp_path):
        dataset = make_synthetic_dataset(n_rows=60, n_noise=4, seed=9)
        path = tmp_path / "synth.csv"
        write_dataset_csv(dataset, str(path))
        return str(path)

    def test_report_with_baseline(self, synth_csv, capsys):
        code, out, _ = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                               "--method", "de", "--reps", "1",
                               "--budgets", "5,10", "--trees", "5", "--depth", "4",
                               "--population", "5", "--iterations", "1")
        assert code == 0
        assert "none" in out
        assert "meta_name" in out

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

    def test_bad_method_exits_one(self, synth_csv, capsys):
        code, _, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                               "--method", "cma")
        assert code == 1

    @pytest.mark.parametrize("bad_row, message", [
        # The id names the bad input: a label class with a single member.
        pytest.param("0.5,0.5,rare", "label 'rare' has only 1 row",
                     id="0.5,0.5,rare-fewer than 2 members"),
        ("0.5,0.5,rare\n0.25,0.75,rare", "label 'rare' has only 2 row"),
        ("0.5,inf,1", "column 'b'"),
        pytest.param("0.5,0.5,\xff", "byte 0xff at byte offset", id="0xff-not UTF-8"),
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
    @pytest.mark.parametrize("flag", ["--trees", "--depth", "--population", "--iterations"])
    def test_zero_run_parameter_exits_one(self, synth_csv, capsys, flag, method):
        args = {"--trees": "5", "--depth": "4", "--population": "5", "--iterations": "1"}
        args[flag] = "0"
        code, out, err = run_cli(capsys, "fselect", synth_csv, "--label", "label",
                                 "--method", method, "--reps", "1", "--budgets", "5,10",
                                 *[v for pair in args.items() for v in pair])
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must be >= 1\n"
