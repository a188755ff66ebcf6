import hashlib
import json
import statistics

import numpy as np
import pytest

from chmopt import (
    ForestParams,
    SeededRng,
    decode_mask,
    fs_cost,
    load_csv,
    make_synthetic_dataset,
    mix_seed,
    run_feature_selection,
    run_feature_selection_all,
    split_dataset,
)
from chmopt.fselect import DatasetError, Dataset, write_dataset_csv
from chmopt.harness import ALL_METHODS

FAST_FOREST = ForestParams(n_trees=8, max_depth=5)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        rows = ["a,b,y"] + [f"{i}.0,{i + 1}.5,{i % 2}" for i in range(12)]
        ds = load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")
        assert ds.n_rows == 12
        assert ds.feature_names == ("a", "b")
        assert ds.dropped_rows == 0

    def test_missing_label_column_names_available(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="available columns: a, b"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            load_csv(write_csv(tmp_path / "d.csv", ""), "y")

    def test_missing_cells_drop_rows(self, tmp_path):
        rows = ["a,b,y"] + [f"{i},{i},0" if i else ",1,0" for i in range(13)]
        ds = load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")
        assert ds.dropped_rows == 1
        assert ds.n_rows == 12

    def test_strict_mode_drops_non_numeric_rows(self, tmp_path):
        rows = ["a,b,y"] + [f"{i},{i},0" for i in range(12)]
        rows[3] = "oops,3,0"
        ds = load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"),
                      "y", strict=True)
        assert ds.dropped_rows == 1
        assert ds.n_rows == 11

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_cell_names_column(self, tmp_path, cell):
        rows = ["a,b,y"] + [f"{i},{i},{i % 2}" for i in range(12)]
        rows[4] = f"3,{cell},1"
        path = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        for strict in (False, True):
            with pytest.raises(DatasetError, match="column 'b'"):
                load_csv(path, "y", strict=strict)

    def test_categorical_first_appearance_encoding(self, tmp_path):
        rows = ["color,size,y"]
        colors = ["red", "blue", "red", "green"] * 3
        for i, c in enumerate(colors):
            rows.append(f"{c},{i},{i % 2}")
        ds = load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")
        assert list(ds.features[:4, 0]) == [0.0, 1.0, 0.0, 2.0]

    def test_class_needs_three_rows(self, tmp_path):
        rows = ["a,b,y"] + [f"{i},{i},{'big' if i > 2 else 'small'}" for i in range(12)]
        assert load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y").n_rows == 12
        rows[1] = "0,0,big"
        with pytest.raises(DatasetError, match="label 'small' has only 2 row"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

    def test_all_rows_dropped(self, tmp_path):
        rows = ["a,b,y"] + [",1,0"] * 5
        with pytest.raises(DatasetError, match="all 5 rows"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

    def test_round_trip_with_writer(self, tmp_path):
        ds = make_synthetic_dataset(n_rows=40, seed=3)
        path = tmp_path / "synth.csv"
        write_dataset_csv(ds, str(path))
        loaded = load_csv(str(path), "label")
        assert loaded.n_rows == 40
        assert loaded.feature_names == ds.feature_names
        assert np.allclose(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)


class TestSplit:
    def _dataset(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        features = np.arange(len(labels) * 2, dtype=float).reshape(-1, 2)
        return Dataset(features, labels, ("a", "b"), "y")

    def test_ten_rows_three_test(self):
        train, test = split_dataset(self._dataset([0, 1] * 5), 0.3, 1)
        assert test.n_rows == 3
        assert train.n_rows == 7

    def test_same_seed_same_split(self):
        ds = self._dataset([0, 1] * 10)
        a = split_dataset(ds, 0.3, 9)
        b = split_dataset(ds, 0.3, 9)
        assert np.array_equal(a[1].features, b[1].features)

    def test_stratified_minimum_one_per_class(self):
        ds = self._dataset([0] * 7 + [1] * 3)
        train, test = split_dataset(ds, 0.3, 2)
        assert set(test.labels) == {0, 1}
        assert set(train.labels) == {0, 1}

    def test_disjoint_and_exhaustive(self):
        ds = self._dataset([0, 1, 2] * 8)
        train, test = split_dataset(ds, 0.25, 5)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == ds.n_rows
        as_tuples = {tuple(r) for r in combined}
        assert len(as_tuples) == ds.n_rows

    def test_tiny_class_rejected(self):
        ds = self._dataset([0] * 9 + [1])
        with pytest.raises(ValueError, match="fewer than 2"):
            split_dataset(ds, 0.3, 1)

    def test_tiny_class_is_a_dataset_error(self):
        ds = self._dataset([0] * 9 + [1])
        with pytest.raises(DatasetError, match="class 1"):
            split_dataset(ds, 0.3, 1)

    def test_bad_fraction_rejected(self):
        ds = self._dataset([0, 1] * 5)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0, 1)


class TestDecodeMask:
    def test_threshold_inclusive(self):
        assert decode_mask((0.7, 0.2, 0.5)) == (True, False, True)

    def test_all_zeros(self):
        assert decode_mask((0.0, 0.0)) == (False, False)

    def test_all_ones(self):
        assert decode_mask((1.0, 1.0)) == (True, True)


class TestFsCost:
    def test_separable_single_feature_costs_zero(self):
        ds = make_synthetic_dataset(n_rows=120, n_noise=3, flip_fraction=0.0, seed=1)
        train, val = split_dataset(ds, 0.3, 4)
        cost = fs_cost((True, False, False, False), train, val, FAST_FOREST, 11)
        assert cost == 0.0

    def test_empty_mask_costs_one(self):
        ds = make_synthetic_dataset(n_rows=60, n_noise=2, seed=2)
        train, val = split_dataset(ds, 0.3, 4)
        assert fs_cost((False, False, False), train, val, FAST_FOREST, 3) == 1.0

    def test_label_shuffled_near_chance(self):
        ds = make_synthetic_dataset(n_rows=200, n_noise=4, flip_fraction=0.0, seed=5)
        rng = np.random.default_rng(0)
        shuffled = Dataset(ds.features, rng.permutation(ds.labels),
                           ds.feature_names, ds.label_name)
        train, val = split_dataset(shuffled, 0.3, 6)
        cost = fs_cost((True,) * 5, train, val, FAST_FOREST, 7)
        assert 0.35 <= cost <= 0.65

    def test_cost_always_in_unit_interval(self):
        ds = make_synthetic_dataset(n_rows=80, n_noise=4, seed=8)
        train, val = split_dataset(ds, 0.3, 9)
        rng = SeededRng(10)
        for _ in range(12):
            mask = tuple(rng.random() < 0.5 for _ in range(5))
            cost = fs_cost(mask, train, val, FAST_FOREST, rng.randrange(10**6))
            assert 0.0 <= cost <= 1.0

    def test_single_class_train_falls_back_to_majority(self):
        features = np.random.default_rng(1).uniform(size=(30, 2))
        train = Dataset(features[:20], np.zeros(20, dtype=np.int64), ("a", "b"), "y")
        val = Dataset(features[20:], np.array([0] * 5 + [1] * 5), ("a", "b"), "y")
        cost = fs_cost((True, True), train, val, FAST_FOREST, 2)
        assert cost == 0.5


def test_adding_informative_feature_never_hurts_median():
    ds = make_synthetic_dataset(n_rows=200, n_noise=5, seed=12)
    train, val = split_dataset(ds, 0.3, 13)
    rng = SeededRng(14)
    without = (False, False, True, True, False, False)
    with_signal = (True,) + without[1:]
    costs_without, costs_with = [], []
    for s in range(12):
        costs_without.append(fs_cost(without, train, val, FAST_FOREST, mix_seed(15, s)))
        costs_with.append(fs_cost(with_signal, train, val, FAST_FOREST, mix_seed(16, s)))
    assert statistics.median(costs_with) <= statistics.median(costs_without) + 0.02


class TestRunFeatureSelection:
    def test_single_repetition_report_shape(self):
        ds = make_synthetic_dataset(n_rows=80, n_noise=4, seed=20)
        report = run_feature_selection(
            ds, ("de",), repetitions=1, seed=3, population_size=6, iterations=2,
            maxfe_probing=8, maxfe_fit=16, forest_params=FAST_FOREST)
        row = report.row("de")
        assert row.std_cost == 0.0
        assert 0.0 <= row.avg_cost <= 1.0
        baseline = report.row("none")
        assert baseline.avg_features == 5.0
        assert baseline.std_cost is None

    def test_finds_informative_feature_cheaply(self):
        ds = make_synthetic_dataset(n_rows=150, n_noise=5, seed=21)
        report = run_feature_selection(
            ds, ("chm",), repetitions=2, seed=4, population_size=6, iterations=2,
            maxfe_probing=10, maxfe_fit=20, forest_params=FAST_FOREST)
        runs = report.runs["chm"]
        assert all(r["mask"][0] for r in runs)  # signal feature kept
        assert report.row("chm").avg_cost <= report.row("none").avg_cost + 0.05

    def test_unknown_method_rejected(self):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError):
            run_feature_selection(ds, ("cma",))

    @pytest.mark.parametrize("methods", [(), ("de", "de"), "de"])
    def test_empty_repeated_or_string_methods_rejected(self, methods):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError):
            run_feature_selection(ds, methods)

    def test_zero_repetitions_rejected(self):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError, match="repetitions"):
            run_feature_selection(ds, ("de",), repetitions=0)

    def test_table_format_contains_columns(self):
        ds = make_synthetic_dataset(n_rows=60, n_noise=3, seed=23)
        report = run_feature_selection(
            ds, ("pso",), repetitions=1, seed=5, population_size=5, iterations=1,
            maxfe_probing=6, maxfe_fit=12, forest_params=FAST_FOREST)
        table = report.format_table()
        assert "meta_name" in table and "avg_cost" in table
        assert "none" in table


PIN_KWARGS = dict(repetitions=2, seed=11, population_size=4, iterations=2,
                  maxfe_probing=4, maxfe_fit=10, forest_params=ForestParams(3, 3),
                  report_forest_params=ForestParams(5, 4))
PIN_DIGEST = "93941d85f605f2ee2fda82beebe578698dfea8e9ea14a06761be338faf8d6900"


def _pin_dataset():
    return make_synthetic_dataset(60, 3, seed=7)


def test_feature_selection_output_pin():
    """Every detail of every (method, repetition) search and the report rows,
    hashed; the constant was recorded before the methods shared their splits,
    mask caches and baseline."""
    report = run_feature_selection_all(_pin_dataset(), **PIN_KWARGS)
    payload = {"runs": {m: [dict(d, mask=list(d["mask"])) for d in details]
                        for m, details in report.runs.items()},
               "records": report.to_records()}
    text = json.dumps(payload, sort_keys=True)
    assert list(report.runs) == list(ALL_METHODS)
    assert hashlib.sha256(text.encode()).hexdigest() == PIN_DIGEST


def test_feature_selection_results_do_not_depend_on_method_set():
    reports = [run_feature_selection_all(_pin_dataset(), methods=methods, **PIN_KWARGS)
               for methods in (("de",), ("de", "chm"), ALL_METHODS)]
    first = reports[0]
    for other in reports[1:]:
        assert other.runs["de"] == first.runs["de"]
        assert other.row("de") == first.row("de")
        assert other.row("none") == first.row("none")


def test_each_mask_fitted_once_per_repetition_and_baseline_once(monkeypatch):
    import chmopt.fselect as fselect

    calls = []
    real = fselect.fs_cost

    def counting(mask, train, validation, params, seed):
        calls.append((tuple(mask), len(validation.labels), params, seed))
        return real(mask, train, validation, params, seed)

    monkeypatch.setattr(fselect, "fs_cost", counting)
    run_feature_selection_all(_pin_dataset(), **PIN_KWARGS)
    assert len(calls) == len(set(calls))
    assert sum(1 for c in calls if c[3] == mix_seed(PIN_KWARGS["seed"], "baseline")) == 1
