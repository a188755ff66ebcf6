import hashlib
import json
import math
import re
import statistics
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmopt.core import BudgetedObjective, SeededRng, mix_seed
from chmopt.forest import ForestParams
from chmopt.fselect import (
    Dataset,
    DatasetError,
    FselectPlan,
    _CachedMaskObjective,
    _search_in_lockstep,
    _split_rows,
    _test_errors,
    decode_mask,
    fs_cost,
    load_csv,
    make_synthetic_dataset,
    run_feature_selection,
    run_feature_selection_all,
    split_dataset,
)
from chmopt.harness import ALL_METHODS
from conftest import report_row
from dataset_csv import write_dataset_csv

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

    def test_repeated_label_column_rejected(self, tmp_path):
        # a second copy of the label would train as a feature that is the answer
        rows = ["label,b,label"] + [f"{i % 2},{i},{i % 2}" for i in range(12)]
        with pytest.raises(DatasetError, match="'label' appears more than once"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "label")

    @pytest.mark.parametrize("header, name", [("a,a,y", "a"), ("y,b,b,c", "b"),
                                              ("a,,,y", "")])
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        # two columns of one name would make a selected-feature list ambiguous
        width = header.count(",") + 1
        rows = [header] + [",".join([str(i % 2)] * width) for i in range(12)]
        with pytest.raises(DatasetError, match=f"^.*: column {re.escape(repr(name))} "
                                               f"appears more than once in the header$"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

    @pytest.mark.parametrize("header", ["y", "a,y"])
    def test_fewer_than_two_feature_columns_rejected(self, tmp_path, header):
        # checked before the feature matrix is built, which a label-only file breaks
        rows = [header] + [",".join([str(i % 2)] * (header.count(",") + 1)) for i in range(12)]
        with pytest.raises(DatasetError, match="need at least 2 feature columns$"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

    def test_non_utf8_header_names_byte_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,\xffb,y\n" + b"1,2,0\n" * 12)
        with pytest.raises(DatasetError, match="byte 0xff at byte offset 2$"):
            load_csv(str(path), "y")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"  # as Excel saves "CSV UTF-8"
        path.write_bytes("\ufefflabel,a,b\n".encode()
                         + b"".join(b"%d,%d.0,%d.5\n" % (i % 2, i, i) for i in range(12)))
        ds = load_csv(str(path), "label")
        assert ds.label_name == "label"
        assert ds.feature_names == ("a", "b")
        assert ds.n_rows == 12

    def test_byte_order_mark_counts_in_byte_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("\ufeff".encode() + b"a,\xffb,y\n" + b"1,2,0\n" * 12)
        with pytest.raises(DatasetError, match="byte 0xff at byte offset 5$"):
            load_csv(str(path), "y")

    def test_nul_byte_names_line(self, tmp_path):
        # Python 3.10's csv reader raises on it, later ones read it as text
        rows = ["a,b,y"] + [f"{i},{i},{i % 2}" for i in range(12)]
        rows[3] = "2,\x002,0"
        with pytest.raises(DatasetError, match="line 4 holds a NUL byte$"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

    def test_oversized_field_names_line(self, tmp_path):
        rows = ["a,b,y"] + [f"{i},{i},{i % 2}" for i in range(12)]
        rows[5] = "4," + "4" * 200_000 + ",0"
        with pytest.raises(DatasetError, match=r"line 6: field larger than field limit"):
            load_csv(write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"), "y")

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


def _parses(cell) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# a column of numbers, some of them padded, with at most one kind of other cell,
# which it holds now and then; or a column of words and numbers
NUMBER_CELLS = (st.integers(-9, 9).map(str) | st.floats(-100, 100).map(repr)
                | st.integers(0, 9).map(" {} ".format))
COLUMN_CELLS = (st.sampled_from(["", " ", "x", "abc", "nan", "NaN", "inf", "-Infinity"]).map(
    lambda other: st.one_of(*[NUMBER_CELLS] * 15, st.just(other)))
    | st.just(NUMBER_CELLS) | st.just(st.sampled_from(["x", "y", " 3 ", "1e2"])))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_rows=st.integers(10, 40), n_columns=st.integers(1, 3),
       strict=st.booleans())
def test_csv_cells_load_as_their_float_or_their_code(tmp_path_factory, data, n_rows,
                                                     n_columns, strict):
    """A grid with an ``id`` column of row numbers, so the loaded features
    show which rows were kept: a row is kept when it has no blank cell and, in
    strict mode, each feature cell parses as a number."""
    column_cells = [data.draw(COLUMN_CELLS) for _ in range(n_columns)]
    labels = st.sampled_from(["a", "b"] * 8 + [""])
    grid = [[str(r)] + [data.draw(cells) for cells in column_cells] + [data.draw(labels)]
            for r in range(n_rows)]
    header = ["id"] + [f"f{j}" for j in range(n_columns)] + ["y"]
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    path.write_text("\n".join(",".join(row) for row in [header] + grid) + "\n")
    kept = [row for row in grid if all(cell.strip() for cell in row)
            and (not strict or all(_parses(cell) for cell in row[:-1]))]
    numeric = [j for j in range(1, n_columns + 1) if all(_parses(row[j]) for row in kept)]
    refused = (len(kept) < 10 or min(Counter(row[-1] for row in kept).values()) < 3
               or not all(math.isfinite(float(row[j])) for j in numeric for row in kept))
    try:
        ds = load_csv(str(path), "y", strict=strict)
    except DatasetError:
        assert refused
        return
    assert not refused
    assert ds.dropped_rows + ds.n_rows == n_rows
    assert ds.features[:, 0].tolist() == [float(row[0]) for row in kept]
    for j in range(1, n_columns + 1):
        cells = [row[j].strip() for row in kept]
        if j in numeric:
            assert ds.features[:, j].tolist() == [float(cell) for cell in cells]
        else:
            codes = {cell: float(code) for code, cell in enumerate(dict.fromkeys(cells))}
            assert ds.features[:, j].tolist() == [codes[cell] for cell in cells]
    codes = {cell: code for code, cell in enumerate(dict.fromkeys(row[-1] for row in kept))}
    assert ds.labels.tolist() == [codes[row[-1]] for row in kept]


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

    def test_rounding_up_to_one_per_class_gives_back_from_the_largest(self):
        # 106 rows at 0.3 ask for 31: (1, 0, 30) rises to (1, 1, 30), and the
        # largest class gives one back
        train, test = split_dataset(self._dataset([0] * 3 + [1] * 3 + [2] * 100), 0.3, 1)
        assert np.bincount(test.labels).tolist() == [1, 1, 29]
        assert train.n_rows == 75

    def test_one_test_row_per_class_outranks_the_fraction(self):
        # 20 rows at 0.3 ask for 6, but each of ten classes keeps one test row
        train, test = split_dataset(self._dataset(list(range(10)) * 2), 0.3, 1)
        assert np.bincount(test.labels).tolist() == [1] * 10
        assert np.bincount(train.labels).tolist() == [1] * 10

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
        for fraction in (0.0, 1.0, float("nan"), True, "0.5"):
            message = f"test_fraction must be a finite number in (0, 1), got {fraction!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                split_dataset(ds, fraction, 1)


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



def _batch(search, positions):
    """The costs of ``positions``, evaluated as one batch by a budget around ``search``."""
    return BudgetedObjective(search, len(positions)).evaluate_many(positions)


@pytest.mark.parametrize("single_class", [False, True])
def test_mask_objective_costs_match_fs_cost(single_class):
    """Alone, in a batch with empty, repeated and cached masks, in a round
    with another search's masks, or one call at a time, a position costs what
    fs_cost gives its mask at its seed, trained on the objective's rows."""
    ds = make_synthetic_dataset(n_rows=90, n_noise=3, seed=21)
    rows, val_rows = _split_rows(ds, 0.3, 22)
    if single_class:
        labels = ds.labels.copy()
        labels[rows] = 0
        ds = Dataset(ds.features, labels, ds.feature_names, ds.label_name)
    train, val = ds.subset(rows), ds.subset(val_rows)
    positions = [(0.9, 0.1, 0.6, 0.2), (0.0, 0.3, 0.1, 0.4), (0.7, 0.3, 0.9, 0.0),
                 (0.1, 0.8, 0.2, 0.5), (0.6, 0.6, 0.6, 0.6), (0.2, 0.9, 0.0, 0.1)]
    expected = [fs_cost(decode_mask(p), train, val, FAST_FOREST, mix_seed(23, *decode_mask(p)))
                for p in positions]
    objective = _CachedMaskObjective(ds, rows, val, FAST_FOREST, 23)
    costs = _search_in_lockstep([
        ("batch", objective, lambda search: [_batch(search, positions[:1]),
                                             _batch(search, positions)]),
        ("reversed", objective, lambda search: _batch(search, positions[::-1]))])
    assert costs == {"batch": [expected[:1], expected], "reversed": expected[::-1]}
    fresh = _CachedMaskObjective(ds, rows, val, FAST_FOREST, 23)
    costs = _search_in_lockstep([("each", fresh, lambda search: [search(p) for p in positions])])
    assert costs == {"each": expected}


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
        report = run_feature_selection(ds, FselectPlan(
            ("de",), repetitions=1, seed=3, population_size=6, iterations=2,
            maxfe_probing=8, maxfe_fit=16, forest_params=FAST_FOREST))
        row = report_row(report, "de")
        assert row.std_cost == 0.0
        assert 0.0 <= row.avg_cost <= 1.0
        baseline = report_row(report, "none")
        assert baseline.avg_features == 5.0
        assert baseline.std_cost is None

    def test_finds_informative_feature_cheaply(self):
        ds = make_synthetic_dataset(n_rows=150, n_noise=5, seed=21)
        report = run_feature_selection(ds, FselectPlan(
            ("chm",), repetitions=2, seed=4, population_size=6, iterations=2,
            maxfe_probing=10, maxfe_fit=20, forest_params=FAST_FOREST))
        runs = report.runs["chm"]
        assert all(r["mask"][0] for r in runs)  # signal feature kept
        baseline = report_row(report, "none")
        assert report_row(report, "chm").avg_cost <= baseline.avg_cost + 0.05

    def test_unknown_method_rejected(self):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError):
            run_feature_selection(ds, FselectPlan(("cma",)))

    @pytest.mark.parametrize("methods", [(), ("de", "de"), "de"])
    def test_empty_repeated_or_string_methods_rejected(self, methods):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError):
            run_feature_selection(ds, FselectPlan(methods))

    def test_zero_repetitions_rejected(self):
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError, match="repetitions"):
            run_feature_selection(ds, FselectPlan(("de",), repetitions=0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"repetitions": 1.5}, "repetitions must be an integer >= 1, got 1.5"),
        ({"maxfe_probing": 0}, "maxfe_probing must be an integer >= 1, got 0"),
        ({"iterations": 2.5}, "iterations must be an integer >= 1, got 2.5"),
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"repetitions": True}, "repetitions must be an integer >= 1, got True"),
        ({"seed": None}, "seed must be an integer, got None"),
    ])
    def test_bad_run_setting_rejected_before_any_split(self, monkeypatch, kwargs, message):
        import chmopt.fselect as fselect

        def no_split(*args, **kwargs):
            raise AssertionError("split before the settings were checked")

        monkeypatch.setattr(fselect, "_split_rows", no_split)
        ds = make_synthetic_dataset(n_rows=60, seed=22)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_feature_selection(ds, FselectPlan(["de"], **kwargs))

    def test_table_format_contains_columns(self):
        ds = make_synthetic_dataset(n_rows=60, n_noise=3, seed=23)
        report = run_feature_selection(ds, FselectPlan(
            ("pso",), repetitions=1, seed=5, population_size=5, iterations=1,
            maxfe_probing=6, maxfe_fit=12, forest_params=FAST_FOREST))
        table = report.format_table()
        assert "meta_name" in table and "avg_cost" in table
        assert "none" in table


PIN_KWARGS = dict(repetitions=2, seed=11, population_size=4, iterations=2,
                  maxfe_probing=4, maxfe_fit=10, forest_params=ForestParams(3, 3),
                  report_forest_params=ForestParams(5, 4))
PIN_DIGEST = "93941d85f605f2ee2fda82beebe578698dfea8e9ea14a06761be338faf8d6900"


def _pin_dataset():
    return make_synthetic_dataset(60, 3, seed=7)


def _pin_digest(report):
    payload = {"runs": {m: [dict(d, mask=list(d["mask"])) for d in details]
                        for m, details in report.runs.items()},
               "records": report.to_records()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_feature_selection_output_pin():
    """Every detail of every (method, repetition) search and the report rows,
    hashed; the constant was recorded before the methods shared their splits,
    mask caches and baseline."""
    report = run_feature_selection_all(_pin_dataset(), **PIN_KWARGS)
    assert list(report.runs) == list(ALL_METHODS)
    assert _pin_digest(report) == PIN_DIGEST


def test_feature_selection_results_do_not_depend_on_method_set():
    reports = [run_feature_selection_all(_pin_dataset(), methods=methods, **PIN_KWARGS)
               for methods in (("de",), ("de", "chm"), ALL_METHODS)]
    first = reports[0]
    for other in reports[1:]:
        assert other.runs["de"] == first.runs["de"]
        assert report_row(other, "de") == report_row(first, "de")
        assert report_row(other, "none") == report_row(first, "none")


def test_adding_a_repetition_changes_no_earlier_one():
    """A repetition's searches share their rounds with the next repetition's,
    and its results stay what they are without it."""
    two = run_feature_selection_all(_pin_dataset(), **PIN_KWARGS)
    three = run_feature_selection_all(_pin_dataset(), **dict(PIN_KWARGS, repetitions=3))
    for method in ALL_METHODS:
        assert three.runs[method][:2] == two.runs[method]
    assert report_row(three, "none") == report_row(two, "none")


@pytest.mark.parametrize("pass_trees", [1024, 2 * FAST_FOREST.n_trees])
def test_lone_new_mask_of_a_round_goes_through_fs_cost(monkeypatch, pass_trees):
    """A round that posts masks of two repetitions fits them in one pass, each
    on its own repetition's rows, or in passes of at most ``_PASS_TREES``
    trees; a later round whose only new mask is one repetition's fits it by
    fs_cost. Every cost is fs_cost's."""
    import chmopt.fselect as fselect

    monkeypatch.setattr(fselect, "_PASS_TREES", pass_trees)

    ds = make_synthetic_dataset(n_rows=90, n_noise=3, seed=21)
    objectives, expected = [], []
    for rep in range(2):
        rows, val_rows = _split_rows(ds, 0.3, 30 + rep)
        objectives.append(_CachedMaskObjective(ds, rows, ds.subset(val_rows), FAST_FOREST, rep))
        expected.append(lambda p, rows=rows, val=ds.subset(val_rows), rep=rep: fs_cost(
            decode_mask(p), ds.subset(rows), val, FAST_FOREST, mix_seed(rep, *decode_mask(p))))
    first, second, third = (0.9, 0.1, 0.6, 0.2), (0.1, 0.8, 0.6, 0.9), (0.6, 0.2, 0.1, 0.5)
    lone, passes = [], []
    real_cost, real_fit_forests = fselect.fs_cost, fselect.fit_forests

    def counting_cost(mask, train, validation, params, seed):
        lone.append((mask, train.n_rows, seed))
        return real_cost(mask, train, validation, params, seed)

    def counting_fit_forests(params, X, y, column_subsets, seeds, rows=None):
        passes.append([len(r) for r in rows])
        return real_fit_forests(params, X, y, column_subsets, seeds, rows)

    monkeypatch.setattr(fselect, "fs_cost", counting_cost)
    monkeypatch.setattr(fselect, "fit_forests", counting_fit_forests)
    costs = _search_in_lockstep([
        (0, objectives[0], lambda search: [_batch(search, [first, second]), search(third)]),
        (1, objectives[1], lambda search: search(first))])
    sizes = [len(objectives[0].rows)] * 2 + [len(objectives[1].rows)]
    assert passes == ([sizes] if pass_trees == 1024 else [sizes[:2], sizes[2:]])
    assert lone == [(decode_mask(third), len(objectives[0].rows),
                     mix_seed(0, *decode_mask(third)))]
    assert costs == {0: [[expected[0](first), expected[0](second)], expected[0](third)],
                     1: expected[1](first)}


@pytest.mark.parametrize("pass_trees", [1024, 2 * FAST_FOREST.n_trees])
def test_report_errors_fit_in_passes_within_the_bound(monkeypatch, pass_trees):
    """A repetition's report masks grow in one pass, or in passes of at most
    ``_PASS_TREES`` trees, each distinct mask once; a mask that trains no
    forest grows none. Every error is fs_cost's."""
    import chmopt.fselect as fselect

    monkeypatch.setattr(fselect, "_PASS_TREES", pass_trees)
    train, test = split_dataset(make_synthetic_dataset(n_rows=90, n_noise=3, seed=21), 0.3, 5)
    masks = [decode_mask(p) for p in ((0.9, 0.1, 0.6, 0.2), (0.1, 0.8, 0.6, 0.9),
                                      (0.1, 0.1, 0.1, 0.1), (0.9, 0.1, 0.6, 0.2),
                                      (0.6, 0.2, 0.1, 0.5))]
    passes, real_fit_forests = [], fselect.fit_forests

    def counting_fit_forests(params, X, y, column_subsets, seeds, rows=None):
        passes.append(len(column_subsets))
        return real_fit_forests(params, X, y, column_subsets, seeds, rows)

    monkeypatch.setattr(fselect, "fit_forests", counting_fit_forests)
    errors = _test_errors(masks, train, test, FAST_FOREST, 11)
    assert passes == ([3] if pass_trees == 1024 else [2, 1])
    assert errors == {mask: fs_cost(mask, train, test, FAST_FOREST, 11) for mask in masks}


@pytest.mark.parametrize("failing", [False, True])
def test_search_threads_in_flight_stay_within_the_bound(monkeypatch, failing):
    """With more searches than the bound, later ones start as earlier ones
    end, at most the bound of threads is ever alive, and none is left after
    the call, whether it ends or raises."""
    import chmopt.fselect as fselect
    from chmopt.optimizers import DifferentialEvolution

    monkeypatch.setattr(fselect, "_IN_FLIGHT", 4)
    alive, real_resume = [], fselect._Search.resume

    def live_threads():
        return sum(t.name.startswith("fselect-") for t in threading.enumerate())

    def resume(search):
        alive.append(live_threads())
        try:
            return real_resume(search)
        finally:
            alive.append(live_threads())

    monkeypatch.setattr(fselect._Search, "resume", resume)
    if failing:
        _raising_evolve(monkeypatch, DifferentialEvolution, "de failed", calls_before=3)
    plan = FselectPlan(("pso", "de", "sa"), **dict(PIN_KWARGS, repetitions=3))  # 9 searches
    error = _raised_by(lambda: run_feature_selection(_pin_dataset(), plan))
    assert max(alive) == 4
    assert live_threads() == 0
    if failing:
        assert isinstance(error, RuntimeError) and str(error) == "de failed"
    else:
        assert error is None


LOCKSTEP_KWARGS = dict(repetitions=1, population_size=4, iterations=1, maxfe_probing=4,
                       maxfe_fit=8, forest_params=ForestParams(3, 3),
                       report_forest_params=ForestParams(3, 3))
_alone_runs = {}


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(ALL_METHODS), count=st.integers(1, len(ALL_METHODS)),
       seed=st.integers(0, 3))
def test_lockstep_method_equals_its_run_alone(order, count, seed):
    """Searching in lockstep with other methods, in any order, a method gets
    the runs and row it gets alone."""
    dataset = make_synthetic_dataset(40, 3, seed=7)
    methods = order[:count]
    report = run_feature_selection(dataset, FselectPlan(methods, seed=seed, **LOCKSTEP_KWARGS))
    assert list(report.runs) == list(methods)
    for method in methods:
        if (method, seed) not in _alone_runs:
            _alone_runs[method, seed] = run_feature_selection(
                dataset, FselectPlan((method,), seed=seed, **LOCKSTEP_KWARGS))
        alone = _alone_runs[method, seed]
        assert report.runs[method] == alone.runs[method]
        assert report_row(report, method) == report_row(alone, method)


# forests the pin run grew before search fits were batched: 20 search
# forests, 5 for the test errors of the masks found and the baseline
PIN_FORESTS = 25
# _Grower passes of the pin run: 19 with the methods searching one after
# another, 12 with the methods of each repetition in lockstep, 7 with both
# repetitions' searches in one lockstep (4 rounds), one report pass per
# repetition and the baseline
PIN_GROWERS = 7


def _counted_pin_run(monkeypatch):
    """The pin run with every grown forest's (mask, seed) key and every
    _Grower pass counted: (report, keys, forests grown, grower passes)."""
    import chmopt.forest as forest
    import chmopt.fselect as fselect

    keys, grown, passes = [], [], []
    real_cost, real_fit_forests, grower = fselect.fs_cost, fselect.fit_forests, forest._Grower

    def counting_cost(mask, train, validation, params, seed):
        if any(mask):  # every pin training split holds both classes
            keys.append((tuple(mask), seed))
        return real_cost(mask, train, validation, params, seed)

    def counting_fit_forests(params, X, y, column_subsets, seeds, rows=None):
        keys.extend((tuple(i in subset for i in range(X.shape[1])), seed)
                    for subset, seed in zip(column_subsets, seeds))
        return real_fit_forests(params, X, y, column_subsets, seeds, rows)

    class CountingGrower(grower):
        def __init__(self, forests, *args):
            grown.extend(forests)
            passes.append(len(forests))
            super().__init__(forests, *args)

    monkeypatch.setattr(fselect, "fs_cost", counting_cost)
    monkeypatch.setattr(fselect, "fit_forests", counting_fit_forests)
    monkeypatch.setattr(forest, "_Grower", CountingGrower)
    report = run_feature_selection_all(_pin_dataset(), **PIN_KWARGS)
    return report, keys, grown, passes


def test_each_mask_fitted_once_per_repetition_and_baseline_once(monkeypatch):
    """Every forest grown, one fit at a time or several in one pass, has its
    own (mask, seed) key, and the run grows as many as before batching, in
    the _Grower passes the lockstep rounds give."""
    _, keys, grown, passes = _counted_pin_run(monkeypatch)
    assert len(keys) == len(set(keys)) == len(grown) == PIN_FORESTS
    assert sum(1 for k in keys if k[1] == mix_seed(PIN_KWARGS["seed"], "baseline")) == 1
    assert len(passes) == PIN_GROWERS


def test_lockstep_pin_under_rapid_thread_switching(monkeypatch):
    """Forcing a thread switch every microsecond changes no search or count."""
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report, keys, grown, passes = _counted_pin_run(monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert _pin_digest(report) == PIN_DIGEST
    assert len(keys) == len(set(keys)) == len(grown) == PIN_FORESTS
    assert len(passes) == PIN_GROWERS
    assert threading.active_count() == before


def _raised_by(call, timeout=120.0):
    """What ``call()`` raises, run in a thread joined within ``timeout``."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:  # handed to the test
            raised.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    return raised[0] if raised else None


def _raising_evolve(monkeypatch, cls, message, calls_before=1):
    """Make ``cls`` raise RuntimeError(message) at its ``calls_before + 1``-th _evolve."""
    real, calls = cls._evolve, []

    def evolve(self, *args):
        calls.append(1)
        if len(calls) > calls_before:
            raise RuntimeError(message)
        return real(self, *args)

    monkeypatch.setattr(cls, "_evolve", evolve)


@pytest.mark.parametrize("methods", [("sa", "de"), ("de", "sa")])
def test_optimizer_error_mid_search_propagates_and_ends_every_thread(monkeypatch, methods):
    """Both searches fail in the same round; the one first in method order
    propagates, and no search thread is left."""
    from chmopt.optimizers import DifferentialEvolution, SimulatedAnnealing

    _raising_evolve(monkeypatch, DifferentialEvolution, "de failed")
    _raising_evolve(monkeypatch, SimulatedAnnealing, "sa failed")
    before = threading.active_count()
    error = _raised_by(lambda: run_feature_selection(
        _pin_dataset(), FselectPlan(("pso",) + methods + ("bfo",), **PIN_KWARGS)))
    assert isinstance(error, RuntimeError) and str(error) == f"{methods[0]} failed"
    assert threading.active_count() == before


@pytest.mark.parametrize("error_type", [RuntimeError, KeyboardInterrupt])
def test_fit_error_in_a_round_propagates_and_ends_every_thread(monkeypatch, error_type):
    import chmopt.fselect as fselect

    real, calls = fselect.fit_forests, []

    def failing_fit_forests(params, X, y, column_subsets, seeds, rows=None):
        calls.append(1)
        if len(calls) == 2:
            raise error_type("fit failed")
        return real(params, X, y, column_subsets, seeds, rows)

    monkeypatch.setattr(fselect, "fit_forests", failing_fit_forests)
    before = threading.active_count()
    error = _raised_by(lambda: run_feature_selection_all(_pin_dataset(), **PIN_KWARGS))
    assert isinstance(error, error_type) and str(error) == "fit failed"
    assert len(calls) == 2
    assert threading.active_count() == before
