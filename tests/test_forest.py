import hashlib
import tracemalloc

import numpy as np
import pytest
from forest_reference import ReferenceForest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chmopt import forest as forest_module
from chmopt.forest import (
    ForestParams,
    RandomForest,
    _best_splits,
    _bits,
    _class_sum,
    _pcg64,
    _seed_words,
    fit_forests,
)


def separable_data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 3))
    y = (x[:, 0] > 0.5).astype(np.int64)
    return x, y


def split_keys(segment, rank, label, n_ranks, n_classes):
    """Sort keys for `_best_splits`: segment, then value rank, then label, packed in bits."""
    return (segment << _bits(n_ranks) | rank) << _bits(n_classes) | label


def best_split(column, y, n_classes):
    """(weighted Gini, threshold) of one column as one segment, (None, None) if constant."""
    values, rank = np.unique(column, return_inverse=True)
    key = split_keys(np.zeros(len(y), dtype=np.int64), rank, np.asarray(y),
                     len(values), n_classes)
    gini, threshold = _best_splits(key, 1, len(values), n_classes, values)
    if np.isinf(gini[0]):
        return None, None
    return float(gini[0]), float(threshold[0])


def preorder(forest):
    """(feature, threshold, prediction) of every node of every tree, leaves with feature -1."""
    ends = np.append(forest.roots[1:], len(forest.feature))
    return [[(int(forest.feature[i]),
              float(forest.threshold[i]) if forest.feature[i] >= 0 else None,
              int(forest.prediction[i])) for i in range(start, end)]
            for start, end in zip(forest.roots, ends)]


def node_depths(forest):
    """Depth of every node, read from the flat arrays (a parent precedes its children)."""
    depth = np.zeros(len(forest.feature), dtype=np.int64)
    for i in range(len(forest.feature)):
        if forest.feature[i] >= 0:
            depth[forest.left[i]] = depth[forest.right[i]] = depth[i] + 1
    return depth


class TestGiniSplit:
    def test_perfect_split_found(self):
        column = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
        y = np.array([0, 0, 0, 1, 1, 1])
        gini, threshold = best_split(column, y, 2)
        assert gini == 0.0
        assert 0.3 < threshold < 0.7

    def test_constant_column_has_no_split(self):
        column = np.ones(5)
        y = np.array([0, 1, 0, 1, 0])
        gini, threshold = best_split(column, y, 2)
        assert gini is None and threshold is None

    def test_weighted_impurity_hand_example(self):
        # split at 0.5 -> left [0,0] pure, right [1,0] gini 0.5; weighted 0.25
        column = np.array([0.0, 0.1, 0.9, 1.0])
        y = np.array([0, 0, 1, 0])
        gini, threshold = best_split(column, y, 2)
        assert gini == pytest.approx(0.25)
        assert 0.1 < threshold < 0.9

    def test_segments_are_scored_independently(self):
        # the same two columns as above, as segments 0 and 1 of one call
        columns = [np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9]), np.array([0.0, 0.1, 0.9, 1.0])]
        labels = [np.array([0, 0, 0, 1, 1, 1]), np.array([0, 0, 1, 0])]
        values, rank = np.unique(np.concatenate(columns), return_inverse=True)
        segment = np.repeat([0, 1], [6, 4])
        key = split_keys(segment, rank, np.concatenate(labels), len(values), 2)
        gini, threshold = _best_splits(key, 3, len(values), 2, values)
        assert gini[0] == 0.0 and 0.3 < threshold[0] < 0.7
        assert gini[1] == pytest.approx(0.25) and 0.1 < threshold[1] < 0.9
        assert np.isinf(gini[2]) and np.isnan(threshold[2])  # a segment with no rows


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_threshold_of_values_past_half_the_float_maximum(self, sign):
        # 1e308 + 1.5e308 overflows: the midpoint must still fall between them
        column = sign * np.array([1.0e308, 1.0e308, 1.5e308, 1.5e308])
        y = np.array([0, 0, 1, 1])
        gini, threshold = best_split(column, y, 2)
        assert gini == 0.0
        assert np.isfinite(threshold) and column.min() < threshold < column.max()
        params = ForestParams(n_trees=1, max_depth=1, bootstrap=False, feature_rule="all")
        forest = RandomForest(params, seed=0).fit(column[:, None], y)
        root = forest.roots[0]
        assert np.isfinite(forest.threshold[root])
        assert (column > forest.threshold[root]).sum() == 2  # the right leaf holds rows
        assert forest.predict(column[:, None]).tolist() == y.tolist()
        assert preorder(forest) == ReferenceForest(params, seed=0).fit(column[:, None], y).preorder()


class TestDecisionTree:
    def test_fits_separable_data_exactly(self):
        x, y = separable_data()
        tree = RandomForest(ForestParams(n_trees=1, max_depth=4, feature_rule="all",
                                         bootstrap=False), seed=1).fit(x, y)
        assert np.array_equal(tree.predict(x), y)

    def test_depth_limit_respected(self):
        x, y = separable_data(seed=3)
        tree = RandomForest(ForestParams(n_trees=1, max_depth=1, feature_rule="all"),
                            seed=1).fit(x, y)
        assert node_depths(tree).max() <= 1
        assert tree.depth <= 1


class TestRandomForest:
    def test_deterministic_given_seed(self):
        x, y = separable_data(seed=5)
        a = RandomForest(ForestParams(n_trees=7), seed=42).fit(x, y).predict(x)
        b = RandomForest(ForestParams(n_trees=7), seed=42).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_different_seed_may_differ_but_still_accurate(self):
        x, y = separable_data(seed=6)
        forest = RandomForest(ForestParams(n_trees=15), seed=7).fit(x, y)
        assert forest.accuracy(x, y) > 0.95

    def test_perfectly_separable_generalizes(self):
        x, y = separable_data(seed=8)
        x_new, y_new = separable_data(seed=9)
        forest = RandomForest(ForestParams(n_trees=20), seed=3).fit(x, y)
        assert forest.accuracy(x_new, y_new) > 0.9

    def test_multiclass(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(120, 2))
        y = np.digitize(x[:, 0], [0.33, 0.66]).astype(np.int64)
        forest = RandomForest(ForestParams(n_trees=15), seed=1).fit(x, y)
        assert forest.n_classes == 3
        assert forest.accuracy(x, y) > 0.9

    def test_vote_tie_resolves_to_lowest_class(self):
        votes_even = RandomForest(ForestParams(n_trees=2), seed=0)
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        votes_even.fit(x, y)
        # with a real tie argmax picks the first (= lowest) class; exercise predict
        assert set(votes_even.predict(x)) <= {0, 1}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            RandomForest().fit(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(feature_rule="log3")

    @pytest.mark.parametrize("field, value", [
        ("n_trees", 2.5), ("max_depth", 2.5), ("max_depth", True), ("min_samples_split", 2.5),
        ("min_samples_split", 1), ("bootstrap", "no"), ("bootstrap", 1), ("bootstrap", None)])
    def test_params_types_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ForestParams(**{field: value})

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]), "integer class indices"),
        (np.zeros((3, 2)), np.array([0.0, np.inf, 1.0]), "integer class indices"),
        (np.zeros((3, 2)), np.array([0.0, np.nan, 1.0]), "integer class indices"),
        (np.zeros((3, 2)), np.array(["a", "b", "a"]), "integer class indices"),
        (np.zeros((3, 2)), np.array([0, -1, 1]), "non-negative"),
        (np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 0.0]]), np.array([0, 1, 0]), "finite"),
        (np.array([[0.0, 1.0], [np.inf, 2.0], [1.0, 0.0]]), np.array([0, 1, 0]), "finite"),
        (np.zeros(3), np.array([0, 1, 0]), "2-D"),
        (np.zeros((3, 2, 2)), np.array([0, 1, 0]), "2-D"),
        (np.zeros((3, 0)), np.array([0, 1, 0]), "at least one column"),
        (np.zeros((3, 2)), np.array([[0], [1], [0]]), "1-D"),
        (np.zeros((0, 2)), np.zeros(0, dtype=int), "empty"),
    ])
    def test_bad_input_rejected(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            RandomForest(ForestParams(n_trees=2)).fit(features, labels)

    def test_whole_float_and_bool_labels_accepted(self):
        x, y = separable_data(seed=12)
        as_int = RandomForest(ForestParams(n_trees=3), seed=2).fit(x, y).predict(x)
        as_float = RandomForest(ForestParams(n_trees=3), seed=2).fit(x, y.astype(float))
        as_bool = RandomForest(ForestParams(n_trees=3), seed=2).fit(x, y.astype(bool))
        assert np.array_equal(as_float.predict(x), as_int)
        assert np.array_equal(as_bool.predict(x), as_int)

    def test_predict_checks_width(self):
        x, y = separable_data(seed=13)
        forest = RandomForest(ForestParams(n_trees=2), seed=1).fit(x, y)
        with pytest.raises(ValueError, match="3 column"):
            forest.predict(x[:, :2])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            RandomForest(ForestParams(n_trees=2)).predict(np.zeros((3, 2)))

    @pytest.mark.parametrize("labels", [np.array([1]), np.zeros(39, dtype=int),
                                        np.zeros((40, 1), dtype=int)])
    def test_accuracy_checks_labels_match_rows(self, labels):
        x, y = separable_data(n=40, seed=14)
        forest = RandomForest(ForestParams(n_trees=2), seed=1).fit(x, y)
        with pytest.raises(ValueError, match="40 class indices"):
            forest.accuracy(x, labels)

    def test_no_bootstrap_pure_fit(self):
        x, y = separable_data(seed=11)
        forest = RandomForest(ForestParams(n_trees=3, bootstrap=False,
                                           feature_rule="all"), seed=5).fit(x, y)
        assert forest.accuracy(x, y) == 1.0


def pin_data(seed, n_rows, n_features, n_classes, grid):
    """Rows, labels and fresh rows; ``grid`` > 0 draws values from a grid, so values tie."""
    rng = np.random.default_rng(seed)

    def draw(n):
        if grid:
            return rng.integers(0, grid, size=(n, n_features)) / grid
        return rng.normal(size=(n, n_features))

    X = draw(n_rows)
    score = X @ np.linspace(1.0, 0.2, n_features) + 0.3 * rng.normal(size=n_rows)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    fresh = draw(n_rows // 2)
    if grid:  # rows on the midpoints between grid values meet thresholds exactly
        fresh = np.vstack([fresh, (rng.integers(0, grid - 1, size=(8, n_features)) + 0.5) / grid])
    return X, y.astype(np.int64), fresh


PIN_CASES = [
    # (data seed, rows, features, classes, grid, params, forest seed, feature mask)
    (1, 60, 5, 2, 0, ForestParams(n_trees=6, max_depth=6), 3, (1, 1, 1, 1, 1)),
    (1, 60, 5, 2, 0, ForestParams(n_trees=6, max_depth=6), 4, (1, 0, 1, 0, 1)),
    (2, 90, 6, 3, 5, ForestParams(n_trees=8, max_depth=12), 11, (1, 1, 1, 1, 1, 1)),
    (2, 90, 6, 3, 5, ForestParams(n_trees=8, max_depth=12), 12, (0, 1, 1, 0, 0, 1)),
    (3, 120, 9, 9, 4, ForestParams(n_trees=5, max_depth=12), 7, (1,) * 9),
    (3, 120, 9, 9, 0, ForestParams(n_trees=5, max_depth=8), 8, (1, 1, 0, 1, 1, 0, 1, 1, 0)),
    (4, 50, 4, 2, 3, ForestParams(n_trees=4, max_depth=5, feature_rule="all"), 5, (1, 1, 1, 1)),
    (5, 70, 5, 3, 0, ForestParams(n_trees=3, max_depth=7, bootstrap=False), 9, (1, 1, 1, 1, 1)),
    (6, 80, 7, 2, 6, ForestParams(n_trees=7, max_depth=9, min_samples_split=5), 2, (1,) * 7),
    (7, 40, 3, 3, 2, ForestParams(n_trees=5, max_depth=4, min_samples_split=3,
                                  feature_rule="all", bootstrap=False), 1, (1, 0, 1)),
]

# sha256 over the PIN_CASES forests, recorded with the one-node-at-a-time
# recursive trees that preceded the batched kernel (ReferenceForest's code)
FOREST_PIN = "bd3d64bbc019d400ff4f9430a40701c9b3ba22fb13276e0aaef36eaec45a4abc"


def pin_digest(make_forest, nodes):
    digest = hashlib.sha256()
    for data_seed, n_rows, n_features, n_classes, grid, params, seed, mask in PIN_CASES:
        X, y, fresh = pin_data(data_seed, n_rows, n_features, n_classes, grid)
        columns = [i for i, keep in enumerate(mask) if keep]
        forest = make_forest(params, seed).fit(X[:, columns], y)
        digest.update(repr(nodes(forest)).encode())
        digest.update(forest.predict(X[:, columns]).astype(np.int64).tobytes())
        digest.update(forest.predict(fresh[:, columns]).astype(np.int64).tobytes())
    return digest.hexdigest()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
@example(7, 5, False, 0)  # the last count summed one after another
@example(8, 5, False, 0)  # the first with 8 running sums
@example(128, 3, True, 1)  # the last without halving
@example(129, 3, False, 2)  # the first halved
@example(300, 2, True, 3)
def test_class_sum_matches_numpy_row_sum(n_classes, n_columns, two_sides, seed):
    # squared class shares of non-negative counts, summed as a per-column split
    # search lays them out: each row of the C-ordered (columns, classes)
    # transpose; a transposed view sums its classes in another order from 8 on
    rng = np.random.default_rng(seed)
    shape = (n_classes, 2, n_columns) if two_sides else (n_classes, n_columns)
    counts = rng.integers(0, rng.choice([2, 30, 10**6]), size=shape).astype(float)
    shares = np.square(counts / np.maximum(counts.sum(axis=0), 1.0))
    rows = shares.reshape(n_classes, -1).T.astype(float, order="C")
    expected = rows.sum(axis=1).reshape(shape[1:])
    assert np.array_equal(_class_sum(shares).view(np.int64), expected.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                min_size=1, max_size=20))
def test_generators_match_default_rng(seeds):
    for words, seed in zip(_seed_words(seeds), seeds, strict=True):
        rng = np.random.Generator(_pcg64(words))
        expected = np.random.default_rng(seed)
        assert np.array_equal(rng.integers(0, 2**63, size=6), expected.integers(0, 2**63, size=6))
        assert np.array_equal(rng.permuted(np.tile(np.arange(7), (3, 1)), axis=1),
                              expected.permuted(np.tile(np.arange(7), (3, 1)), axis=1))


class TestBitIdentical:
    def test_forest_golden_pin(self):
        assert pin_digest(lambda p, s: RandomForest(p, seed=s), preorder) == FOREST_PIN

    def test_reference_matches_golden_pin(self):
        assert pin_digest(lambda p, s: ReferenceForest(p, seed=s),
                          ReferenceForest.preorder) == FOREST_PIN

    @pytest.mark.parametrize("pass_counts, draws, together",
                             [(1, 1, 1), (2200, 3, 2), (3500, 2, 3), (7000, 7, 6),
                              (30000, 3, 7)],
                             ids=["1-1", "2200-3", "3500-2", "7000-7", "30000-3"])
    def test_pass_size_and_draw_chunk_do_not_matter(self, monkeypatch, pass_counts, draws,
                                                    together):
        X, y, fresh = pin_data(3, 120, 9, 9, 4)
        params = ForestParams(n_trees=7, max_depth=12, feature_rule="all")
        expected = RandomForest(params, seed=4).fit(X, y)
        # a root (120 rows, 9 classes) holds 1080 (row, class) counts and, with
        # its 9 candidates, 9720 (row, candidate, class) counts: ``together``
        # trees grow at a time, and their candidates are scored 1 or 3 per pass
        monkeypatch.setattr(forest_module, "_PASS_COUNTS", pass_counts)
        monkeypatch.setattr(forest_module, "_DRAWS", draws)
        widths = []
        step = forest_module._Grower.step

        def recording_step(grower, trees, *args):
            widths.append(len(trees))
            return step(grower, trees, *args)

        monkeypatch.setattr(forest_module._Grower, "step", recording_step)
        forest = RandomForest(params, seed=4).fit(X, y)
        assert max(widths) == together
        for name in ("roots", "feature", "threshold", "left", "right", "prediction"):
            assert np.array_equal(getattr(forest, name), getattr(expected, name),
                                  equal_nan=True), name
        assert np.array_equal(forest.predict(fresh), expected.predict(fresh))

    def test_leaves_take_no_step(self, monkeypatch):
        # distinct values and no bootstrap: every node that tries to split
        # finds a split, so the nodes that tried are the split nodes
        X, y, _ = pin_data(1, 60, 5, 2, 0)
        calls = []
        step = forest_module._Grower.step

        def recording_step(grower, *args):
            calls.append(1)
            return step(grower, *args)

        monkeypatch.setattr(forest_module._Grower, "step", recording_step)
        params = ForestParams(n_trees=1, max_depth=12, bootstrap=False)
        forest = RandomForest(params, seed=3).fit(X, y)
        assert len(calls) == (forest.feature >= 0).sum() < len(forest.feature)

    def test_flat_arrays_are_consistent(self):
        X, y, _ = pin_data(2, 90, 6, 3, 5)
        forest = RandomForest(ForestParams(n_trees=8, max_depth=12), seed=11).fit(X, y)
        nodes = np.arange(len(forest.feature))
        leaf = forest.feature < 0
        assert np.array_equal(forest.left[leaf], nodes[leaf])
        assert np.array_equal(forest.right[leaf], nodes[leaf])
        assert np.array_equal(forest.left[~leaf], nodes[~leaf] + 1)  # pre-order
        assert (forest.right[~leaf] > forest.left[~leaf]).all()
        assert len(forest.roots) == 8
        tree = np.searchsorted(forest.roots, nodes, side="right") - 1
        assert np.array_equal(tree[forest.right], tree)  # children stay in their tree
        assert node_depths(forest).max() == forest.depth <= 12


@st.composite
def forest_case(draw):
    n_rows = draw(st.integers(2, 50))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 11))
    if draw(st.booleans()):  # few distinct values: many ties
        cell = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])
    else:
        cell = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    params = ForestParams(n_trees=draw(st.integers(1, 5)), max_depth=draw(st.integers(1, 8)),
                          min_samples_split=draw(st.integers(2, 6)),
                          feature_rule=draw(st.sampled_from(["sqrt", "all"])),
                          bootstrap=draw(st.booleans()))
    return X, y, params, draw(st.integers(0, 2**32))


# trees whose nodes are all or mostly leaves: every root pure, every root
# too small to split, and every split's children at the depth limit
LEAF_X = np.array([[0.0, 1.0], [0.25, -1.0], [0.5, 2.0], [2.0, 0.0], [-1.0, 0.25], [0.5, 0.5]])
LEAF_Y = np.array([0, 1, 1, 0, 2, 1])
LEAF_CASES = [
    (LEAF_X, np.zeros(6, dtype=np.int64), ForestParams(n_trees=3, max_depth=4)),
    (LEAF_X, LEAF_Y, ForestParams(n_trees=3, min_samples_split=7)),
    (LEAF_X, LEAF_Y, ForestParams(n_trees=4, max_depth=1, feature_rule="all")),
]


@settings(max_examples=150, deadline=10_000)
@given(forest_case())
@example((*LEAF_CASES[0], 5))
@example((*LEAF_CASES[1], 6))
@example((*LEAF_CASES[2], 7))
def test_kernel_matches_reference_forest(case):
    X, y, params, seed = case
    forest = RandomForest(params, seed=seed).fit(X, y)
    reference = ReferenceForest(params, seed=seed).fit(X, y)
    assert preorder(forest) == reference.preorder()
    # rows on the thresholds themselves test the `<=` side of every split
    on_thresholds = np.array([np.resize(forest.threshold[forest.feature >= 0], X.shape[1])
                              if (forest.feature >= 0).any() else X[0]])
    for rows in (X, X[::-1] * 0.5, on_thresholds):
        assert np.array_equal(forest.predict(rows), reference.predict(rows))


def same_forest(got, expected):
    for name in ("roots", "feature", "threshold", "left", "right", "prediction"):
        assert np.array_equal(getattr(got, name), getattr(expected, name), equal_nan=True), name
    assert (got.depth, got.n_features, got.n_classes) == (
        expected.depth, expected.n_features, expected.n_classes)


@st.composite
def multi_forest_case(draw):
    n_rows = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 7))
    n_classes = draw(st.integers(1, 5))
    if draw(st.booleans()):  # few distinct values: many ties
        cell = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])
    else:
        cell = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    params = ForestParams(n_trees=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 7)),
                          min_samples_split=draw(st.integers(2, 5)),
                          feature_rule=draw(st.sampled_from(["sqrt", "all"])),
                          bootstrap=draw(st.booleans()))
    # subsets of every size, so forests of one batch draw different candidate counts
    subset = st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features,
                      unique=True)
    subsets = draw(st.lists(subset, min_size=1, max_size=5))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(subsets), max_size=len(subsets)))
    return X, y, params, subsets, seeds


@settings(max_examples=150, deadline=10_000)
@given(multi_forest_case(), st.sampled_from([1, 300, 65536]))
@example((*LEAF_CASES[0], [[0, 1], [1]], [5, 6]), 65536)
@example((*LEAF_CASES[1], [[1], [0, 1]], [6, 7]), 300)
@example((*LEAF_CASES[2], [[0], [0, 1], [1]], [7, 8, 9]), 1)
def test_fit_forests_matches_separate_fits(case, pass_counts):
    X, y, params, subsets, seeds = case
    expected = [RandomForest(params, seed=seed).fit(X[:, subset], y)
                for subset, seed in zip(subsets, seeds)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_PASS_COUNTS", pass_counts)
        forests = fit_forests(params, X, y, subsets, seeds)
    assert len(forests) == len(subsets)
    for forest, want, subset, seed in zip(forests, expected, subsets, seeds):
        assert forest.seed == seed
        same_forest(forest, want)
        for rows in (X, X[::-1] * 0.5):
            assert np.array_equal(forest.predict(rows[:, subset]), want.predict(rows[:, subset]))


@st.composite
def row_subset_case(draw):
    n_rows = draw(st.integers(2, 30))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 9))
    if draw(st.booleans()):  # few distinct values: many ties
        cell = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])
    else:
        cell = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    params = ForestParams(n_trees=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 6)),
                          min_samples_split=draw(st.integers(2, 5)),
                          feature_rule=draw(st.sampled_from(["sqrt", "all"])),
                          bootstrap=draw(st.booleans()))
    subset = st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features,
                      unique=True)
    subsets = draw(st.lists(subset, min_size=1, max_size=4))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(subsets), max_size=len(subsets)))
    # unsorted and repeated indices, a different count per forest
    rows = [draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=2 * n_rows))
            for _ in subsets]
    if draw(st.booleans()):  # every forest holds the highest label: the pass fits them all
        top = int(np.flatnonzero(y == y.max())[0])
        rows = [r + [top] for r in rows]
    return X, y, params, subsets, seeds, rows


# X, y and parameters shared by the explicit row-subset cases below
ROWS_X = np.arange(24.0).reshape(12, 2) % 7
ROWS_Y = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
ROWS_PARAMS = ForestParams(n_trees=3, max_depth=4, feature_rule="all")


@settings(max_examples=150, deadline=10_000)
@given(row_subset_case(), st.sampled_from([1, 300, 65536]))
# a forest lacks a middle class: its lone fit has the pass's class count
@example((ROWS_X, ROWS_Y, ROWS_PARAMS, [[0, 1], [1]], [3, 4],
          [[0, 3, 3, 11, 4], [5, 2, 7, 3, 3, 1, 0]]), 1)
# the only forest lacks y's highest class: it fits with one class fewer
@example((ROWS_X, ROWS_Y, ROWS_PARAMS, [[0, 1]], [5], [[0, 1, 2, 4, 5, 6, 9, 2]]), 300)
# one forest lacks the highest class the other holds: refused
@example((ROWS_X, ROWS_Y, ROWS_PARAMS, [[0], [1]], [6, 7], [[0, 1, 2], [3, 0, 1]]), 65536)
def test_fit_forests_on_row_subsets_matches_lone_fits(case, pass_counts):
    """Forest i of a pass over row subsets is node for node the lone fit on
    X[rows[i]][:, subsets[i]], its class count included, unless its rows lack
    the highest label of the pass, which refuses the pass."""
    X, y, params, subsets, seeds, rows = case
    tops = [y[r].max() for r in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_PASS_COUNTS", pass_counts)
        if min(tops) < max(tops):
            with pytest.raises(ValueError, match=f"lack class {max(tops)},"):
                fit_forests(params, X, y, subsets, seeds, rows)
            return
        forests = fit_forests(params, X, y, subsets, seeds, rows)
    for forest, subset, seed, r in zip(forests, subsets, seeds, rows, strict=True):
        want = RandomForest(params, seed=seed).fit(X[r][:, subset], y[r])
        same_forest(forest, want)
        assert np.array_equal(forest.predict(X[:, subset]), want.predict(X[:, subset]))


class TestFitForests:
    def test_golden_pin_cases_in_one_batch(self):
        # the pin cases that share a dataset and parameters, fitted together
        for first, second in ((0, 1), (2, 3)):
            data_seed, n_rows, n_features, n_classes, grid, params, _, _ = PIN_CASES[first]
            X, y, _ = pin_data(data_seed, n_rows, n_features, n_classes, grid)
            cases = (PIN_CASES[first], PIN_CASES[second])
            subsets = [[i for i, keep in enumerate(c[7]) if keep] for c in cases]
            forests = fit_forests(params, X, y, subsets, [c[6] for c in cases])
            for forest, subset, case in zip(forests, subsets, cases):
                same_forest(forest, RandomForest(params, seed=case[6]).fit(X[:, subset], y))

    def test_no_subsets_no_forests(self):
        X, y = separable_data()
        assert fit_forests(ForestParams(n_trees=2), X, y, [], []) == []

    @pytest.mark.parametrize("subsets, seeds, message", [
        ([[0]], [1, 2], "1 column subsets for 2 seeds"),
        ([[]], [1], "column subset"),
        ([[0, 3]], [1], "column subset"),
        ([[1, 1]], [1], "distinct"),
        ([[-1]], [1], "column subset"),
        ([[0.5]], [1], "column subset"),
        ([[[0, 1]]], [1], "column subset"),
    ])
    def test_bad_subsets_rejected(self, subsets, seeds, message):
        X, y = separable_data()
        with pytest.raises(ValueError, match=message):
            fit_forests(ForestParams(n_trees=2), X, y, subsets, seeds)

    @pytest.mark.parametrize("rows, message", [
        ([[0, 1], [2, 3]], "2 row subsets for 1 column subsets"),
        ([[]], "row subset"),
        ([[-1, 2]], "row subset"),
        ([[0, 80]], "row subset"),
        ([[0.5]], "row subset"),
        ([[[0, 1]]], "row subset"),
    ])
    def test_bad_rows_rejected(self, rows, message):
        X, y = separable_data()
        with pytest.raises(ValueError, match=message):
            fit_forests(ForestParams(n_trees=2), X, y, [[0]], [1], rows)


# bytes a grower may hold between the steps of the fit below; with numpy 2.4
# it holds at most 0.38 MB there, and one that kept every step's rows alive
# would hold 0.90 MB
GROWER_BYTES_BOUND = 560_000


def test_grower_memory_between_steps(monkeypatch):
    # a tree's pending nodes are segments of one sample buffer: nothing a step
    # makes outlives it but its splits, so what a grower holds between steps
    # stays near the buffer, the rank table and the nodes recorded so far
    rng = np.random.default_rng(5)
    X = rng.normal(size=(210, 9))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=210) > 0).astype(np.int64)
    params = ForestParams(n_trees=50, max_depth=12)
    RandomForest(params, seed=1).fit(X, y)  # first-call allocations stay out of the count
    held = []
    step = forest_module._Grower.step

    def recording_step(grower, trees, *args):
        held.append(tracemalloc.get_traced_memory()[0])
        return step(grower, trees, *args)

    monkeypatch.setattr(forest_module._Grower, "step", recording_step)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        RandomForest(params, seed=1).fit(X, y)
    finally:
        tracemalloc.stop()
    assert len(held) > 20
    assert max(held) - start <= GROWER_BYTES_BOUND
