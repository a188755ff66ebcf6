"""Reference random forest: one recursive CART tree at a time.

This is the straightforward form of the kernel in ``chmopt.forest``, kept as
the oracle its tests compare against. Each tree draws ``rng.permutation`` once
per node it tries to split, in pre-order; each candidate column is sorted and
scanned with one-hot prefix counts; predictions walk one row at a time. The
batched kernel must reproduce every node and every prediction exactly.
"""
import math

import numpy as np

from chmopt.core import mix_seed


class Node:
    __slots__ = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.prediction = None


def gini_best_split(column, y, n_classes):
    """Best threshold of one feature column by weighted Gini of the two sides."""
    order = np.argsort(column, kind="stable")
    values = column[order]
    labels = y[order]
    n = len(values)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), labels] = 1.0
    left_counts = np.cumsum(one_hot, axis=0)  # counts for splits after row i
    total = left_counts[-1]

    # candidate boundaries: positions where the value actually changes
    change = np.nonzero(values[1:] > values[:-1])[0]
    if len(change) == 0:
        return None, None
    n_left = (change + 1).astype(float)
    n_right = n - n_left
    lc = left_counts[change]
    rc = total - lc
    gini_left = 1.0 - ((lc / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((rc / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    below, above = values[change[best]], values[change[best] + 1]
    with np.errstate(over="ignore"):
        threshold = 0.5 * (below + above)
    if np.isinf(threshold):  # the sum passed the float maximum
        threshold = 0.5 * below + 0.5 * above
    return float(weighted[best]), float(threshold)


class ReferenceTree:
    """CART classifier with random feature subsets per split."""

    def __init__(self, params, n_classes, seed):
        self.params = params
        self.n_classes = n_classes
        self.rng = np.random.default_rng(seed)
        self.root = None

    def fit(self, X, y):
        self.root = self._build(X, y, depth=0)
        return self

    def _n_candidates(self, n_features):
        if self.params.feature_rule == "all":
            return n_features
        return max(1, int(math.sqrt(n_features) + 0.5))

    def _build(self, X, y, depth):
        node = Node()
        node.prediction = int(np.argmax(np.bincount(y, minlength=self.n_classes)))
        if (depth >= self.params.max_depth
                or len(y) < self.params.min_samples_split
                or len(np.unique(y)) == 1):
            return node

        n_features = X.shape[1]
        k = self._n_candidates(n_features)
        candidates = self.rng.permutation(n_features)[:k]
        best_gini, best_feature, best_threshold = None, None, None
        for f in candidates:
            gini, threshold = gini_best_split(X[:, f], y, self.n_classes)
            if gini is None:
                continue
            if best_gini is None or gini < best_gini:
                best_gini, best_feature, best_threshold = gini, int(f), threshold
        if best_feature is None:
            return node

        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X):
        out = np.empty(len(X), dtype=np.int64)
        for i, row in enumerate(X):
            node = self.root
            while node.feature is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def preorder(self):
        """(feature, threshold, prediction) of every node, leaves with feature -1."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.feature is None:
                out.append((-1, None, node.prediction))
            else:
                out.append((node.feature, node.threshold, node.prediction))
                stack += [node.right, node.left]
        return out


class ReferenceForest:
    """Bootstrap ensemble of reference trees with majority voting."""

    def __init__(self, params, seed=0):
        self.params = params
        self.seed = int(seed)
        self.trees = []
        self.n_classes = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = int(y.max()) + 1
        self.trees = []
        for t in range(self.params.n_trees):
            tree_seed = mix_seed(self.seed, "tree", t)
            rng = np.random.default_rng(mix_seed(self.seed, "bootstrap", t))
            if self.params.bootstrap:
                idx = rng.integers(0, len(X), size=len(X))
                Xt, yt = X[idx], y[idx]
            else:
                Xt, yt = X, y
            self.trees.append(ReferenceTree(self.params, self.n_classes, tree_seed).fit(Xt, yt))
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        votes = np.zeros((len(X), self.n_classes), dtype=np.int64)
        for tree in self.trees:
            votes[np.arange(len(X)), tree.predict(X)] += 1
        return np.argmax(votes, axis=1)  # ties resolve to the lowest class index

    def preorder(self):
        return [tree.preorder() for tree in self.trees]
