"""Random forest classifier built from scratch (CART trees, Gini impurity).

Small and deterministic on purpose: trees are grown with a seeded generator
each, so the same (data, seed) pair always yields the same predictions. Scope
is what the feature-selection cost function needs, nothing more.

The trees of one fit grow together, and ``fit_forests`` grows the trees of
several forests (each on its own subset of the columns) together too. A tree
draws one candidate permutation per node it tries to split, in pre-order, so
each tree grows depth-first; but trees are independent, so every step takes
each tree's next node that tries to split, recording the leaves that come
before it in pre-order on the way, and scores all of their candidate columns
in batched numpy passes. Leaves take no step. A fitted forest is a set of
flat pre-order node arrays (feature, threshold, left, right, prediction), and
``predict`` walks every tree for every row at once, one level per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import check_fields, mix_seed

_PASS_COUNTS = 65536  # (row, candidate, class) prefix counts one scoring pass aims to hold
_DRAWS = 32  # candidate permutations drawn from a tree's generator at a time
_HALF_MAX = 2.0 ** 1023  # two floats below this in magnitude have a finite sum


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 12
    min_samples_split: int = 2
    feature_rule: str = "sqrt"  # features considered per split
    bootstrap: bool = True

    def __post_init__(self):
        check_fields(self, {"n_trees": 1, "max_depth": 1, "min_samples_split": 2})
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be True or False, got {self.bootstrap!r}")
        if self.feature_rule not in ("sqrt", "all"):
            raise ValueError(f"unknown feature_rule {self.feature_rule!r}")

    def n_candidates(self, n_features: int) -> int:
        if self.feature_rule == "all":
            return n_features
        return max(1, int(math.sqrt(n_features) + 0.5))


def _bits(n: int) -> int:
    return int(n - 1).bit_length()


def _split_keys(segment, rank, label, n_ranks, n_classes):
    """Sort keys for `_best_splits`: segment, then value rank, then label, packed in bits."""
    return (segment << _bits(n_ranks) | rank) << _bits(n_classes) | label


def _side_counts(key, n_ranks, n_classes):
    """Class counts on both sides of every boundary between two values of a segment.

    Sorts ``key`` in place and leaves in it the (segment, rank) part of each
    sorted row. Returns the last row of the left side of each boundary, its
    segment's index among the segments present, and the left and right class
    counts as (classes, boundaries) arrays.
    """
    key.sort()
    cum = np.zeros((n_classes, len(key) + 1), dtype=np.int32)  # class counts before each row
    np.cumsum((key & ((1 << _bits(n_classes)) - 1)) == np.arange(n_classes)[:, None],
              axis=1, dtype=np.int32, out=cum[:, 1:])
    key >>= _bits(n_classes)
    seg = key >> _bits(n_ranks)
    new_seg = seg[1:] != seg[:-1]
    # a boundary follows the last row of a value group when its segment goes on
    bound = ((key[1:] != key[:-1]) & ~new_seg).nonzero()[0]
    edges = np.concatenate(([True], new_seg, [True])).nonzero()[0]
    owner = edges.searchsorted(bound, side="right") - 1
    cut = cum.take(bound + 1, axis=1)
    return (bound, owner, cut - cum.take(edges[owner], axis=1),
            cum.take(edges[owner + 1], axis=1) - cut)


def _gini(counts, n_rows):
    """Gini impurity of each side from its (classes, boundaries) counts and rows.

    The squared class shares are laid out (boundaries, classes), as in a
    per-column split search, so numpy sums each side's classes in that order.
    """
    shares = counts.T.astype(float, order="C")
    shares /= n_rows[:, None]
    return 1.0 - np.square(shares, out=shares).sum(axis=1)


def _best_splits(key, n_segments, n_ranks, n_classes, values):
    """Best threshold of each segment by weighted Gini of the two sides.

    A segment is one candidate column of one node; each of its rows is a key
    from `_split_keys`, whose rank indexes ``values``. Sorting the keys (in
    place) groups the rows by segment and value. Prefix class counts at each
    boundary between two values of a segment give the two sides' impurities,
    and the first minimum over a segment's boundaries is its split. Returns
    (weighted Gini, threshold) per segment, (inf, nan) for a segment with one
    value.
    """
    gini = np.full(n_segments, np.inf)
    threshold = np.full(n_segments, np.nan)
    bound, owner, lc, rc = _side_counts(key, n_ranks, n_classes)
    if len(bound) == 0:
        return gini, threshold
    n_left = lc.sum(axis=0, dtype=float)
    n_right = rc.sum(axis=0, dtype=float)
    weighted = n_left * _gini(lc, n_left)
    weighted += n_right * _gini(rc, n_right)
    weighted /= n_left + n_right

    # the first minimum of each segment's run of boundaries
    first = np.concatenate(([True], owner[1:] != owner[:-1]))
    run = first.nonzero()[0]
    low = np.minimum.reduceat(weighted, run)
    hit = (weighted == low[first.cumsum() - 1]).nonzero()[0]
    best = bound[hit[hit.searchsorted(run)]]
    seg = key[best] >> _bits(n_ranks)
    rank_mask = (1 << _bits(n_ranks)) - 1
    gini[seg] = low
    below = values[key[best] & rank_mask]
    above = values[key[best + 1] & rank_mask]  # above > below
    if above.max() < _HALF_MAX and below.min() > -_HALF_MAX:
        threshold[seg] = 0.5 * (below + above)  # no sum can pass the float maximum
    else:
        # halve the two values first where their sum does; only this path
        # enters np.errstate, which on every call slowed fselect-desk by ~5%
        with np.errstate(over="ignore"):
            mid = 0.5 * (below + above)
        overflow = np.isinf(mid)
        mid[overflow] = 0.5 * below[overflow] + 0.5 * above[overflow]
        threshold[seg] = mid
    return gini, threshold


def _validated(X, y):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"features must be a 2-D array with at least one column, "
                         f"got shape {X.shape}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-D array, got shape {labels.shape}")
    if len(X) != len(labels):
        raise ValueError("features and labels disagree in length")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (no NaN or infinity)")
    whole = labels.dtype.kind in "iub" or (
        labels.dtype.kind == "f" and np.isfinite(labels).all()
        and (labels == np.floor(labels)).all())
    if not whole:
        raise ValueError("labels must be integer class indices")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    return X, labels.astype(np.int64)


class RandomForest:
    """Bootstrap ensemble of CART trees with majority voting.

    After ``fit`` the trees are flat pre-order node arrays: tree ``t`` holds
    nodes ``roots[t]`` up to ``roots[t + 1]`` (or the end). A leaf has
    ``feature`` -1 and is its own left and right child; an internal node sends
    a row left when ``row[feature] <= threshold``.
    """

    def __init__(self, params: ForestParams | None = None, seed: int = 0):
        self.params = params or ForestParams()
        self.seed = int(seed)
        self.n_classes = self.n_features = self.depth = 0
        # flat pre-order nodes of every tree, set by fit
        self.roots = self.feature = self.threshold = self.left = self.right = self.prediction = None

    def fit(self, X, y):
        X, y = _validated(X, y)
        _Grower([self], X, y, [np.arange(X.shape[1])]).grow()
        return self

    def predict(self, X):
        if self.roots is None:
            raise ValueError("the forest is not fitted: call fit first")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"features must be a 2-D array with {self.n_features} "
                             f"column(s), got shape {X.shape}")
        values = X.ravel()
        rows = np.arange(len(X))
        row_start = rows * self.n_features
        node = np.repeat(self.roots[:, None], len(X), axis=1)  # (trees, rows)
        for _ in range(self.depth):
            # a leaf reads an arbitrary value (its feature is -1) and stays put
            go_left = values.take(row_start + self.feature.take(node)) <= self.threshold.take(node)
            node = np.where(go_left, self.left.take(node), self.right.take(node))
        votes = np.bincount((rows * self.n_classes + self.prediction.take(node)).ravel(),
                            minlength=len(X) * self.n_classes)
        # ties resolve to the lowest class index
        return votes.reshape(len(X), self.n_classes).argmax(axis=1)

    def accuracy(self, X, y) -> float:
        predicted = self.predict(X)
        y = np.asarray(y, dtype=np.int64)
        if y.shape != predicted.shape:
            raise ValueError(f"labels must be a 1-D array of {len(predicted)} class indices, "
                             f"got shape {y.shape}")
        return float(np.mean(predicted == y))


def fit_forests(params: ForestParams, X, y, column_subsets, seeds) -> list[RandomForest]:
    """One forest per (column subset, seed), all grown in one pass.

    Forest ``i`` is node for node ``RandomForest(params, seeds[i]).fit(X[:,
    column_subsets[i]], y)``: its features index its own subset.
    """
    X, y = _validated(X, y)
    subsets = [np.asarray(s) for s in column_subsets]
    if len(subsets) != len(seeds):
        raise ValueError(f"{len(subsets)} column subsets for {len(seeds)} seeds")
    for s in subsets:
        if (s.ndim != 1 or len(s) == 0 or s.dtype.kind not in "iu" or s.min() < 0
                or s.max() >= X.shape[1] or len(np.unique(s)) < len(s)):
            raise ValueError(f"a column subset must list distinct column indices below "
                             f"{X.shape[1]}, got {s.tolist()!r}")
    forests = [RandomForest(params, seed) for seed in seeds]
    if forests:
        _Grower(forests, X, y, subsets).grow()
    return forests


class _Grower:
    """The trees of one or more forests, grown together one split-trying node
    per tree per step.

    A node's prediction, and whether it tries to split (below the depth limit,
    at least ``min_samples_split`` rows, impure), are worked out when it is
    pushed: for the roots in ``__init__``, for the children of a step's split
    nodes in ``partition``. A node that does not try is a leaf and carries no
    rows. Each step pops, for every active tree, the run of leaves on top of
    its stack, which it records with no numpy work, then its next split-trying
    node; a tree whose stack holds only leaves takes just its leaf run and
    finishes. Each tree numbers its nodes as they are popped, so in pre-order:
    a split node's left child is popped next, and the right child's stack
    entry carries its parent's node id.

    Trees are admitted in order while their roots' (row, class) counts stay
    within ``_PASS_COUNTS``, at least one; when one finishes, the next starts.
    A node holds at most its root's rows, so a step holds at most
    max(``_PASS_COUNTS``, rows x classes) (row, class) counts, and scoring
    its candidates a few columns per pass keeps each pass within that. Each
    tree keeps its forest's column map and candidate count and its own
    generators; a split-trying node takes its tree's next candidate
    permutation, so every tree draws in pre-order as if grown alone.
    Candidates are columns of ``X`` until ``assemble`` maps them back to each
    forest's own; candidate lists shorter than the longest are padded with -1,
    which no pass scores.
    """

    def __init__(self, forests, X, y, subsets):
        self.forests, self.subsets, self.X, self.y = forests, subsets, X, y
        self.params = params = forests[0].params
        self.n_classes = C = int(y.max()) + 1
        # each used column's values as dense ranks into one table of sorted distinct values
        self.ranks = np.zeros(X.shape, dtype=np.int64)
        values, offset = [], 0
        for j in np.unique(np.concatenate(subsets)).tolist():
            uniq, inverse = np.unique(X[:, j], return_inverse=True)
            self.ranks[:, j] = inverse + offset
            values.append(uniq)
            offset += len(uniq)
        self.values = np.concatenate(values)
        self.n_ranks = len(self.values)
        n_trees = params.n_trees
        self.forest_k = [params.n_candidates(len(s)) for s in subsets]
        self.k = max(self.forest_k)
        # each forest's own index of a column of X; index -1 gives -1
        self.own_index = np.full((len(forests), X.shape[1] + 1), -1, dtype=np.int64)
        for f, s in enumerate(subsets):
            self.own_index[f, s] = np.arange(len(s))
        self.tiles = [np.tile(np.arange(len(s)), (_DRAWS, 1)) for s in subsets]
        self.forest = np.arange(len(forests)).repeat(n_trees)  # of each tree
        self.rngs = [np.random.default_rng(mix_seed(forest.seed, "tree", t))
                     for forest in forests for t in range(n_trees)]
        self.perms = np.full((len(self.rngs), _DRAWS, self.k), -1, dtype=np.int64)
        for t in range(len(self.rngs)):
            self.refill(t)
        self.drawn = np.zeros(len(self.rngs), dtype=np.int64)
        roots = []
        for forest in forests:
            for t in range(n_trees):
                if params.bootstrap:
                    rng = np.random.default_rng(mix_seed(forest.seed, "bootstrap", t))
                    roots.append(rng.integers(0, len(X), size=len(X)))
                else:
                    roots.append(np.arange(len(X)))
        counts = np.bincount(np.arange(len(roots)).repeat(len(X)) * C
                             + y.take(np.concatenate(roots)),
                             minlength=len(roots) * C).reshape(-1, C)
        tries, prediction = self.tries_and_prediction(counts, 0)
        # pending (rows if it tries to split else None, depth,
        # parent id if a right child else -1, prediction) of each tree
        self.stacks = [[(rows if tried else None, 0, -1, p)]
                       for rows, tried, p in zip(roots, tries, prediction)]
        # parent id (-1 unless a right child) and prediction of each tree's nodes as popped
        self.parents = [[] for _ in roots]
        self.predictions = [[] for _ in roots]

    def tries_and_prediction(self, counts, depth):
        """Whether each node tries to split (below the depth limit, large
        enough and impure) and its prediction, from its class counts."""
        params = self.params
        sizes = counts.sum(axis=1)
        tries = (depth < params.max_depth) & (sizes >= params.min_samples_split) & (
            counts.max(axis=1) < sizes)
        # ties resolve to the lowest class index
        return tries.tolist(), counts.argmax(axis=1).tolist()

    def refill(self, t):
        """A fresh batch of candidate permutations for tree ``t``: the first
        ``k`` columns of each."""
        f = self.forest[t]
        k = self.forest_k[f]
        self.perms[t, :, :k] = self.subsets[f][self.rngs[t].permuted(self.tiles[f], axis=1)[:, :k]]

    def candidates(self, trees):
        """Next candidate features (first ``k`` of a fresh permutation) of each tree."""
        cand = self.perms[trees, self.drawn[trees]]
        self.drawn[trees] += 1
        for t in trees[self.drawn[trees] == _DRAWS]:
            self.refill(t)
            self.drawn[t] = 0
        return cand

    def grow(self):
        width = max(1, _PASS_COUNTS // (len(self.X) * self.n_classes))
        waiting = list(range(len(self.stacks)))[::-1]
        active, steps = [], []
        while active or waiting:
            while waiting and len(active) < width:
                active.append(waiting.pop())
            split = []  # (tree, node id, depth, rows) of each split-trying node
            for t in active:
                stack, parents, predictions = self.stacks[t], self.parents[t], self.predictions[t]
                while stack:
                    rows, depth, parent, prediction = stack.pop()
                    parents.append(parent)
                    predictions.append(prediction)
                    if rows is not None:
                        split.append((t, len(parents) - 1, depth, rows))
                        break
            if split:
                steps.append(self.step(split))
            active = [t for t in active if self.stacks[t]]
        self.assemble(steps)

    def step(self, split):
        """Split each tree's split-trying node on its best candidate, if any has
        two sides: (tree, node id, depth, feature, threshold) per node."""
        C = self.n_classes
        trees, node_id, depth = (np.array([s[i] for s in split]) for i in range(3))
        sizes = np.array([len(s[3]) for s in split])
        rows = np.concatenate([s[3] for s in split])
        node = np.arange(len(split)).repeat(sizes)
        label = self.y.take(rows)
        cand = self.candidates(trees)
        gini, thr = np.empty(cand.shape), np.empty(cand.shape)
        width = max(1, _PASS_COUNTS // (len(rows) * C))  # candidates per pass
        for j in range(0, self.k, width):
            cols = cand[node, j:j + width]
            w = cols.shape[1]
            key = _split_keys(node[:, None] * w + np.arange(w),
                              self.ranks[rows[:, None], cols], label[:, None], self.n_ranks, C)
            key = key[cols >= 0]
            g, t = _best_splits(key, len(split) * w, self.n_ranks, C, self.values)
            gini[:, j:j + w], thr[:, j:j + w] = g.reshape(-1, w), t.reshape(-1, w)
        pick = gini.argmin(axis=1)  # the first minimal candidate in permutation order
        at = np.arange(len(split))
        ok = np.isfinite(gini[at, pick])
        feature = np.where(ok, cand[at, pick], -1)
        threshold = np.where(ok, thr[at, pick], np.nan)
        if ok.any():
            self.partition(split, depth, rows, node, label, feature, threshold)
        return trees, node_id, depth, feature, threshold

    def partition(self, split, depth, rows, node, label, feature, threshold):
        """Push the two children of every split node; the left one is popped next.

        One bincount keyed by (node, side, label) gives every child's class
        counts, so its prediction and whether it tries to split. A leaf child
        carries no rows, a split-trying child its own copy of them. ``rows``
        holds each node's rows in one run, so compressing it by side keeps
        every node's left (right) rows in one run too. Rows of a node that
        does not split are sent right and never read.
        """
        go_right = ~(self.X[rows, feature[node]] <= threshold[node])
        counts = np.bincount((node * 2 + go_right) * self.n_classes + label,
                             minlength=2 * len(split) * self.n_classes).reshape(2 * len(split), -1)
        tries, prediction = self.tries_and_prediction(counts, depth.repeat(2) + 1)
        sizes = counts.sum(axis=1)
        left, right = rows[~go_right], rows[go_right]
        left_at = [0] + sizes[0::2].cumsum().tolist()
        right_at = [0] + sizes[1::2].cumsum().tolist()
        for a in (feature >= 0).nonzero()[0].tolist():
            t, node_id, node_depth = split[a][:3]
            stack = self.stacks[t]
            stack.append((right[right_at[a]:right_at[a + 1]].copy() if tries[2 * a + 1] else None,
                          node_depth + 1, node_id, prediction[2 * a + 1]))
            stack.append((left[left_at[a]:left_at[a + 1]].copy() if tries[2 * a] else None,
                          node_depth + 1, -1, prediction[2 * a]))

    def assemble(self, steps):
        """Set each forest's flat node arrays from the popped nodes and the steps' splits."""
        sizes = [len(p) for p in self.parents]
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        nodes = np.arange(sum(sizes))
        parent, prediction = (np.fromiter(chain.from_iterable(column), np.int64, len(nodes))
                              for column in (self.parents, self.predictions))
        tree = np.arange(len(sizes)).repeat(sizes)
        feature = np.full(len(nodes), -1, dtype=np.int64)
        threshold = np.full(len(nodes), np.nan)
        n_forests, n_trees = len(self.forests), self.params.n_trees
        # a forest's depth is one more than its deepest split node's, 0 with none
        depth = np.zeros(n_forests, dtype=np.int64)
        if steps:
            split_tree, node_id, split_depth, split_feature, split_threshold = (
                np.concatenate(column) for column in zip(*steps))
            ok = split_feature >= 0
            at = roots[split_tree] + node_id
            feature[at], threshold[at] = split_feature, split_threshold
            np.maximum.at(depth, self.forest[split_tree[ok]], split_depth[ok] + 1)
        right = nodes.copy()
        is_right = parent >= 0
        right[roots[tree[is_right]] + parent[is_right]] = nodes[is_right]
        # a split node's left child comes next in pre-order; a leaf is its own child
        left = nodes + (feature >= 0)
        feature = self.own_index[self.forest[tree], feature]
        ends = np.append(roots[::n_trees][1:], len(nodes))
        for f, forest in enumerate(self.forests):
            first, end = roots[f * n_trees], ends[f]
            forest.n_classes = self.n_classes
            forest.n_features = len(self.subsets[f])
            forest.roots = roots[f * n_trees:(f + 1) * n_trees] - first
            forest.left, forest.right = left[first:end] - first, right[first:end] - first
            forest.feature, forest.threshold = feature[first:end], threshold[first:end]
            forest.prediction = prediction[first:end]
            forest.depth = int(depth[f])
