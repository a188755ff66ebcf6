"""Random forest classifier built from scratch (CART trees, Gini impurity).

Small and deterministic on purpose: trees are grown with a seeded generator
each, so the same (data, seed) pair always yields the same predictions. Scope
is what the feature-selection cost function needs, nothing more.

The trees of one fit grow together. A tree draws one candidate permutation
per node it tries to split, in pre-order, so each tree grows depth-first; but
trees are independent, so every step takes the next pre-order node of each
tree that still has one and scores all of their candidate columns in one
batched numpy pass. A fitted forest is a set of flat pre-order node arrays
(feature, threshold, left, right, prediction), and ``predict`` walks every
tree for every row at once, one level per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import is_integer, mix_seed

_PASS_COUNTS = 16384  # (row, candidate, class) prefix counts one scoring pass aims to hold
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
        for name, low in (("n_trees", 1), ("max_depth", 1), ("min_samples_split", 2)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
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
        self.n_classes = int(y.max()) + 1
        self.n_features = X.shape[1]
        (self.roots, self.feature, self.threshold, self.left, self.right,
         self.prediction, self.depth) = _Grower(self, X, y).grow()
        return self

    def predict(self, X):
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
        y = np.asarray(y, dtype=np.int64)
        return float(np.mean(self.predict(X) == y))


class _Grower:
    """The trees of one fit, grown together one pre-order node per tree per step.

    As many trees grow at a time as keep the (row, candidate, class) triples
    of their roots within ``_PASS_COUNTS``, at least one; when one finishes,
    the next starts. A step whose nodes hold more triples scores their
    candidates a few columns per pass, so a pass holds at most
    max(``_PASS_COUNTS``, rows x classes) prefix counts. A tree's nodes are
    handled at consecutive steps from the step it starts, so its ``s``-th
    step handles its ``s``-th node in pre-order: a split node's left child is
    the next node of its tree, and the right child's stack entry carries its
    parent's node id.
    """

    def __init__(self, forest, X, y):
        self.params, self.n_classes, self.X, self.y = forest.params, forest.n_classes, X, y
        # each column's values as dense ranks into one table of sorted distinct values
        self.ranks = np.empty(X.shape, dtype=np.int64)
        values, offset = [], 0
        for j in range(X.shape[1]):
            uniq, inverse = np.unique(X[:, j], return_inverse=True)
            self.ranks[:, j] = inverse + offset
            values.append(uniq)
            offset += len(uniq)
        self.values = np.concatenate(values)
        self.n_ranks = len(self.values)
        self.k = self.params.n_candidates(X.shape[1])
        trees = range(self.params.n_trees)
        self.tile = np.tile(np.arange(X.shape[1]), (_DRAWS, 1))
        self.rngs = [np.random.default_rng(mix_seed(forest.seed, "tree", t)) for t in trees]
        self.perms = np.stack([rng.permuted(self.tile, axis=1) for rng in self.rngs])
        self.drawn = np.zeros(len(self.rngs), dtype=np.int64)
        self.stacks = []  # pending (rows, depth, parent id if a right child else -1)
        for t in trees:
            if self.params.bootstrap:
                rng = np.random.default_rng(mix_seed(forest.seed, "bootstrap", t))
                rows = rng.integers(0, len(X), size=len(X))
            else:
                rows = np.arange(len(X))
            self.stacks.append([(rows, 0, -1)])

    def candidates(self, trees):
        """Next candidate features (first ``k`` of a fresh permutation) of each tree."""
        cand = self.perms[trees, self.drawn[trees], :self.k]
        self.drawn[trees] += 1
        for t in trees[self.drawn[trees] == _DRAWS]:
            self.perms[t] = self.rngs[t].permuted(self.tile, axis=1)
            self.drawn[t] = 0
        return cand

    def grow(self):
        width = max(1, _PASS_COUNTS // (len(self.X) * self.k * self.n_classes))
        waiting = list(range(len(self.stacks)))[::-1]
        first_step = np.zeros(len(self.stacks), dtype=np.int64)
        active, steps = [], []
        while active or waiting:
            while waiting and len(active) < width:
                active.append(waiting.pop())
                first_step[active[-1]] = len(steps)
            entries = [self.stacks[t].pop() for t in active]
            trees = np.array(active)
            node_id = len(steps) - first_step[trees]
            depth = np.array([e[1] for e in entries])
            parent = np.array([e[2] for e in entries])
            steps.append((trees, node_id, depth, parent)
                         + self.step(trees, node_id, depth, entries))
            active = [t for t in active if self.stacks[t]]
        return self.assemble(steps)

    def step(self, trees, node_id, depth, entries):
        """Handle the next node of each tree: (feature, threshold, prediction) per node."""
        params, C, k = self.params, self.n_classes, self.k
        sizes = np.array([len(e[0]) for e in entries])
        rows = np.concatenate([e[0] for e in entries])
        node = np.arange(len(trees)).repeat(sizes)
        counts = np.bincount(node * C + self.y.take(rows),
                             minlength=len(trees) * C).reshape(-1, C)
        prediction = counts.argmax(axis=1)  # ties resolve to the lowest class index
        feature = np.full(len(trees), -1, dtype=np.int64)
        threshold = np.full(len(trees), np.nan)
        # a node tries to split when below the depth limit, large enough and impure
        tries = ((depth < params.max_depth) & (sizes >= params.min_samples_split)
                 & (counts.max(axis=1) < sizes)).nonzero()[0]
        if len(tries):
            cand = self.candidates(trees[tries])
            split_rows = np.concatenate([entries[a][0] for a in tries.tolist()])
            owner = np.arange(len(tries)).repeat(sizes[tries])
            label = self.y.take(split_rows)[:, None]
            gini, thr = np.empty((len(tries), k)), np.empty((len(tries), k))
            width = max(1, _PASS_COUNTS // (len(split_rows) * C))  # candidates per pass
            for j in range(0, k, width):
                cols = cand[owner, j:j + width]
                w = cols.shape[1]
                key = _split_keys(owner[:, None] * w + np.arange(w),
                                  self.ranks[split_rows[:, None], cols], label, self.n_ranks, C)
                g, t = _best_splits(key.ravel(), len(tries) * w, self.n_ranks, C, self.values)
                gini[:, j:j + w], thr[:, j:j + w] = g.reshape(-1, w), t.reshape(-1, w)
            pick = gini.argmin(axis=1)  # the first minimal candidate in permutation order
            at = np.arange(len(tries))
            ok = np.isfinite(gini[at, pick])
            feature[tries[ok]] = cand[at, pick][ok]
            threshold[tries[ok]] = thr[at, pick][ok]
            if ok.any():
                self.partition(trees, node_id, depth, rows, node, feature, threshold)
        return feature, threshold, prediction

    def partition(self, trees, node_id, depth, rows, node, feature, threshold):
        """Push the two children of every split node; the left one is handled next.

        ``rows`` holds each node's rows in one run, so compressing it by side
        keeps every node's left (right) rows in one run too. Rows of a node
        that does not split are sent right and never read.
        """
        go_left = self.X[rows, feature[node]] <= threshold[node]
        sides = []
        for mask in (go_left, ~go_left):
            ends = np.bincount(node[mask], minlength=len(trees)).cumsum().tolist()
            sides.append((rows[mask], [0] + ends))
        (left, left_at), (right, right_at) = sides
        for a in (feature >= 0).nonzero()[0].tolist():
            stack = self.stacks[trees[a]]
            stack.append((right[right_at[a]:right_at[a + 1]], depth[a] + 1, node_id[a]))
            stack.append((left[left_at[a]:left_at[a + 1]], depth[a] + 1, -1))

    def assemble(self, steps):
        """(roots, feature, threshold, left, right, prediction, depth) of the forest."""
        tree, node_id, depth, parent, feature, threshold, prediction = (
            np.concatenate(column) for column in zip(*steps))
        roots = np.concatenate(([0], np.bincount(tree).cumsum()[:-1]))
        at = roots[tree] + node_id
        order = at.argsort()
        feature, threshold, prediction = feature[order], threshold[order], prediction[order]
        nodes = np.arange(len(at))
        right = nodes.copy()
        is_right = parent >= 0
        right[roots[tree[is_right]] + parent[is_right]] = at[is_right]
        # a split node's left child comes next in pre-order; a leaf is its own child
        return (roots, feature, threshold, nodes + (feature >= 0), right, prediction,
                int(depth.max()))
