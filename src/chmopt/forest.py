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
in batched numpy passes. Leaves take no step; the rows of all trees share one
buffer that splits reorder in place, so the per-node work of a step is array
operations over its trees (`_Grower`), and scoring adds up class shares
class-major in numpy's own summation order (`_gini`). A fitted forest is a
set of flat pre-order node arrays (feature, threshold, left, right,
prediction), and ``predict`` walks every tree for every row at once, one level
per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        check_fields(vars(self), {"n_trees": 1, "max_depth": 1, "min_samples_split": 2},
                     flags=("bootstrap",))
        if self.feature_rule not in ("sqrt", "all"):
            raise ValueError(f"unknown feature_rule {self.feature_rule!r}")

    def n_candidates(self, n_features: int) -> int:
        if self.feature_rule == "all":
            return n_features
        return max(1, int(math.sqrt(n_features) + 0.5))


def _bits(n: int) -> int:
    return int(n - 1).bit_length()


def _side_counts(key, n_ranks, n_classes):
    """Class counts on both sides of every boundary between two values of a segment.

    Sorts ``key`` in place and leaves in it the (segment, rank) part of each
    sorted row. Returns the last row of the left side of each boundary, its
    segment, the (classes, side, boundaries) class counts and the (side,
    boundaries) row counts, left side first; counts are floats, which hold
    them exactly. With no boundary, the counts are None.
    """
    key.sort()
    # counts before each row of every class but the last, whose count is the rest
    cum = np.zeros((n_classes - 1, len(key) + 1), dtype=np.int32)
    np.cumsum((key & ((1 << _bits(n_classes)) - 1)) == np.arange(n_classes - 1)[:, None],
              axis=1, dtype=np.int32, out=cum[:, 1:])
    key >>= _bits(n_classes)
    seg = key >> _bits(n_ranks)
    new_seg = seg[1:] != seg[:-1]
    # a boundary follows the last row of a value group when its segment goes on
    bound = ((key[1:] != key[:-1]) & ~new_seg).nonzero()[0]
    if len(bound) == 0:
        return bound, bound, None, None
    # the first row and the end of each segment present, looked up by segment
    edges = np.concatenate(([True], new_seg, [True])).nonzero()[0]
    present = seg.take(edges[:-1])
    starts, ends = np.empty((2, present[-1] + 1), dtype=np.int64)
    starts[present], ends[present] = edges[:-1], edges[1:]
    owner = seg.take(bound)
    first, cut, end = starts.take(owner), bound + 1, ends.take(owner)
    sizes = np.empty((2, len(bound)))
    np.subtract(cut, first, out=sizes[0])
    np.subtract(end, cut, out=sizes[1])
    counts = np.empty((n_classes, 2, len(bound)))
    at_cut = cum.take(cut, axis=1)
    np.subtract(at_cut, cum.take(first, axis=1), out=counts[:-1, 0])
    np.subtract(cum.take(end, axis=1), at_cut, out=counts[:-1, 1])
    counts[-1] = sizes
    for row in counts[:-1]:
        counts[-1] -= row
    return bound, owner, counts, sizes


def _class_sum(a):
    """Sum over the first axis of a (classes, ...) float array.

    Each column is added up in the order numpy's pairwise summation adds up a
    contiguous row of ``a.T``, so the result is bit for bit that of
    ``a.T.astype(float, order="C").sum(axis=1)``: one row after another below
    8 rows, 8 running sums combined pairwise (then the remainder) up to 128,
    and two halves, each a multiple of 8 long but the last, above that.
    Working on whole rows, it makes one numpy call per class rather than one
    reduction per boundary.
    """
    n = len(a)
    if n < 8:
        total = a[0].copy()
        for row in a[1:]:
            total += row
        return total
    if n <= 128:
        r = a[:8].copy()
        for i in range(8, n - n % 8, 8):
            r += a[i:i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in a[n - n % 8:]:
            total += row
        return total
    half = n // 2 - n // 2 % 8
    return _class_sum(a[:half]) + _class_sum(a[half:])


def _gini(counts, n_rows):
    """Gini impurity of each side from its (classes, ...) float counts and
    rows; overwrites the counts with the squared class shares.

    The shares stay in the counts' class-major layout, and `_class_sum` adds
    up each side's classes in the order a per-column split search, which
    lays them out (boundaries, classes), would.
    """
    counts /= n_rows
    total = _class_sum(np.square(counts, out=counts))
    return np.subtract(1.0, total, out=total)


def _best_splits(key, n_segments, n_ranks, n_classes, values):
    """Best threshold of each segment by weighted Gini of the two sides.

    A segment is one candidate column of one node; each of its rows is a key
    ``(segment << bits(n_ranks) | rank) << bits(n_classes) | label``, whose
    rank indexes ``values``, in an int32 or int64 array. Sorting the keys (in
    place) groups the rows by segment and value. Prefix class counts at each
    boundary between two values of a segment give the two sides' impurities,
    and the first minimum over a segment's boundaries is its split. Returns
    (weighted Gini, threshold) per segment, (inf, nan) for a segment with one
    value.
    """
    gini = np.full(n_segments, np.inf)
    threshold = np.full(n_segments, np.nan)
    bound, owner, counts, sizes = _side_counts(key, n_ranks, n_classes)
    if len(bound) == 0:
        return gini, threshold
    sides = _gini(counts, sizes)
    sides *= sizes
    weighted = sides[0] + sides[1]
    weighted /= sizes[0] + sizes[1]

    # the first minimum of each segment's run of boundaries
    first = np.concatenate(([True], owner[1:] != owner[:-1]))
    run = first.nonzero()[0]
    low = np.minimum.reduceat(weighted, run)
    lowest = np.empty(owner[-1] + 1)
    lowest[owner[run]] = low
    hit = (weighted == lowest.take(owner)).nonzero()[0]
    pick = hit[hit.searchsorted(run)]
    best, seg = bound[pick], owner[pick]
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


class _Words:
    """A seed sequence that hands a PCG64 the state words worked out for it;
    `_generators` registers it as numpy's ISeedSequence, so that importing
    this module does not load ``numpy.random``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # the 4 uint64 words a PCG64 asks for


def _generators(seeds):
    """``np.random.default_rng(seed)`` for each seed below 2**64, seeded together.

    Such a generator is a PCG64 whose state ``SeedSequence(seed)`` makes: it
    hashes the seed's two 32-bit words into a pool of 4, mixes the pool, and
    hashes the pool into 8 words (numpy's ``bit_generator.pyx``, fixed by its
    stream compatibility policy). Each hash step xors in one multiplier and
    multiplies by the next, a sequence that does not depend on the seed, so
    the steps run as uint32 array operations over all seeds at once; one
    ``SeedSequence`` costs about 12 us, ten times the generator.
    """
    np.random.bit_generator.ISeedSequence.register(_Words)
    mix_steps, draw_steps = [0x43b0d7e5], [0x8b51f9dd]
    for steps, factor, n in ((mix_steps, 0x931e8875, 16), (draw_steps, 0x58f38ded, 8)):
        for _ in range(n):
            steps.append(steps[-1] * factor & 0xFFFFFFFF)
    mix_steps = np.array(mix_steps, dtype=np.uint32)[:, None]
    draw_steps = np.array(draw_steps, dtype=np.uint32)[:, None]

    def hashed(value, steps):  # row i of value hashed by steps i and i + 1
        value = (value ^ steps[:-1]) * steps[1:]
        return value ^ value >> np.uint32(16)

    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = hashed(pool, mix_steps[:5])
    for i in range(4):  # mix word i into the other three, in order
        others = [j for j in range(4) if j != i]
        value = (np.uint32(0xca01f9dd) * pool[others]
                 - np.uint32(0x4973f715) * hashed(pool[i], mix_steps[4 + 3 * i:8 + 3 * i]))
        pool[others] = value ^ value >> np.uint32(16)
    words = hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], draw_steps).T.astype("<u4", order="C")
    return [np.random.Generator(np.random.PCG64(_Words(w)))
            for w in words.view("<u8").astype(np.uint64)]


def _validated(X, y):
    X = np.ascontiguousarray(X, dtype=float)  # the grower reads it flat
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

    The rows of every tree lie in one flat ``samples`` buffer, tree ``t``'s
    root from ``t * n`` to ``(t + 1) * n`` for ``n`` rows, and a node is a
    segment of its tree's part. Splitting a node reorders its segment in
    place, stably, left rows first, so its children are the two halves (the
    layout of scikit-learn's splitter). A tree's pending nodes are disjoint
    segments, so the buffer never holds more than the roots.

    A node's prediction, and whether it tries to split (below the depth limit,
    at least ``min_samples_split`` rows, impure), are worked out when it is
    pushed: for the roots in ``__init__``, for the children of a step's split
    nodes in ``partition``. A node that does not try is a leaf, and its
    segment is empty. Each tree's pending nodes are a stack of rows of
    ``pending``: (segment start, segment size, depth, parent id if a right
    child else -1, prediction). Each step pops, for every active tree, the
    run of leaves on top of its stack, then its next split-trying node; a
    tree whose stack holds only leaves takes just its leaf run and finishes.
    Each tree numbers its nodes as they are popped, so in pre-order: a split
    node's left child is popped next, and the right child's entry carries
    its parent's node id. The pops and pushes of a step are array operations
    over its trees.

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
        # each used column's values as dense ranks into one table of sorted
        # distinct values, flat and shifted to their place in a sort key
        ranks = np.zeros(X.shape, dtype=np.int64)
        values, offset = [], 0
        for j in np.unique(np.concatenate(subsets)).tolist():
            uniq, inverse = np.unique(X[:, j], return_inverse=True)
            ranks[:, j] = inverse + offset
            values.append(uniq)
            offset += len(uniq)
        self.values = np.concatenate(values)
        self.n_ranks = len(self.values)
        self.segment_shift = _bits(self.n_ranks) + _bits(C)  # of a sort key's segment
        self.ranks = (ranks.ravel() << _bits(C)).astype(
            np.int32 if self.segment_shift < 32 else np.int64)
        n_trees = params.n_trees
        self.forest_k = [params.n_candidates(len(s)) for s in subsets]
        self.k = max(self.forest_k)
        # each forest's own index of a column of X; index -1 gives -1
        self.own_index = np.full((len(forests), X.shape[1] + 1), -1, dtype=np.int64)
        for f, s in enumerate(subsets):
            self.own_index[f, s] = np.arange(len(s))
        self.tiles = [np.tile(np.arange(len(s)), (_DRAWS, 1)) for s in subsets]
        self.forest = np.arange(len(forests)).repeat(n_trees)  # of each tree
        streams = ("tree", "bootstrap") if params.bootstrap else ("tree",)
        rngs = _generators([mix_seed(forest.seed, stream, t) for stream in streams
                            for forest in forests for t in range(n_trees)])
        self.rngs = rngs[:len(forests) * n_trees]
        self.perms = np.full((len(self.rngs), _DRAWS, self.k), -1, dtype=np.int64)
        for t in range(len(self.rngs)):
            self.refill(t)
        self.drawn = np.zeros(len(self.rngs), dtype=np.int64)
        n, n_all = len(X), len(self.rngs)
        if params.bootstrap:
            self.samples = np.concatenate([rng.integers(0, n, size=n) for rng in rngs[n_all:]])
        else:
            self.samples = np.tile(np.arange(n), n_all)
        counts = np.bincount(y.take(self.samples) * n_all + np.arange(n_all).repeat(n),
                             minlength=C * n_all).reshape(C, -1)
        tries, prediction = self.tries_and_prediction(counts, 0)
        # one root per stack; `partition` widens the stacks when a push needs it
        self.pending = np.zeros((n_all, 2, 5), dtype=np.int64)
        self.pending[:, 0, 0] = np.arange(n_all) * n
        self.pending[:, 0, 1] = n * tries
        self.pending[:, 0, 3] = -1
        self.pending[:, 0, 4] = prediction
        self.height = np.ones(n_all, dtype=np.int64)  # of each tree's stack
        self.popped = np.zeros(n_all, dtype=np.int64)  # nodes each tree has numbered

    def tries_and_prediction(self, counts, depth):
        """Whether each node tries to split (below the depth limit, large
        enough and impure) and its prediction, from its (classes, nodes)
        class counts."""
        params = self.params
        sizes = counts.sum(axis=0)
        tries = (depth < params.max_depth) & (sizes >= params.min_samples_split) & (
            counts.max(axis=0) < sizes)
        # ties resolve to the lowest class index
        return tries, counts.argmax(axis=0)

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
        n_all = len(self.rngs)
        width = max(1, _PASS_COUNTS // (len(self.X) * self.n_classes))
        active = np.arange(min(width, n_all))
        admitted = len(active)
        popped, steps = [], []  # popped: (tree, node id, parent id, prediction) rows
        while len(active):
            height, size = self.height[active], self.pending[active, :, 1]
            levels = size.shape[1]
            trying = (size > 0) & (np.arange(levels) < height[:, None])
            splits = trying.any(axis=1)
            # pop the topmost split-trying node and the leaves above it, or
            # the whole stack when it holds only leaves
            top = np.where(splits, levels - 1 - trying[:, ::-1].argmax(axis=1), 0)
            count = height - top
            tree = active.repeat(count)
            k = np.arange(len(tree)) - (count.cumsum() - count).repeat(count)
            nodes = np.empty((len(tree), 4), dtype=np.int32)
            nodes[:, 0], nodes[:, 1] = tree, self.popped[tree] + k
            nodes[:, 2:] = self.pending[tree, height.repeat(count) - 1 - k, 3:]
            popped.append(nodes)
            self.popped[active] += count
            self.height[active] = top
            if splits.any():
                trees, level = active[splits], top[splits]
                first, depth = self.pending[trees, level, 0], self.pending[trees, level, 2]
                steps.append(self.step(trees, self.popped[trees] - 1, depth, first,
                                       size[splits, level]))
            active = active[self.height[active] > 0]
            admit = min(width - len(active), n_all - admitted)
            if admit > 0:
                active = np.concatenate((active, np.arange(admitted, admitted + admit)))
                admitted += admit
        self.assemble(popped, steps)

    def step(self, trees, node_id, depth, start, size):
        """Split each tree's split-trying node, ``size`` rows from ``start`` in
        the sample buffer, on its best candidate, if any has two sides:
        (tree, node id, depth, feature, threshold) per node."""
        C = self.n_classes
        at = (start - (size.cumsum() - size)).repeat(size) + np.arange(size.sum())
        rows = self.samples.take(at)
        node = np.arange(len(trees)).repeat(size)
        label = self.y.take(rows)
        cand = self.candidates(trees)
        padded = (cand < 0).any()
        row_start = rows * self.X.shape[1]
        gini, thr = np.empty(cand.shape), np.empty(cand.shape)
        width = max(1, _PASS_COUNTS // (len(rows) * C))  # candidates per pass
        for j in range(0, self.k, width):
            cols = cand[:, j:j + width].repeat(size, axis=0)
            w = cols.shape[1]
            # segment j of a node is its j-th candidate of the pass
            dtype = np.int32 if _bits(len(trees) * w) + self.segment_shift < 32 else np.int64
            key = self.ranks.take(row_start[:, None] + cols).astype(dtype, copy=False)
            key += ((node * w << self.segment_shift) | label).astype(dtype)[:, None]
            key += np.arange(w, dtype=dtype) << self.segment_shift
            key = key[cols >= 0] if padded else key.ravel()
            g, t = _best_splits(key, len(trees) * w, self.n_ranks, C, self.values)
            gini[:, j:j + w], thr[:, j:j + w] = g.reshape(-1, w), t.reshape(-1, w)
        pick = gini.argmin(axis=1)  # the first minimal candidate in permutation order
        each = np.arange(len(trees))
        ok = np.isfinite(gini[each, pick])
        feature = np.where(ok, cand[each, pick], -1)
        threshold = np.where(ok, thr[each, pick], np.nan)
        if ok.any():
            self.partition(trees, node_id, depth, start, at, rows, node, label, feature,
                           threshold)
        return trees, node_id, depth, feature, threshold

    def partition(self, trees, node_id, depth, start, at, rows, node, label, feature, threshold):
        """Reorder every split node's segment, left rows first, and push its
        two children; the left one is popped next.

        ``at`` is the buffer position of each of the step's ``rows``, which
        hold each node's segment in one run. One bincount keyed by (node,
        side, label) gives every child's class counts, so its prediction and
        whether it tries to split, and one cumsum over the sides gives every
        row its new position. Rows of a node that does not split are sent
        right, which leaves its segment as it was.
        """
        C = self.n_classes
        go_right = ~(self.X.ravel().take(rows * self.X.shape[1] + feature.take(node))
                     <= threshold.take(node))
        counts = np.bincount(label * (2 * len(trees)) + node * 2 + go_right,
                             minlength=C * 2 * len(trees)).reshape(C, -1)
        tries, prediction = self.tries_and_prediction(counts, depth.repeat(2) + 1)
        sizes = counts.sum(axis=0).reshape(-1, 2)  # (left, right) of each node
        right_before = go_right.cumsum() - go_right  # of each row, over the whole step
        left_end = sizes[:, 0].cumsum()
        right_start = sizes[:, 1].cumsum() - sizes[:, 1]
        self.samples[at[np.where(go_right, left_end[node] + right_before,
                                 right_start[node] + np.arange(len(rows)) - right_before)]] = rows
        split = (feature >= 0).nonzero()[0]
        child = np.empty((len(split), 2, 5), dtype=np.int64)  # the right child, then the left
        child[:, 1, 0] = start[split]
        child[:, 0, 0] = start[split] + sizes[split, 0]
        child[:, :, 1] = (sizes * tries.reshape(-1, 2))[split, ::-1]
        child[:, :, 2] = depth[split, None] + 1
        child[:, 0, 3], child[:, 1, 3] = node_id[split], -1
        child[:, :, 4] = prediction.reshape(-1, 2)[split, ::-1]
        trees = trees[split]
        height = self.height[trees]
        if height.max() + 2 > self.pending.shape[1]:
            self.pending = np.concatenate((self.pending, np.zeros((len(self.pending), 2, 5),
                                                                  dtype=np.int64)), axis=1)
        self.pending[trees[:, None], height[:, None] + (0, 1)] = child
        self.height[trees] += 2

    def assemble(self, popped, steps):
        """Set each forest's flat node arrays from the popped nodes and the steps' splits."""
        sizes = self.popped
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        nodes = np.arange(sizes.sum())
        popped = np.concatenate(popped)
        parent, prediction = np.empty(len(nodes), dtype=np.int64), np.empty_like(nodes)
        at = roots[popped[:, 0]] + popped[:, 1]
        parent[at], prediction[at] = popped[:, 2], popped[:, 3]
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
