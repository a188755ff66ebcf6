"""Wrapper feature selection over CSV-ingested tabular data.

Feature masks are encoded as points in the unit cube (coordinate >= 0.5 means
"keep the feature"), so every inner optimizer and the hybrid orchestrator
search masks unchanged. The cost of a mask is the error rate of the built-in
random forest trained on the selected features, measured on an inner
validation split; reported errors come from a held-out test split.

The searches of every method and repetition run in lockstep: each runs in
its own thread, used only to suspend it, and the new masks they all ask for
in one round grow their forests together, in passes of at most
``_PASS_TREES`` trees, each on its repetition's training rows. A mask's cost
does not depend on which masks share its pass, so every search is what it
would be alone.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import queue
import statistics
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chm import ChmConfig
# unused here, kept importable: span tracers patch these two module attributes
from .chm import chm_run, run_segmented  # noqa: F401
from .core import SeededRng, check_fields, format_table, mix_seed, population_std
from .forest import ForestParams, RandomForest, fit_forests
from .harness import ALL_METHODS, check_methods, run_method

BASELINE_METHOD = "none"
SPLIT_FRACTION = 0.30  # of the rows held out for test, and of the rest for validation
# searches in flight, each in its own thread: all six methods of ten repetitions
_IN_FLIGHT = 64
# trees one fit pass grows at most: every node of a pass is held until its
# forests' costs are read (about 8 MB for 1024 trees of depth 12 on 150
# rows), while a step grows at most a few hundred trees at once
_PASS_TREES = 1024


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float matrix
    labels: np.ndarray  # (N,) integer class codes
    feature_names: tuple[str, ...]
    label_name: str
    dropped_rows: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx],
                       self.feature_names, self.label_name, 0)


def _encode_first_appearance(values):
    codes = {}
    out = []
    for v in values:
        if v not in codes:
            codes[v] = len(codes)
        out.append(codes[v])
    return out


def load_csv(path: str, label_column: str, strict: bool = False) -> Dataset:
    """Ingest a UTF-8 CSV (byte-order mark optional) with a header row that
    names each column, the label column among them, once.

    Rows with missing cells are dropped (and counted). Feature columns where
    every retained value parses as a number become numeric and must hold no
    nan or inf; other columns are integer-encoded by first appearance. In
    strict mode every feature column is treated as numeric and rows with
    unparseable cells are dropped instead.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                           f"at byte offset {exc.start}") from None
    # after decoding, so an error offset counts the byte-order mark's 3 bytes
    text = text.removeprefix("\ufeff")
    # Python 3.10's reader raises on a NUL, later ones read it as a character
    nul = text.find("\0")
    if nul >= 0:
        line = text.count("\n", 0, nul) + 1
        raise DatasetError(f"{path}: line {line} holds a NUL byte")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if label_column not in header:
        raise DatasetError(
            f"{path}: label column {label_column!r} not found; "
            f"available columns: {', '.join(header)}")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise DatasetError(f"{path}: column {repeated[0]!r} appears more than once "
                           f"in the header")
    if not data:
        raise DatasetError(f"{path}: no data rows")
    if len(header) < 3:
        raise DatasetError(f"{path}: need at least 2 feature columns")
    label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

    kept = [[cell.strip() for cell in row] for row in data
            if len(row) == len(header) and all(cell.strip() for cell in row)]

    def parses(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    if strict:
        kept = [row for row in kept
                if all(parses(cell) for i, cell in enumerate(row) if i != label_idx)]

    if not kept:
        raise DatasetError(f"{path}: all {len(data)} rows were dropped during ingestion")

    columns = list(zip(*kept))
    features = []
    for i, column in enumerate(columns):
        if i == label_idx:
            continue
        try:
            values = [float(cell) for cell in column]
        except ValueError:
            values = [float(c) for c in _encode_first_appearance(column)]
        else:
            if not all(map(math.isfinite, values)):
                raise DatasetError(f"{path}: feature column {header[i]!r} holds a "
                                   f"non-finite value (nan or inf)")
        features.append(values)
    labels = _encode_first_appearance(columns[label_idx])
    dataset = Dataset(
        features=np.array(features, dtype=float).T,
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
        label_name=label_column,
        dropped_rows=len(data) - len(kept),
    )
    if dataset.n_rows < 10:
        raise DatasetError(f"{path}: need at least 10 usable rows, got {dataset.n_rows}")
    counts = Counter(columns[label_idx])
    for value, count in counts.items():
        if count < 3:
            raise DatasetError(
                f"{path}: label {value!r} has only {count} row(s); each class needs "
                f"at least 3 rows, because the test and validation splits are "
                f"both stratified")
    return dataset


def split_dataset(dataset: Dataset, test_fraction: float,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Stratified-by-label random split into (train, test)."""
    train_rows, test_rows = _split_rows(dataset, test_fraction, seed)
    return dataset.subset(train_rows), dataset.subset(test_rows)


def _split_rows(dataset: Dataset, test_fraction: float, seed: int):
    """The sorted (train, test) row indices of `split_dataset`."""
    check_fields({"test_fraction": test_fraction}, reals={"test_fraction": "(0, 1)"})
    rng = SeededRng(seed)
    labels = dataset.labels
    classes = sorted(set(int(c) for c in labels))
    per_class = {c: [int(i) for i in np.nonzero(labels == c)[0]] for c in classes}
    for c, idx in per_class.items():
        if len(idx) < 2:
            raise DatasetError(f"class {c} has fewer than 2 members; cannot stratify")

    total_test = int(dataset.n_rows * test_fraction)
    alloc = {c: int(len(idx) * test_fraction) for c, idx in per_class.items()}
    remainders = sorted(
        classes,
        key=lambda c: (-(len(per_class[c]) * test_fraction - alloc[c]), c))
    i = 0
    while sum(alloc.values()) < total_test:
        alloc[remainders[i % len(remainders)]] += 1
        i += 1
    for c in classes:  # at least one test member per class, at least one in train
        alloc[c] = max(1, min(alloc[c], len(per_class[c]) - 1))
    while sum(alloc.values()) > total_test:
        donor = max(classes, key=lambda c: alloc[c])
        if alloc[donor] <= 1:
            break
        alloc[donor] -= 1

    test_idx = []
    for c in classes:
        idx = list(per_class[c])
        rng.shuffle(idx)
        test_idx.extend(idx[:alloc[c]])
    test_set = set(test_idx)
    train_idx = [i for i in range(dataset.n_rows) if i not in test_set]
    return np.array(train_idx, dtype=np.int64), np.array(sorted(test_idx), dtype=np.int64)


def decode_mask(position) -> tuple[bool, ...]:
    """Indicator mask at threshold 0.5 (inclusive)."""
    return tuple(p >= 0.5 for p in position)


def fs_cost(mask, train: Dataset, validation: Dataset,
            params: ForestParams, seed: int) -> float:
    """Error rate (1 - accuracy) of a forest trained on the masked features.

    An empty mask costs 1.0 without training; a single-class training set
    falls back to majority-class prediction.
    """
    columns = _columns(mask)
    cost = _untrained_cost(columns, np.unique(train.labels), validation)
    if cost is None:
        forest = RandomForest(params, seed=seed).fit(train.features[:, columns], train.labels)
        cost = _forest_cost(forest, columns, validation)
    return cost


def _columns(mask) -> list[int]:
    return [i for i, keep in enumerate(mask) if keep]


def _untrained_cost(columns, classes, validation: Dataset) -> float | None:
    """The cost of a mask that trains no forest, or None if it trains one."""
    if not columns:
        return 1.0
    if len(classes) == 1:
        return float(np.mean(validation.labels != classes[0]))
    return None


def _forest_cost(forest: RandomForest, columns, validation: Dataset) -> float:
    return 1.0 - forest.accuracy(validation.features[:, columns], validation.labels)


class _CachedMaskObjective:
    """Search-time costs of masks, cached per mask, for one repetition's searches.

    A mask's forest trains on the repetition's ``rows`` of ``train``, the
    rows outside its ``validation`` split. The search space has 2^d distinct
    masks; repeated evaluations of the same mask return the cached error
    without retraining, while the optimizer's budget accounting (which wraps
    each method's ``_Search``) still counts every call. ``new_masks`` caches
    the masks that train no forest and returns the ones that need one, which
    `_fit_round` fits.
    """

    def __init__(self, train, rows, validation, params, seed):
        self.train = train
        self.rows = rows
        self.validation = validation
        self.params = params
        self.seed = seed
        self.classes = np.unique(train.labels[rows])
        self.cache: dict[tuple[bool, ...], float] = {}

    def new_masks(self, masks) -> list[tuple[bool, ...]]:
        """The distinct uncached masks among ``masks`` that train a forest."""
        grown = []
        for mask in dict.fromkeys(masks):
            if mask not in self.cache:
                cost = _untrained_cost(_columns(mask), self.classes, self.validation)
                if cost is None:
                    grown.append(mask)
                else:
                    self.cache[mask] = cost
        return grown


def _cache_fits(jobs):
    """Cache in each ``(objective, mask, seed)`` of ``jobs`` the cost of the
    forest ``fs_cost`` fits for the mask on the objective's rows at that seed.

    The objectives share their ``train`` and forest parameters. The forests
    grow in ``fit_forests`` passes of at most ``_PASS_TREES`` trees (at least
    one forest), and a pass's forests are dropped once its costs are read.
    """
    if not jobs:
        return
    first = jobs[0][0]
    chunk = max(1, _PASS_TREES // first.params.n_trees)
    for i in range(0, len(jobs), chunk):
        part = jobs[i:i + chunk]
        forests = fit_forests(first.params, first.train.features, first.train.labels,
                              [_columns(mask) for _, mask, _ in part],
                              [seed for _, _, seed in part], [o.rows for o, _, _ in part])
        for (objective, mask, _), forest in zip(part, forests):
            objective.cache[mask] = _forest_cost(forest, _columns(mask), objective.validation)


def _fit_round(posted):
    """Cache the cost of each distinct (objective, mask) pair of ``posted``.

    Every forest is exactly the one ``fs_cost`` fits for its mask on its
    objective's rows, at the seed its mask mixes into the objective's. They
    grow together (`_cache_fits`); a lone one is fitted by ``fs_cost``,
    which perfbench's tracer wraps.
    """
    posted = list(dict.fromkeys(posted))
    if len(posted) == 1:
        objective, mask = posted[0]
        objective.cache[mask] = fs_cost(mask, objective.train.subset(objective.rows),
                                        objective.validation, objective.params,
                                        mix_seed(objective.seed, *mask))
    else:
        _cache_fits([(objective, mask, mix_seed(objective.seed, *mask))
                     for objective, mask in posted])


def _test_errors(masks, train: Dataset, test: Dataset, params: ForestParams, seed: int) -> dict:
    """``fs_cost`` of each distinct mask of ``masks`` on (train, test) at one
    seed, the forests grown together (`_cache_fits`)."""
    errors = _CachedMaskObjective(train, np.arange(train.n_rows), test, params, seed)
    _cache_fits([(errors, mask, seed) for mask in errors.new_masks(masks)])
    return errors.cache


class _Cancelled(BaseException):
    """Unwinds a suspended search whose lockstep run is being torn down."""


class _Search:
    """One method's search in its own thread, suspended while it waits for forests.

    The thread runs only between ``resume`` being called and returning, so the
    searches of a lockstep run take turns and never run at the same time.
    To the optimizer it is the mask objective: an evaluation whose masks are
    all cached, or train no forest, returns at once; otherwise the search
    posts its new masks and waits for the coordinator to fit them.
    """

    def __init__(self, objective: _CachedMaskObjective, name: str, run):
        self.objective = objective
        self.run = run
        self._turns = queue.SimpleQueue()  # to the search: True to go on, False to unwind
        self._posts = queue.SimpleQueue()  # from it: new masks, then (result,) or an error
        self.thread = threading.Thread(target=self._main, name=f"fselect-{name}",
                                       daemon=True)

    def __call__(self, position) -> float:
        return self.evaluate_many([position])[0]

    def evaluate_many(self, positions) -> list[float]:
        masks = [decode_mask(p) for p in positions]
        posted = self.objective.new_masks(masks)
        if posted:
            self._posts.put(posted)
            if not self._turns.get():
                raise _Cancelled
        return [self.objective.cache[m] for m in masks]

    def resume(self, go: bool = True):
        """Let the search run until it posts new masks (returned as a list) or
        ends (its result in a 1-tuple; its error is raised here). With ``go``
        false, make a suspended search unwind at once instead."""
        if go and self.thread.ident is None:
            self.thread.start()
        else:
            self._turns.put(go)
        if go:
            post = self._posts.get()
            if not isinstance(post, list):  # the thread has ended, or is about to
                self.thread.join()
            if isinstance(post, BaseException):
                raise post
            return post

    def _main(self):
        try:
            self._posts.put((self.run(self),))
        except _Cancelled:
            pass
        except BaseException as exc:  # handed to the coordinator, which raises it
            self._posts.put(exc)


def _search_in_lockstep(searches) -> dict:
    """Run each ``(key, objective, run)`` of ``searches`` as
    ``run(search_objective)`` in lockstep; their results by key.

    Each round first starts searches, in order, while fewer than
    ``_IN_FLIGHT`` are in flight, so ``searches`` may be a generator that
    sets each one up when it starts. Then it resumes every search in flight,
    in order, until it posts new masks or ends, and fits every posted mask in
    one pass (`_fit_round`). Only this coordinator fits, and only between
    rounds, so the rounds do not depend on thread timing. The first error, in
    order, propagates; every thread has ended when this returns or raises.
    """
    searches = iter(searches)
    flight, results = {}, {}  # flight: key -> _Search, in the order they started
    try:
        while True:
            for key, objective, run in itertools.islice(searches, _IN_FLIGHT - len(flight)):
                flight[key] = _Search(objective, key, run)
            if not flight:
                return results
            posted = []
            for key, search in list(flight.items()):
                post = search.resume()
                if isinstance(post, tuple):
                    results[key] = post[0]
                    del flight[key]
                else:
                    posted += [(search.objective, mask) for mask in post]
            _fit_round(posted)
    finally:
        for search in flight.values():
            search.resume(go=False)
        for search in flight.values():
            if search.thread.ident is not None:
                search.thread.join()


@dataclass(frozen=True)
class FsRow:
    method: str
    avg_cost: float
    std_cost: float | None
    avg_features: float
    median_features: float
    std_features: float | None


@dataclass
class FsReport:
    rows: list[FsRow] = field(default_factory=list)
    runs: dict = field(default_factory=dict)  # method -> list of per-rep details

    def to_records(self) -> list[dict]:
        return [{
            "meta_name": r.method,
            "avg_cost": r.avg_cost,
            "std_cost": r.std_cost,
            "avg_num_features": r.avg_features,
            "median_num_features": r.median_features,
            "std_num_features": r.std_features,
        } for r in self.rows]

    def format_table(self) -> str:
        header = ("meta_name", "avg_cost", "std_cost", "avg_num_features",
                  "median_num_features", "std_num_features")
        rows = [header]
        for r in self.rows:
            rows.append((
                r.method,
                f"{r.avg_cost:.4f}",
                "-" if r.std_cost is None else f"{r.std_cost:.4f}",
                f"{r.avg_features:.1f}",
                f"{r.median_features:g}",
                "-" if r.std_features is None else f"{r.std_features:.3f}",
            ))
        return format_table(rows)


@dataclass(frozen=True)
class FselectPlan:
    """Settings of one feature-selection call, checked on construction.
    ``config`` is the one ``ChmConfig`` that every search shares.
    ``report_forest_params`` (None: ``forest_params``) sets the forest behind
    the reported test errors, so the search can use a cheaper one."""

    methods: tuple[str, ...]
    repetitions: int = 10
    seed: int = 1234
    population_size: int = 10
    iterations: int = 4
    maxfe_probing: int = 25
    maxfe_fit: int = 50
    forest_params: ForestParams = ForestParams()
    report_forest_params: ForestParams | None = None
    config: ChmConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "methods", check_methods(self.methods))
        check_fields(vars(self), {"repetitions": 1, "seed": None})
        if self.report_forest_params is None:
            object.__setattr__(self, "report_forest_params", self.forest_params)
        object.__setattr__(self, "config", ChmConfig(
            iterations=self.iterations, population_size=self.population_size,
            maxfe_probing=self.maxfe_probing, maxfe_fit=self.maxfe_fit))


def run_feature_selection(dataset: Dataset, plan: FselectPlan) -> FsReport:
    """Search feature masks with each of ``plan.methods``, report held-out test errors.

    The test split is fixed for the whole call, and the baseline row (method
    ``none``) is one all-features evaluation on it. Each repetition draws its
    inner validation split and all optimizer/forest randomness from its own
    seed. All methods of a repetition search that one split through one mask
    cache. The searches of all repetitions run in lockstep, up to
    ``_IN_FLIGHT`` at a time, later ones starting as earlier ones end: the new
    masks they all ask for in one round grow their forests together, each
    on its own repetition's training rows. After the searches, each distinct
    mask a repetition found gets one test error, grown together per
    repetition, so a mask is fitted once per repetition and the baseline once
    per call. No seed depends on the method or on the other repetitions, and
    no cost on the pass that fitted it, so a method's results do not depend on
    which methods or how many repetitions run beside it. Rows follow
    ``plan.methods``, then ``none``.
    """
    d = dataset.n_features
    bounds = tuple((0.0, 1.0) for _ in range(d))

    train_all, test = split_dataset(dataset, SPLIT_FRACTION,
                                    seed=mix_seed(plan.seed, "test-split"))
    rep_seeds = [mix_seed(plan.seed, "rep", rep) for rep in range(plan.repetitions)]

    def searches():
        for rep, rep_seed in enumerate(rep_seeds):
            fit_rows, val_rows = _split_rows(train_all, SPLIT_FRACTION,
                                             seed=mix_seed(rep_seed, "val-split"))
            objective = _CachedMaskObjective(train_all, fit_rows, train_all.subset(val_rows),
                                             plan.forest_params, rep_seed)
            for method in plan.methods:
                yield (rep, method), objective, functools.partial(
                    run_method, method, bounds=bounds, seed=rep_seed, config=plan.config)

    bests = _search_in_lockstep(searches())
    report = FsReport(runs={method: [] for method in plan.methods})
    for rep, rep_seed in enumerate(rep_seeds):
        masks = {method: decode_mask(bests[rep, method][0].position) for method in plan.methods}
        test_errors = _test_errors(masks.values(), train_all, test, plan.report_forest_params,
                                   mix_seed(rep_seed, "final"))
        for method, mask in masks.items():
            report.runs[method].append({
                "repetition": rep,
                "mask": mask,
                "selected": [dataset.feature_names[i] for i, keep in enumerate(mask) if keep],
                "n_features": sum(mask),
                "search_cost": bests[rep, method][0].cost,
                "test_error": test_errors[mask],
            })

    for method, details in report.runs.items():
        errors = [r["test_error"] for r in details]
        feature_counts = [r["n_features"] for r in details]
        report.rows.append(FsRow(
            method=method,
            avg_cost=sum(errors) / len(errors),
            std_cost=population_std(errors),
            avg_features=sum(feature_counts) / len(feature_counts),
            median_features=float(statistics.median(feature_counts)),
            std_features=population_std(feature_counts),
        ))
    baseline_error = fs_cost((True,) * d, train_all, test, plan.report_forest_params,
                             mix_seed(plan.seed, "baseline"))
    report.rows.append(FsRow(
        method=BASELINE_METHOD,
        avg_cost=baseline_error,
        std_cost=None,
        avg_features=float(d),
        median_features=float(d),
        std_features=None,
    ))
    return report


def run_feature_selection_all(dataset: Dataset, methods=ALL_METHODS,
                              **settings) -> FsReport:
    """``run_feature_selection`` of ``FselectPlan(methods, **settings)``."""
    return run_feature_selection(dataset, FselectPlan(methods, **settings))


def make_synthetic_dataset(n_rows: int = 300, n_noise: int = 9,
                           flip_fraction: float = 0.1, seed: int = 7) -> Dataset:
    """Oracle dataset: one informative feature (index 0, name 'signal') whose
    threshold determines the label up to a small fraction of flipped labels,
    plus independent uniform noise features."""
    rng = np.random.default_rng(seed)
    signal = rng.uniform(0.0, 1.0, size=n_rows)
    labels = (signal > 0.5).astype(np.int64)
    n_flip = int(round(flip_fraction * n_rows))
    if n_flip:
        flip_idx = rng.permutation(n_rows)[:n_flip]
        labels[flip_idx] = 1 - labels[flip_idx]
    noise = rng.uniform(0.0, 1.0, size=(n_rows, n_noise))
    features = np.column_stack([signal, noise])
    names = ("signal",) + tuple(f"noise_{i}" for i in range(n_noise))
    return Dataset(features=features, labels=labels, feature_names=names,
                   label_name="label")

