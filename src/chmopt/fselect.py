"""Wrapper feature selection over CSV-ingested tabular data.

Feature masks are encoded as points in the unit cube (coordinate >= 0.5 means
"keep the feature"), so every inner optimizer and the hybrid orchestrator
search masks unchanged. The cost of a mask is the error rate of the built-in
random forest trained on the selected features, measured on an inner
validation split; reported errors come from a held-out test split.

The methods of a repetition search in lockstep: each runs in its own thread,
used only to suspend its search, and the new masks they ask for in one round
grow their forests in one pass. A mask's cost does not depend on which masks
share its pass, so every search is what it would be alone.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import statistics
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# unused here, kept importable: span tracers patch these two module attributes
from .chm import chm_run, run_segmented  # noqa: F401
from .core import SeededRng, format_table, mix_seed, population_std
from .forest import ForestParams, RandomForest, fit_forests
from .harness import ALL_METHODS, run_method

BASELINE_METHOD = "none"


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
    """Ingest a UTF-8 CSV with a header row that names the label column once.

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
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not rows:
        raise DatasetError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if label_column not in header:
        raise DatasetError(
            f"{path}: label column {label_column!r} not found; "
            f"available columns: {', '.join(header)}")
    if header.count(label_column) > 1:
        raise DatasetError(f"{path}: label column {label_column!r} appears more than "
                           f"once in the header")
    if not data:
        raise DatasetError(f"{path}: no data rows")
    label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

    dropped = 0
    kept = []
    for row in data:
        if len(row) != len(header) or any(cell.strip() == "" for cell in row):
            dropped += 1
            continue
        kept.append([cell.strip() for cell in row])

    def parses(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    if strict:
        survivors = []
        for row in kept:
            if all(parses(cell) for i, cell in enumerate(row) if i != label_idx):
                survivors.append(row)
            else:
                dropped += 1
        kept = survivors

    if not kept:
        raise DatasetError(f"{path}: all {len(data)} rows were dropped during ingestion")

    columns = list(zip(*kept))
    features = []
    for i, column in enumerate(columns):
        if i == label_idx:
            continue
        if all(parses(cell) for cell in column):
            values = [float(cell) for cell in column]
            if not all(map(math.isfinite, values)):
                raise DatasetError(f"{path}: feature column {header[i]!r} holds a "
                                   f"non-finite value (nan or inf)")
            features.append(values)
        else:
            features.append([float(c) for c in _encode_first_appearance(column)])
    labels = _encode_first_appearance(columns[label_idx])
    dataset = Dataset(
        features=np.array(features, dtype=float).T,
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
        label_name=label_column,
        dropped_rows=dropped,
    )
    if dataset.n_rows < 10:
        raise DatasetError(f"{path}: need at least 10 usable rows, got {dataset.n_rows}")
    if dataset.n_features < 2:
        raise DatasetError(f"{path}: need at least 2 feature columns")
    counts = Counter(columns[label_idx])
    for value, count in counts.items():
        if count < 3:
            raise DatasetError(
                f"{path}: label {value!r} has only {count} row(s); each class needs "
                f"at least 3 rows, because the test and validation splits are "
                f"both stratified")
    return dataset


def split_dataset(dataset: Dataset, test_fraction: float = 0.30,
                  seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified-by-label random split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
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
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


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

    The search space has 2^d distinct masks; repeated evaluations of the same
    mask return the cached error without retraining, while the optimizer's
    budget accounting (which wraps each method's ``_Search``) still counts
    every call. ``new_masks`` caches the masks that train no forest and
    returns the ones that need one; ``fit`` grows their forests in one
    ``fit_forests`` pass, each exactly as ``fs_cost`` would fit it, and fits a
    lone one by ``fs_cost``.
    """

    def __init__(self, train, validation, params, seed):
        self.train = train
        self.validation = validation
        self.params = params
        self.seed = seed
        self.classes = np.unique(train.labels)
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

    def fit(self, grown):
        """Cache the cost of each of the distinct masks ``grown``."""
        if len(grown) == 1:  # through fs_cost, which perfbench's tracer wraps
            self.cache[grown[0]] = fs_cost(grown[0], self.train, self.validation,
                                           self.params, mix_seed(self.seed, *grown[0]))
        elif grown:
            forests = fit_forests(self.params, self.train.features, self.train.labels,
                                  [_columns(m) for m in grown],
                                  [mix_seed(self.seed, *m) for m in grown])
            for mask, forest in zip(grown, forests):
                self.cache[mask] = _forest_cost(forest, _columns(mask), self.validation)


class _Cancelled(BaseException):
    """Unwinds a suspended search whose lockstep run is being torn down."""


class _Search:
    """One method's search in its own thread, suspended while it waits for forests.

    The thread runs only between ``step`` being called and returning, so the
    searches of a lockstep run take turns and never run at the same time.
    To the optimizer it is the mask objective: an evaluation whose masks are
    all cached, or train no forest, returns at once; otherwise the search
    posts its new masks and waits for the coordinator to fit them.
    """

    def __init__(self, objective: _CachedMaskObjective, name: str, run):
        self.objective = objective
        self.run = run
        self.posted: list[tuple[bool, ...]] = []  # masks the next round must fit
        self.done = False
        self.result = None
        self.error: BaseException | None = None
        self._cancelled = False
        self._go = threading.Event()
        self._paused = threading.Event()
        self.thread = threading.Thread(target=self._main, name=f"fselect-{name}",
                                       daemon=True)

    def __call__(self, position) -> float:
        return self.evaluate_many([position])[0]

    def evaluate_many(self, positions) -> list[float]:
        if self._cancelled:
            raise _Cancelled
        masks = [decode_mask(p) for p in positions]
        self.posted = self.objective.new_masks(masks)
        if self.posted:
            self._paused.set()
            self._wait_for_turn()
        return [self.objective.cache[m] for m in masks]

    def step(self):
        """Let the search run until it posts new masks or ends."""
        if self.thread.ident is None:
            self.thread.start()
        self._go.set()
        self._paused.wait()
        self._paused.clear()

    def cancel(self):
        """Make a suspended search unwind at once, a running one at its next evaluation."""
        self._cancelled = True
        self._go.set()

    def _wait_for_turn(self):
        self._go.wait()
        self._go.clear()
        if self._cancelled:
            raise _Cancelled

    def _main(self):
        try:
            self._wait_for_turn()
            self.result = self.run(self)
        except _Cancelled:
            pass
        except BaseException as exc:  # handed to the coordinator, which raises it
            self.error = exc
        finally:
            self.done = True
            self._paused.set()


def _search_in_lockstep(objective: _CachedMaskObjective, runs: dict) -> dict:
    """Run each ``runs[name](search_objective)`` in lockstep; their results by name.

    Each round steps every live search in order until it posts new masks or
    ends, then fits the union of the posted masks, in order, in one pass. Only
    this coordinator fits, and only between rounds, so the rounds do not depend
    on thread timing. The first error, in order, propagates; every thread has
    ended when this returns or raises.
    """
    searches = [_Search(objective, name, run) for name, run in runs.items()]
    try:
        live = searches
        while live:
            for search in live:
                search.step()
                if search.error is not None:
                    raise search.error
            live = [s for s in live if not s.done]
            objective.fit(list(dict.fromkeys(m for s in live for m in s.posted)))
    finally:
        for search in searches:
            search.cancel()
        for search in searches:
            if search.thread.ident is not None:
                search.thread.join()
    return {name: search.result for name, search in zip(runs, searches)}


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
    label_name: str
    n_features: int
    rows: list[FsRow] = field(default_factory=list)
    runs: dict = field(default_factory=dict)  # method -> list of per-rep details

    def row(self, method: str) -> FsRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

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


def run_feature_selection(dataset: Dataset, methods, *,
                          repetitions: int = 10, seed: int = 1234,
                          population_size: int = 10, iterations: int = 4,
                          maxfe_probing: int = 25, maxfe_fit: int = 50,
                          forest_params: ForestParams | None = None,
                          report_forest_params: ForestParams | None = None,
                          test_fraction: float = 0.30,
                          validation_fraction: float = 0.30) -> FsReport:
    """Search feature masks with each of ``methods``, report held-out test errors.

    The test split is fixed for the whole call, and the baseline row (method
    ``none``) is one all-features evaluation on it. Each repetition draws its
    inner validation split and all optimizer/forest randomness from its own
    seed. All methods of a repetition search that one split through one mask
    cache, in lockstep: the new masks they ask for in one round grow their
    forests in one pass. After the searches, each distinct mask they found gets
    one test error, in method order, so a mask is fitted once per repetition
    and the baseline once per call. No seed depends on the method and no cost
    on the pass that fitted it, so a method's results do not depend on which
    methods run beside it. Repetitions run one after another. Rows follow
    ``methods``, then ``none``.
    ``forest_params`` sets the search-time classifier; ``report_forest_params``
    (default: same) sets the classifier for the reported test errors, so the
    search can use a cheaper forest than the final evaluation.
    """
    methods = tuple(m.strip().lower() for m in methods)
    if not methods:
        raise ValueError("methods must be non-empty")
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown method {method!r}; valid: {', '.join(ALL_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat: {', '.join(methods)}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    params = forest_params or ForestParams()
    report_params = report_forest_params or params
    d = dataset.n_features
    bounds = tuple((0.0, 1.0) for _ in range(d))

    train_all, test = split_dataset(dataset, test_fraction,
                                    seed=mix_seed(seed, "test-split"))
    report = FsReport(label_name=dataset.label_name, n_features=d,
                      runs={method: [] for method in methods})
    for rep in range(repetitions):
        rep_seed = mix_seed(seed, "rep", rep)
        fit_train, validation = split_dataset(
            train_all, validation_fraction, seed=mix_seed(rep_seed, "val-split"))
        objective = _CachedMaskObjective(fit_train, validation, params, rep_seed)
        bests = _search_in_lockstep(objective, {
            method: functools.partial(run_method, method, bounds=bounds, seed=rep_seed,
                                      iterations=iterations,
                                      population_size=population_size,
                                      maxfe_probing=maxfe_probing, maxfe_fit=maxfe_fit)
            for method in methods})
        test_errors = {}
        for method, (best, _) in bests.items():
            mask = decode_mask(best.position)
            if mask not in test_errors:
                test_errors[mask] = fs_cost(mask, train_all, test, report_params,
                                            mix_seed(rep_seed, "final"))
            report.runs[method].append({
                "repetition": rep,
                "mask": mask,
                "selected": [dataset.feature_names[i] for i, keep in enumerate(mask) if keep],
                "n_features": sum(mask),
                "search_cost": best.cost,
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
    baseline_error = fs_cost((True,) * d, train_all, test, report_params,
                             mix_seed(seed, "baseline"))
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
                              **kwargs) -> FsReport:
    """``run_feature_selection`` over every method by default."""
    return run_feature_selection(dataset, methods, **kwargs)


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

