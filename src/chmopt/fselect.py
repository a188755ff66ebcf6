"""Wrapper feature selection over CSV-ingested tabular data.

Feature masks are encoded as points in the unit cube (coordinate >= 0.5 means
"keep the feature"), so every inner optimizer and the hybrid orchestrator
search masks unchanged. The cost of a mask is the error rate of the built-in
random forest trained on the selected features, measured on an inner
validation split; reported errors come from a held-out test split.
"""
from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# unused here, kept importable: span tracers patch these two module attributes
from .chm import chm_run, run_segmented  # noqa: F401
from .core import SeededRng, format_table, mix_seed, population_std
from .forest import ForestParams, RandomForest
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
    """Ingest a CSV with a header row.

    Rows with missing cells are dropped (and counted). Feature columns where
    every retained value parses as a number become numeric and must hold no
    nan or inf; other columns are integer-encoded by first appearance. In
    strict mode every feature column is treated as numeric and rows with
    unparseable cells are dropped instead.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DatasetError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if label_column not in header:
        raise DatasetError(
            f"{path}: label column {label_column!r} not found; "
            f"available columns: {', '.join(header)}")
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
    mask = tuple(bool(m) for m in mask)
    if not any(mask):
        return 1.0
    columns = [i for i, keep in enumerate(mask) if keep]
    X_train = train.features[:, columns]
    X_val = validation.features[:, columns]
    classes = np.unique(train.labels)
    if len(classes) == 1:
        predictions = np.full(len(validation.labels), classes[0])
        return float(np.mean(predictions != validation.labels))
    forest = RandomForest(params, seed=seed).fit(X_train, train.labels)
    return 1.0 - forest.accuracy(X_val, validation.labels)


class _CachedMaskObjective:
    """Search-time cost of a mask position, cached per decoded mask.

    The search space has 2^d distinct masks; repeated evaluations of the same
    mask return the cached error without retraining, while the optimizer's
    budget accounting (which wraps this callable) still counts every call.
    """

    def __init__(self, train, validation, params, seed):
        self.train = train
        self.validation = validation
        self.params = params
        self.seed = seed
        self.cache: dict[tuple[bool, ...], float] = {}

    def __call__(self, position) -> float:
        mask = decode_mask(position)
        if mask not in self.cache:
            self.cache[mask] = fs_cost(mask, self.train, self.validation,
                                       self.params, mix_seed(self.seed, *mask))
        return self.cache[mask]


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
    cache, and each distinct mask they find gets one test error, so a mask is
    fitted once per repetition and the baseline once per call. No seed depends
    on the method, so a method's results do not depend on which methods run
    beside it. Rows follow ``methods``, then ``none``.
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
        test_errors = {}
        for method in methods:
            best, _ = run_method(method, objective, bounds, rep_seed, iterations=iterations,
                                 population_size=population_size,
                                 maxfe_probing=maxfe_probing, maxfe_fit=maxfe_fit)
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


def write_dataset_csv(dataset: Dataset, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.label_name])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
