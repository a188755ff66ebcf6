"""Registry of the 28 two-dimensional benchmark functions.

Each entry carries the formula, default search box, known optimum, the
reference minimum value (computed from the formula at registry build, never
hand-copied), a landscape bucket and the bucket's default evaluation budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import Vector, format_table

TWO_PI = 2.0 * math.pi

SINGLE_BASIN = "single_basin"
ILL_CONDITIONED = "ill_conditioned"
HIGHLY_MULTIMODAL = "highly_multimodal"
FEW_SEPARATED_MINIMA = "few_separated_minima"
SHIFTED_MINIMA = "shifted_minima"

BUCKETS = (SINGLE_BASIN, ILL_CONDITIONED, HIGHLY_MULTIMODAL, FEW_SEPARATED_MINIMA, SHIFTED_MINIMA)

# (max probing evaluations per method, max fit evaluations) by landscape class
BUCKET_BUDGETS = {
    SINGLE_BASIN: (300, 600),
    ILL_CONDITIONED: (300, 600),
    HIGHLY_MULTIMODAL: (400, 800),
    FEW_SEPARATED_MINIMA: (300, 600),
    SHIFTED_MINIMA: (400, 800),
}


class UnknownBenchmark(ValueError):
    def __init__(self, name, valid):
        super().__init__(f"unknown benchmark {name!r}; valid names: {', '.join(valid)}")
        self.name = name


def ackley02(x):
    x1, x2 = x
    return -200.0 * math.exp(-0.02 * math.sqrt(x1 * x1 + x2 * x2))


def beale(x):
    x1, x2 = x
    return ((x1 * x2 - x1 + 1.5) ** 2
            + (x1 * x2 * x2 - x1 + 2.25) ** 2
            + (x1 * x2 ** 3 - x1 + 2.625) ** 2)


def bird(x):
    x1, x2 = x
    return ((x1 - x2) ** 2
            + math.exp((1.0 - math.sin(x1)) ** 2) * math.cos(x2)
            + math.exp((1.0 - math.cos(x2)) ** 2) * math.sin(x1))


def bohachevsky01(x):
    x1, x2 = x
    return (x1 * x1 + 2.0 * x2 * x2
            - 0.3 * math.cos(3.0 * math.pi * x1)
            - 0.4 * math.cos(4.0 * math.pi * x2) + 0.7)


def branin02(x):
    x1, x2 = x
    a = (x2 - 5.1 * x1 * x1 / (4.0 * math.pi ** 2) + 5.0 * x1 / math.pi - 6.0) ** 2
    b = 10.0 * (1.0 - 1.0 / (8.0 * math.pi)) * math.cos(x1) * math.cos(x2)
    return a + b + math.log(x1 * x1 + x2 * x2 + 1.0) + 10.0


def brent(x):
    x1, x2 = x
    return (x1 + 10.0) ** 2 + (x2 + 10.0) ** 2 + math.exp(-x1 * x1 - x2 * x2)


def brown(x):
    x1, x2 = x
    s1, s2 = x1 * x1, x2 * x2
    return s1 ** (s2 + 1.0) + s2 ** (s1 + 1.0)


def eggcrate(x):
    x1, x2 = x
    return x1 * x1 + x2 * x2 + 25.0 * (math.sin(x1) ** 2 + math.sin(x2) ** 2)


def goldstein_price(x):
    x1, x2 = x
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2)
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2)
    return a * b


def himmelblau(x):
    x1, x2 = x
    return (x1 * x1 + x2 - 11.0) ** 2 + (x1 + x2 * x2 - 7.0) ** 2


def hosaki(x):
    x1, x2 = x
    p = 1.0 - 8.0 * x1 + 7.0 * x1 * x1 - (7.0 / 3.0) * x1 ** 3 + 0.25 * x1 ** 4
    return p * x2 * x2 * math.exp(-x2)


def keane(x):
    x1, x2 = x
    s = x1 * x1 + x2 * x2
    if s == 0.0:
        return 0.0  # continuous extension at the origin corner
    return (math.sin(x1 - x2) ** 2 * math.sin(x1 + x2) ** 2) / math.sqrt(s)


def levy03(x):
    x1, x2 = x
    y1 = 1.0 + (x1 - 1.0) / 4.0
    y2 = 1.0 + (x2 - 1.0) / 4.0
    return (math.sin(math.pi * y1) ** 2
            + (y1 - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * y2) ** 2)
            + (y2 - 1.0) ** 2)


def matyas(x):
    x1, x2 = x
    return 0.26 * (x1 * x1 + x2 * x2) - 0.48 * x1 * x2


def price02(x):
    x1, x2 = x
    return 1.0 + math.sin(x1) ** 2 + math.sin(x2) ** 2 - 0.1 * math.exp(-x1 * x1 - x2 * x2)


def quadratic(x):
    x1, x2 = x
    return (-3803.84 - 138.08 * x1 - 232.92 * x2
            + 128.08 * x1 * x1 + 203.64 * x2 * x2 + 182.25 * x1 * x2)


def rastrigin(x):
    x1, x2 = x
    return (20.0 + x1 * x1 - 10.0 * math.cos(TWO_PI * x1)
            + x2 * x2 - 10.0 * math.cos(TWO_PI * x2))


def rosenbrock(x):
    x1, x2 = x
    return 100.0 * (x1 * x1 - x2) ** 2 + (x1 - 1.0) ** 2


def rotated_ellipse01(x):
    x1, x2 = x
    return 7.0 * x1 * x1 - 6.0 * math.sqrt(3.0) * x1 * x2 + 13.0 * x2 * x2


def salomon(x):
    x1, x2 = x
    r = math.sqrt(x1 * x1 + x2 * x2)
    return 1.0 - math.cos(TWO_PI * r) + 0.1 * r


def schaffer03(x):
    x1, x2 = x
    num = math.sin(math.cos(abs(x1 * x1 - x2 * x2))) ** 2 - 0.5
    den = (1.0 + 0.001 * (x1 * x1 + x2 * x2)) ** 2
    return 0.5 + num / den


def schaffer04(x):
    x1, x2 = x
    num = math.cos(math.sin(x1 * x1 - x2 * x2)) ** 2 - 0.5
    den = (1.0 + 0.001 * (x1 * x1 + x2 * x2)) ** 2
    return 0.5 + num / den


def schwefel04(x):
    x1, x2 = x
    return (x1 - 1.0) ** 2 + (x2 - x1 * x1) ** 2


def treccani(x):
    x1, x2 = x
    return x1 ** 4 + 4.0 * x1 ** 3 + 4.0 * x1 * x1 + x2 * x2


def ursem04(x):
    x1, x2 = x
    return (-3.0 * math.sin(0.5 * math.pi * x1 + 0.5 * math.pi)
            * (2.0 - math.sqrt(x1 * x1 + x2 * x2)) / 4.0)


def whitley(x):
    x1, x2 = x
    g = 100.0 * (x1 * x1 - x2) ** 2 + (1.0 - x2) ** 2
    return g * g / 4000.0 - math.cos(g) + 1.0


def zettl(x):
    x1, x2 = x
    return 0.25 * x1 + (x1 * x1 - 2.0 * x1 + x2 * x2) ** 2


def zirilli(x):
    x1, x2 = x
    return 0.25 * x1 ** 4 - 0.5 * x1 * x1 + 0.1 * x1 + 0.5 * x2 * x2


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered benchmark: formula, search box, known optimum, budgets."""

    name: str
    formula: Callable[[Vector], float]
    bounds: tuple[tuple[float, float], ...]
    optimum: tuple[float, ...]
    bucket: str
    reference_value: float
    budgets: tuple[int, int]
    extra_optima: tuple[tuple[float, ...], ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.optimum)

    def all_optima(self) -> tuple[tuple[float, ...], ...]:
        return (self.optimum,) + self.extra_optima


# name -> (formula, bounds, optimum, bucket, extra optima). Optima listed with
# rounded coordinates in the usual catalogues are stored here numerically
# polished to machine precision so they are true stationary points.
_TABLE = {
    "ackley02": (ackley02, ((-32.0, 32.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "beale": (beale, ((-4.5, 4.5),) * 2, (3.0, 0.5), FEW_SEPARATED_MINIMA, ()),
    "bird": (bird, ((-TWO_PI, TWO_PI),) * 2,
             (4.701043136009576, 3.1529384979639685), FEW_SEPARATED_MINIMA,
             ((-1.5821421805135785, -3.130246813773627),)),
    "bohachevsky01": (bohachevsky01, ((-15.0, 15.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "branin02": (branin02, ((-5.0, 15.0),) * 2,
                 (-3.1969884183238175, 12.526257887110667), FEW_SEPARATED_MINIMA, ()),
    "brent": (brent, ((-10.0, 10.0),) * 2, (-10.0, -10.0), SHIFTED_MINIMA, ()),
    "brown": (brown, ((-1.0, 4.0),) * 2, (0.0, 0.0), ILL_CONDITIONED, ()),
    "eggcrate": (eggcrate, ((-5.0, 5.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "goldstein_price": (goldstein_price, ((-2.0, 2.0),) * 2, (0.0, -1.0), FEW_SEPARATED_MINIMA, ()),
    "himmelblau": (himmelblau, ((-6.0, 6.0),) * 2, (3.0, 2.0), FEW_SEPARATED_MINIMA,
                   ((-2.8051180869527452, 3.131312518250573),
                    (-3.779310253377747, -3.283185991286169),
                    (3.5844283403304917, -1.8481265269644038))),
    "hosaki": (hosaki, ((0.0, 5.0), (0.0, 6.0)), (4.0, 2.0), FEW_SEPARATED_MINIMA, ()),
    "keane": (keane, ((0.0, 10.0),) * 2, (7.85396153, 7.85396153), HIGHLY_MULTIMODAL, ()),
    "levy03": (levy03, ((-10.0, 10.0),) * 2, (1.0, 1.0), HIGHLY_MULTIMODAL, ()),
    "matyas": (matyas, ((-10.0, 10.0),) * 2, (0.0, 0.0), SINGLE_BASIN, ()),
    "price02": (price02, ((-10.0, 10.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "quadratic": (quadratic, ((-10.0, 10.0),) * 2,
                  (0.1938801727889532, 0.4851339091269232), SINGLE_BASIN, ()),
    "rastrigin": (rastrigin, ((-5.12, 5.12),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "rosenbrock": (rosenbrock, ((-5.0, 10.0),) * 2, (1.0, 1.0), ILL_CONDITIONED, ()),
    "rotated_ellipse01": (rotated_ellipse01, ((-500.0, 500.0),) * 2, (0.0, 0.0), SINGLE_BASIN, ()),
    "salomon": (salomon, ((-100.0, 100.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "schaffer03": (schaffer03, ((-100.0, 100.0),) * 2,
                   (0.0, 1.2531149609933245), HIGHLY_MULTIMODAL,
                   ((0.0, -1.2531149609933245), (1.2531149609933245, 0.0),
                    (-1.2531149609933245, 0.0))),
    "schaffer04": (schaffer04, ((-100.0, 100.0),) * 2,
                   (0.0, 1.2531318315581377), HIGHLY_MULTIMODAL,
                   ((0.0, -1.2531318315581377), (1.2531318315581377, 0.0),
                    (-1.2531318315581377, 0.0))),
    "schwefel04": (schwefel04, ((0.0, 10.0),) * 2, (1.0, 1.0), HIGHLY_MULTIMODAL, ()),
    "treccani": (treccani, ((-5.0, 5.0),) * 2, (0.0, 0.0), FEW_SEPARATED_MINIMA, ((-2.0, 0.0),)),
    "ursem04": (ursem04, ((-2.0, 2.0),) * 2, (0.0, 0.0), HIGHLY_MULTIMODAL, ()),
    "whitley": (whitley, ((-10.24, 10.24),) * 2, (1.0, 1.0), HIGHLY_MULTIMODAL, ((-1.0, 1.0),)),
    "zettl": (zettl, ((-1.0, 5.0),) * 2, (-0.0298959848922705, 0.0), FEW_SEPARATED_MINIMA, ()),
    "zirilli": (zirilli, ((-10.0, 10.0),) * 2, (-1.0466805321056278, 0.0), SINGLE_BASIN, ()),
}


def _build_registry() -> dict[str, BenchmarkSpec]:
    registry = {}
    for name, (formula, bounds, optimum, bucket, extras) in _TABLE.items():
        for coord, (lo, hi) in zip(optimum, bounds):
            if not lo <= coord <= hi:
                raise AssertionError(f"{name}: optimum {optimum} outside bounds")
        registry[name] = BenchmarkSpec(
            name=name,
            formula=formula,
            bounds=tuple(bounds),
            optimum=tuple(optimum),
            bucket=bucket,
            reference_value=formula(optimum),
            budgets=BUCKET_BUDGETS[bucket],
            extra_optima=tuple(tuple(o) for o in extras),
        )
    return registry


REGISTRY = _build_registry()
BENCHMARK_NAMES = tuple(REGISTRY)


def normalize_name(name: str) -> str:
    return name.strip().lower().replace("-", "_").replace(" ", "_")


def get_benchmark(name: str) -> BenchmarkSpec:
    key = normalize_name(name)
    try:
        return REGISTRY[key]
    except KeyError:
        raise UnknownBenchmark(name, BENCHMARK_NAMES) from None


def list_benchmarks(bucket: str | None = None) -> tuple[str, ...]:
    if bucket is None:
        return BENCHMARK_NAMES
    key = normalize_name(bucket)
    if key not in BUCKETS:
        raise ValueError(f"unknown bucket {bucket!r}; valid buckets: {', '.join(BUCKETS)}")
    return tuple(n for n, s in REGISTRY.items() if s.bucket == key)


def catalogue_records(bucket: str | None = None) -> list[dict]:
    """Machine-readable registry export, one record per function (optionally
    of one bucket)."""
    records = []
    for name in list_benchmarks(bucket):
        spec = REGISTRY[name]
        records.append({
            "name": spec.name,
            "dimension": spec.dimension,
            "bounds": [list(b) for b in spec.bounds],
            "optimum": list(spec.optimum),
            "reference_value": spec.reference_value,
            "bucket": spec.bucket,
            "maxfe_probing": spec.budgets[0],
            "maxfe_fit": spec.budgets[1],
        })
    return records


def format_catalogue(bucket: str | None = None) -> str:
    """Aligned text table of the registry (optionally one bucket)."""
    names = list_benchmarks(bucket)
    header = ("name", "bounds", "optimum", "reference", "bucket", "budgets")
    rows = [header]
    for name in names:
        s = REGISTRY[name]
        lo, hi = s.bounds[0]
        same = all(b == (lo, hi) for b in s.bounds)
        bounds_txt = (f"[{lo:g}, {hi:g}]^2" if same
                      else " x ".join(f"[{a:g}, {b:g}]" for a, b in s.bounds))
        opt_txt = "(" + ", ".join(f"{v:.6g}" for v in s.optimum) + ")"
        rows.append((s.name, bounds_txt, opt_txt, f"{s.reference_value:.6g}",
                     s.bucket, f"({s.budgets[0]}, {s.budgets[1]})"))
    return format_table(rows)
