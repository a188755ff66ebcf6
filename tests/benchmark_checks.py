"""Checks of registry entries that only the tests use."""
import math

from chmopt.benchmarks import BenchmarkSpec
from chmopt.core import SeededRng, Vector


def eval_benchmark(spec: BenchmarkSpec, x: Vector) -> float:
    """``spec.formula(x)`` for a finite point of the spec's dimension."""
    if len(x) != spec.dimension:
        raise ValueError(f"{spec.name} expects dimension {spec.dimension}, got {len(x)}")
    for v in x:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate in {list(x)!r}")
    return spec.formula(x)


def local_minimality_check(spec: BenchmarkSpec, radius: float = 1e-3,
                           samples: int = 1000, rng: SeededRng | None = None,
                           tolerance: float = 1e-9) -> bool:
    """True iff no sampled in-bounds perturbation within ``radius`` of the
    stored optimum beats formula(optimum) by more than ``tolerance``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = rng or SeededRng(0)
    dim = spec.dimension
    base = spec.formula(spec.optimum)
    for _ in range(samples):
        direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            continue
        magnitude = radius * rng.random() ** (1.0 / dim)
        point = []
        for coord, d, (lo, hi) in zip(spec.optimum, direction, spec.bounds):
            v = coord + d * magnitude / norm
            point.append(lo if v < lo else hi if v > hi else v)
        if spec.formula(point) < base - tolerance:
            return False
    return True
