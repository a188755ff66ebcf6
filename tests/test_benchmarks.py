import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from chmopt import (
    BENCHMARK_NAMES,
    BUCKET_BUDGETS,
    SeededRng,
    UnknownBenchmark,
    catalogue_records,
    eval_benchmark,
    format_catalogue,
    get_benchmark,
    list_benchmarks,
    local_minimality_check,
)
from chmopt.benchmarks import (
    HIGHLY_MULTIMODAL,
    REGISTRY,
    SINGLE_BASIN,
)


def test_registry_has_28_unique_functions():
    assert len(BENCHMARK_NAMES) == 28
    assert len(set(BENCHMARK_NAMES)) == 28


def test_budgets_follow_bucket_table():
    for spec in REGISTRY.values():
        assert spec.budgets == BUCKET_BUDGETS[spec.bucket]


def test_bucket_membership_spot_checks():
    assert get_benchmark("matyas").bucket == SINGLE_BASIN
    assert get_benchmark("matyas").budgets == (300, 600)
    assert get_benchmark("rastrigin").bucket == HIGHLY_MULTIMODAL
    assert get_benchmark("rastrigin").budgets == (400, 800)
    assert len(list_benchmarks("highly_multimodal")) == 13
    assert len(list_benchmarks("highly-multimodal")) == 13


def test_unknown_name_lists_valid_ones():
    with pytest.raises(UnknownBenchmark) as err:
        get_benchmark("nosuchfn")
    assert "matyas" in str(err.value)


def test_name_normalization():
    assert get_benchmark("Goldstein-Price").name == "goldstein_price"
    assert get_benchmark(" ROSENBROCK ").name == "rosenbrock"


def test_unknown_bucket_rejected():
    with pytest.raises(ValueError):
        list_benchmarks("nosuch")


class TestKnownValues:
    def test_matyas_origin(self):
        assert eval_benchmark(get_benchmark("matyas"), (0.0, 0.0)) == 0.0

    def test_beale_vanishes_at_optimum(self):
        # every squared term vanishes at (3, 0.5)
        assert eval_benchmark(get_benchmark("beale"), (3.0, 0.5)) == 0.0

    def test_goldstein_price_value(self):
        # at (0, -1): first factor 1 + 0 = 1, second 30 + 9*(18 - 48 + 27) = 3
        assert eval_benchmark(get_benchmark("goldstein_price"), (0.0, -1.0)) == 3.0

    def test_ackley02_reference(self):
        assert get_benchmark("ackley02").reference_value == -200.0

    def test_keane_reference_is_zero(self):
        spec = get_benchmark("keane")
        assert spec.reference_value == 0.0
        assert eval_benchmark(spec, spec.optimum) == 0.0

    def test_brent_reference(self):
        assert get_benchmark("brent").reference_value == math.exp(-200.0)

    def test_price02_reference(self):
        assert get_benchmark("price02").reference_value == pytest.approx(0.9)

    def test_ursem04_reference(self):
        assert get_benchmark("ursem04").reference_value == -1.5

    def test_hosaki_reference(self):
        assert get_benchmark("hosaki").reference_value == pytest.approx(
            -2.345811576101292, abs=1e-12)


def test_reference_equals_formula_at_optimum():
    for spec in REGISTRY.values():
        assert spec.reference_value == pytest.approx(
            spec.formula(spec.optimum), abs=1e-12), spec.name


def test_optimum_inside_bounds():
    for spec in REGISTRY.values():
        for v, (lo, hi) in zip(spec.optimum, spec.bounds):
            assert lo <= v <= hi, spec.name


def test_eval_benchmark_validates_input():
    spec = get_benchmark("matyas")
    with pytest.raises(ValueError):
        eval_benchmark(spec, (1.0,))
    with pytest.raises(ValueError):
        eval_benchmark(spec, (float("nan"), 0.0))


def test_eval_benchmark_is_pure():
    rng = SeededRng(17)
    for name in ("bird", "whitley", "brown", "keane"):
        spec = get_benchmark(name)
        for _ in range(20):
            x = [rng.uniform(lo, hi) for lo, hi in spec.bounds]
            assert spec.formula(x) == spec.formula(list(x))


def test_local_minimality_all_registered():
    for spec in REGISTRY.values():
        assert local_minimality_check(spec, 1e-3, 1000, SeededRng(7)), spec.name


def test_local_minimality_rosenbrock_tight_radius():
    assert local_minimality_check(get_benchmark("rosenbrock"), 0.01, 1000, SeededRng(1))


def test_local_minimality_rejects_corrupted_optimum():
    spec = get_benchmark("matyas")
    corrupted = dataclasses.replace(spec, optimum=(0.5, 0.0),
                                    reference_value=spec.formula((0.5, 0.0)))
    assert not local_minimality_check(corrupted, 0.1, 1000, SeededRng(1))


def test_local_minimality_validates_arguments():
    spec = get_benchmark("matyas")
    with pytest.raises(ValueError):
        local_minimality_check(spec, radius=0.0)
    with pytest.raises(ValueError):
        local_minimality_check(spec, samples=0)


def test_extra_optima_match_reference_value():
    for spec in REGISTRY.values():
        for alt in spec.extra_optima:
            assert spec.formula(alt) == pytest.approx(spec.reference_value, abs=1e-8), spec.name


def test_stored_optima_are_stationary_points():
    # independent oracle: local polish from the stored optimum must not move
    # materially nor find a materially lower value
    for spec in REGISTRY.values():
        x0 = np.array(spec.optimum)
        result = minimize(spec.formula, x0, method="Nelder-Mead",
                          options=dict(xatol=1e-12, fatol=1e-14, maxiter=5000))
        assert spec.reference_value <= result.fun + 1e-9, spec.name
        if spec.name != "brent":  # boundary optimum: polish may wander along the rim
            assert np.linalg.norm(result.x - x0) < 1e-4, spec.name


def test_catalogue_exports():
    records = catalogue_records()
    assert len(records) == 28
    sample = next(r for r in records if r["name"] == "matyas")
    assert sample["maxfe_probing"] == 300
    assert sample["maxfe_fit"] == 600
    assert sample["bucket"] == SINGLE_BASIN
    text = format_catalogue()
    assert len(text.splitlines()) == 30  # header + rule + 28 rows
    assert "goldstein_price" in text
