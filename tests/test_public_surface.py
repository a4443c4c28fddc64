"""The public API is pinned: adding or removing a name has to change this list."""

import importlib

import pytest

import kappainf

PUBLIC_NAMES = [
    "BUDGETS",
    "Budget",
    "DistParams",
    "DomainError",
    "EULER_GAMMA",
    "Family",
    "GridSpec",
    "InfimumResult",
    "KappainfError",
    "LimitDirection",
    "NumericalError",
    "OracleReport",
    "ReducedPoint",
    "RegimeError",
    "adaptive_gauss_kronrod",
    "cdf",
    "erfcx",
    "grid_min",
    "ig_critical_point",
    "ig_peak_coord",
    "ig_prob_deriv",
    "ig_stationarity",
    "ig_stationarity_scaled",
    "infimum",
    "mc_prob",
    "mean",
    "pdf",
    "quadrature_prob",
    "reduce_params",
    "reduced_prob",
    "run_verification",
    "sample",
    "std_normal_cdf",
]

LAYERS = ["errors", "special", "distributions", "curves", "solver", "oracles", "verification"]


def test_package_exports_exactly_the_public_names():
    assert sorted(kappainf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(kappainf, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_export_exists(layer):
    module = importlib.import_module(f"kappainf.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
