"""The public API is pinned: adding or removing a name has to change this list."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    "RegimeError",
    "cdf",
    "grid_min",
    "ig_critical_point",
    "ig_peak_coord",
    "ig_prob_deriv",
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


def _scipy_importers(directory: Path) -> list[str]:
    """Names of the .py files under ``directory`` that import scipy."""
    found = []
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(path.relative_to(directory).as_posix())
                break
    return found


def test_no_module_imports_scipy():
    # the runtime dependencies are numpy and click, and the tests check the
    # package's own kernels rather than scipy's
    root = Path(__file__).resolve().parents[1]
    assert _scipy_importers(root / "src" / "kappainf") == []
    assert _scipy_importers(root / "tests") == []


def test_verify_runs_where_scipy_cannot_be_imported():
    # sys.modules["scipy"] = None makes every import of scipy raise
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import kappainf.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        "kappainf.cli.main(['verify', '--budget', 'quick', '--seed', '1'])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "FAIL" not in result.stdout
