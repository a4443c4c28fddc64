"""Exception hierarchy and argument guards shared across the package."""

from __future__ import annotations

import math
import operator
from typing import Any

import numpy as np

__all__ = [
    "KappainfError",
    "DomainError",
    "RegimeError",
    "NumericalError",
    "require_finite",
    "require_positive",
    "require_count",
    "finite_array",
    "unwrap",
]


class KappainfError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KappainfError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(KappainfError, ValueError):
    """The requested quantity does not exist in this parameter regime."""


class NumericalError(KappainfError, ArithmeticError):
    """A numerical procedure failed to converge within its budget."""


def require_finite(name: str, value: Any) -> float:
    """Coerce to float and reject NaN/inf/non-numbers."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def require_positive(name: str, value: Any) -> float:
    x = require_finite(name, value)
    if x <= 0.0:
        raise DomainError(f"{name} must be > 0, got {x!r}")
    return x


def require_count(name: str, value: Any) -> int:
    """An integer >= 0 (a sample size or a seed); rejects floats and non-numbers."""
    try:
        n = operator.index(value)
    except TypeError as exc:
        raise DomainError(f"{name} must be an integer, got {value!r}") from exc
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")
    return n


def finite_array(name: str, value: Any, positive: bool = False) -> tuple[np.ndarray, bool]:
    """(float ndarray, was_scalar) of a scalar or array argument; rejects
    non-numbers, NaN/inf entries and, when ``positive``, entries <= 0."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    finite = np.isfinite(arr)
    if not finite.all():
        raise DomainError(f"{name} must be finite, got {_first_bad(value, arr, ~finite)}")
    if positive and np.any(arr <= 0.0):
        raise DomainError(f"{name} must be > 0, got {_first_bad(value, arr, arr <= 0.0)}")
    return arr, arr.ndim == 0


def _first_bad(value, arr: np.ndarray, bad: np.ndarray) -> str:
    """A scalar as given, or an array's first bad entry with its index and
    the array's size (the whole array could run to megabytes)."""
    if arr.ndim == 0:
        return repr(value)
    index = np.unravel_index(int(np.argmax(bad)), arr.shape)
    at = int(index[0]) if arr.ndim == 1 else tuple(int(i) for i in index)
    return f"{float(arr[index])!r} at index {at} of {arr.size} entries"


def unwrap(value, scalar: bool):
    """Back to the caller's shape: a float where finite_array saw a scalar."""
    return float(value) if scalar else value
