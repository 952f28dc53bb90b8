"""Argument-validation helpers with informative error messages.

Thin wrappers used at public API boundaries; internal hot loops rely on
the vectorised ``Trace.validate`` checks instead.
"""

from __future__ import annotations

from repro.util.intmath import is_power_of_two

__all__ = ["check_power_of_two", "check_range"]


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a power of two and return it."""
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a power of two, got {value!r}")
    return value


def check_range(value: float, name: str, low=None, high=None) -> float:
    """Validate ``low <= value <= high`` (either bound may be ``None``)."""
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return value
