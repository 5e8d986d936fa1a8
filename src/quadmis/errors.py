"""The error type of bad input, and the number checks every entry point shares."""

from __future__ import annotations

import numpy as np


class InputError(ValueError):
    """Bad input: a setting, flag, environment value, graph or file.

    ParseError, InvalidGamma, InvalidEdge, InvalidEdgeCount and TooLarge
    derive from it. The CLI maps it to exit code 2; any other ValueError
    is a program fault and shows its traceback.
    """


def _is_count(k) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _is_real(x) -> bool:
    """A Python or numpy integer or float, not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _as_float(name: str, value) -> float:
    """value as a Python float; InputError unless it is a number and not
    a bool."""
    if not _is_real(value):
        raise InputError(f"{name} must be a number and not a bool, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{name} is too large for a float, got {value!r}") from None


def _checked_count(name: str, value, floor: int = 0, error: type[InputError] = InputError) -> int:
    """value as a Python int; error (InputError by default) unless it is a
    Python or numpy integer, not a bool, and at least floor."""
    if not _is_count(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise error(f"{name} must be {'non-negative' if floor == 0 else f'at least {floor}'}, got {value}")
    return int(value)
