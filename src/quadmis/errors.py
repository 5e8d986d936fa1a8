"""The error type for input that comes from the user."""

from __future__ import annotations


class InputError(ValueError):
    """Bad input: a setting, flag, environment value, graph or file.

    ParseError, InvalidGamma, InvalidEdge, InvalidEdgeCount and TooLarge
    derive from it. The CLI maps it to exit code 2; any other ValueError
    is a program fault and shows its traceback.
    """
