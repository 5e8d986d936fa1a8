"""The error type for settings that come from the user."""

from __future__ import annotations


class InputError(ValueError):
    """A solver setting, preset, flag or environment value that is invalid.

    The CLI maps it to exit code 2, like the parse and graph errors; any
    other ValueError is a program fault and shows its traceback.
    """
