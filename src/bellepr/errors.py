"""Shared exception types."""
from __future__ import annotations


class InputError(ValueError):
    """Invalid argument values (non-unit axis, bad parameters, N = 0, ...);
    the command-line runner reports it as a configuration error (exit 2)."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold numerically failed to hold."""


class PreconditionError(ValueError):
    """A scenario precondition is violated (e.g. detector regions overlap);
    the command-line runner reports it as exit 3."""


class ChartError(PreconditionError):
    """Momentum direction falls on the spinor chart cut (dir too close to -z).

    Callers should rotate the whole scene away from the excluded direction.
    """
