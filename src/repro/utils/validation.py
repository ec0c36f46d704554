"""Error types and small argument-validation helpers used across the library."""

from __future__ import annotations

import operator
from typing import Sequence

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidMatchingError",
    "ProtocolError",
    "check_positive_int",
    "check_nonnegative_int",
    "check_probability",
    "check_quotas",
]


class ReproError(Exception):
    """Base class for all library errors."""


class InvalidInstanceError(ReproError):
    """A problem instance (graph / preferences / quotas) is inconsistent."""


class InvalidMatchingError(ReproError):
    """A matching violates feasibility (quota or edge-set constraints)."""


class ProtocolError(ReproError):
    """A distributed protocol reached an inconsistent state.

    Raised by the LID state machine when an invariant that the paper's
    lemmas guarantee is violated at runtime -- this should never happen
    and indicates an implementation bug, so it is surfaced loudly rather
    than swallowed.
    """


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive ``int``; raise otherwise."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_nonnegative_int(value: int, name: str) -> int:
    """Return ``value`` if it is a non-negative ``int``; raise otherwise."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``; raise otherwise."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_quotas(quotas: Sequence[int], n: int) -> list[int]:
    """Validate explicit connection quotas ``b_i`` for ``n`` nodes.

    Accepts any integral values (``operator.index``: Python and NumPy
    integers) and returns them as plain ``int``; rejects a length
    mismatch, and bool, fractional or negative quotas with a
    :class:`ValueError` naming the offending node.
    """
    if len(quotas) != n:
        raise ValueError(f"quotas length {len(quotas)} != n={n}")
    out = []
    for i, q in enumerate(quotas):
        try:
            b = None if isinstance(q, bool) else operator.index(q)
        except TypeError:
            b = None
        if b is None or b < 0:
            raise ValueError(
                f"quota of node {i} must be a non-negative integer, got {q!r}"
            )
        out.append(b)
    return out
