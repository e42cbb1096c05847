"""Shared absolute tolerance for floating-point comparisons.

All value comparisons in the package go through these helpers so that
"greater", "equal", and "at most" stay mutually consistent: ``gt(a, b)`` and
``le(a, b)`` are exact complements, as are ``lt`` and ``ge``.  ``exceeding``
is ``gt`` applied position by position over two vectors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

TOL = 1e-9


def gt(a: float, b: float) -> bool:
    """a is greater than b beyond the tolerance."""
    return a - b > TOL


def lt(a: float, b: float) -> bool:
    """a is smaller than b beyond the tolerance."""
    return b - a > TOL


def ge(a: float, b: float) -> bool:
    """a is greater than or tolerance-equal to b (complement of ``lt``)."""
    return b - a <= TOL


def le(a: float, b: float) -> bool:
    """a is smaller than or tolerance-equal to b (complement of ``gt``)."""
    return a - b <= TOL


def eq(a: float, b: float) -> bool:
    """a and b differ by at most the tolerance."""
    return abs(a - b) <= TOL


def exceeding(a: Sequence[float], b: Sequence[float], positions: Iterable[int]) -> list[int]:
    """The positions ``k`` at which ``gt(a[k], b[k])``, in the order given."""
    return [k for k in positions if a[k] - b[k] > TOL]
