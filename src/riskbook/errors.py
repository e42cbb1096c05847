"""Exception hierarchy for the riskbook package.

Everything raised on purpose derives from :class:`RiskbookError`, so callers
can catch one type at an API boundary.  Identifier-lookup failures share the
:class:`UnknownElement` base.
"""

from dataclasses import fields
from types import MappingProxyType
from typing import Iterable


class RiskbookError(Exception):
    """Base class for all errors raised by riskbook."""


class DuplicateElement(RiskbookError):
    """An identifier was declared more than once."""


class UnknownElement(RiskbookError):
    """An identifier is not declared in the structure being queried."""


class UnknownRule(UnknownElement):
    pass


class UnknownTrajectory(UnknownElement):
    pass


class UnknownScenario(UnknownElement):
    pass


class UnknownRealization(UnknownElement):
    pass


class DomainMismatch(RiskbookError):
    """A cost variable is not defined on exactly the space's scenarios."""


class InvalidAlpha(RiskbookError):
    """A quantile level is outside [0, 1] or missing where required."""


class EmptySupport(RiskbookError):
    """No scenario with positive probability is available."""


class PreconditionViolated(RiskbookError):
    """An operation was called with arguments that break its contract."""


class AssumptionUnmet(RiskbookError):
    """A configured risk measure lacks a property the analysis depends on."""


class NoWitness(RiskbookError):
    """No compensating rule exists; the tradeoff hypotheses do not hold."""


class ParseError(RiskbookError):
    """The instance document is not well-formed."""


class ValidationError(RiskbookError):
    """The instance document is well-formed but violates an invariant."""


def require_unique(ids: Iterable[str], what: str, error: type[RiskbookError]) -> None:
    """Raise ``error`` naming the first identifier that ``ids`` repeats."""
    seen: set[str] = set()
    for x in ids:
        if x in seen:
            raise error(f"{what} {x!r} is declared more than once; identifiers must be unique")
        seen.add(x)


def rebuild(obj) -> tuple:
    """``__reduce__`` of a validated dataclass: a pickle or deep copy calls the
    class with every field, read-only tables as dicts, so it is validated again."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return type(obj), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)
