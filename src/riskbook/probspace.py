"""Finite probability spaces over scenarios, and nonnegative cost variables.

A scenario is just an identifier; a :class:`RandomCost` assigns a
nonnegative cost to each one.  Probabilities are plain doubles validated to
sum to one within the package tolerance.  A space keeps a read-only copy of
the probabilities it was given, so it stays valid once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import DomainMismatch, UnknownScenario, ValidationError, require_unique
from .tolerance import TOL, eq, ge, gt, le, lt

# Relation tokens accepted by exceedance_prob; unicode forms map to ASCII.
_RELATIONS = {
    ">": gt,
    "<": lt,
    ">=": ge,
    "<=": le,
    "==": eq,
    "≥": ge,
    "≤": le,
    "=": eq,
}


@dataclass(frozen=True)
class FiniteProbSpace:
    """An ordered finite scenario set with a probability for each scenario."""

    scenarios: tuple[str, ...]
    probs: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "probs", MappingProxyType(dict(self.probs)))
        require_unique(self.scenarios, "scenario", ValidationError)
        if set(self.probs) != set(self.scenarios):
            raise ValidationError("probabilities must cover exactly the declared scenarios")
        for omega in self.scenarios:
            if not self.probs[omega] >= 0:  # also rejects NaN
                raise ValidationError(f"probability of {omega!r} is negative")
        total = sum(self.probs[omega] for omega in self.scenarios)
        if abs(total - 1.0) > TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")

    def prob(self, scenario: str) -> float:
        try:
            return self.probs[scenario]
        except KeyError:
            raise UnknownScenario(f"unknown scenario {scenario!r}") from None


@dataclass(frozen=True)
class RandomCost:
    """A scenario-indexed nonnegative cost."""

    values: Mapping[str, float]

    def __post_init__(self) -> None:
        for omega, v in self.values.items():
            if not v >= 0:  # also rejects NaN
                raise ValidationError(f"cost at scenario {omega!r} is negative")

    def value(self, scenario: str) -> float:
        try:
            return self.values[scenario]
        except KeyError:
            raise UnknownScenario(f"cost variable is undefined at scenario {scenario!r}") from None


def _check_domain(space: FiniteProbSpace, *costs: RandomCost) -> None:
    declared = set(space.scenarios)
    for f in costs:
        if set(f.values) != declared:
            raise DomainMismatch("cost variable is not defined on exactly the space's scenarios")


def expectation(space: FiniteProbSpace, f: RandomCost) -> float:
    """Probability-weighted sum of ``f`` over the scenarios, in declared order."""
    _check_domain(space, f)
    return sum(space.probs[omega] * f.values[omega] for omega in space.scenarios)


def exceedance_prob(space: FiniteProbSpace, f: RandomCost, g: RandomCost, relation: str = ">") -> float:
    """Probability of the event where ``f(ω) <relation> g(ω)`` holds.

    ``relation`` is one of ``>``, ``<``, ``>=``, ``<=``, ``==`` (unicode
    ``≥``/``≤``/``=`` are accepted); values are compared with the shared
    tolerance, so ``>`` and ``<=`` partition every scenario.
    """
    _check_domain(space, f, g)
    try:
        holds = _RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unsupported relation {relation!r}") from None
    return sum(
        space.probs[omega]
        for omega in space.scenarios
        if holds(f.values[omega], g.values[omega])
    )


def distribution(space: FiniteProbSpace, f: RandomCost) -> list[tuple[float, float]]:
    """Probability mass function of ``f`` as ``(value, probability)`` pairs.

    Values are strictly ascending; values within tolerance of each other are
    merged into one atom and scenarios of probability zero are dropped, so
    the result reflects only outcomes that can actually occur.
    """
    _check_domain(space, f)
    pairs = sorted(
        (f.values[omega], space.probs[omega])
        for omega in space.scenarios
        if space.probs[omega] > 0
    )
    atoms: list[tuple[float, float]] = []
    for v, p in pairs:
        if atoms and abs(v - atoms[-1][0]) <= TOL:
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + p)
        else:
            atoms.append((v, p))
    return atoms
