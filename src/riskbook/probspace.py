"""Finite probability spaces over scenarios, and nonnegative cost variables.

A scenario is just an identifier; a :class:`RandomCost` assigns a
nonnegative cost to each one.  Probabilities are plain doubles validated to
sum to one within the package tolerance.  A space and a cost each keep a
read-only copy of the table they were given, so they stay valid once built.

A distribution is built from groups of scenarios that share one value:
:func:`distribution` passes each positive-probability scenario as a group of
its own, and the compiled evaluation in :mod:`riskbook.riskaware` groups a
trajectory's scenarios by the environment response they trigger.  Both feed
one atom builder, which alone merges equal values and picks a zero's sign:
its atoms are exactly those of sorting every (value, probability) pair and
merging values within tolerance, down to the order of each sum and the sign
of a zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DomainMismatch, UnknownScenario, ValidationError, rebuild, require_unique
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

    __reduce__ = rebuild

    def prob(self, scenario: str) -> float:
        try:
            return self.probs[scenario]
        except KeyError:
            raise UnknownScenario(f"unknown scenario {scenario!r}") from None


@dataclass(frozen=True)
class RandomCost:
    """A scenario-indexed nonnegative cost, kept as a read-only copy."""

    values: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        for omega, v in self.values.items():
            if not v >= 0:  # also rejects NaN
                raise ValidationError(f"cost at scenario {omega!r} is negative")

    __reduce__ = rebuild

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
    order, probabilities = _ascending([space.probs[omega] for omega in space.scenarios])
    groups = [(f.values[space.scenarios[k]], [i], probabilities[i]) for i, k in enumerate(order)]
    return _atoms(groups, probabilities)


def _ascending(probs: Sequence[float]) -> tuple[list[int], list[float]]:
    """The positive-probability scenarios in ascending (probability, index)
    order, which is the order sorting (value, probability) pairs gives the
    scenarios of one value, as their indices and their probabilities.  A
    group of scenarios is held as ascending positions in this order."""
    ascending = sorted((p, k) for k, p in enumerate(probs) if p > 0)
    return [k for _, k in ascending], [p for p, _ in ascending]


def _total(probabilities: list[float], positions: Iterable[int], total: float = 0.0) -> float:
    """``total`` plus the probabilities at ``positions``, added left to right."""
    for i in positions:
        total += probabilities[i]
    return total


def _atoms(groups: Iterable[tuple[float, list[int], float]], probabilities: list[float]) -> list[tuple[float, float]]:
    """Atoms of a distribution given as groups of scenarios sharing one value,
    each ``(value, positions, total)``: ascending positions in the order of
    :func:`_ascending`, whose ``probabilities`` they index, and their
    :func:`_total`.

    The result equals sorting every scenario's ``(value, probability)`` pair
    and merging, left to right, each value within tolerance of the current
    atom's first value into that atom.  Groups of exactly equal value, such
    as ``0.0`` and ``-0.0``, are interleaved by position as the sort would
    interleave them, and the atom takes the value of the pair that comes first.
    """
    atoms: list[tuple[float, float]] = []
    for _, run in groupby(sorted(groups, key=itemgetter(0)), key=itemgetter(0)):
        run = list(run)
        if len(run) == 1:
            value, positions, total = run[0]
        else:
            positions = sorted(chain.from_iterable(group for _, group, _ in run))
            total = _total(probabilities, positions)
            value = next(v for v, group, _ in run if group[0] == positions[0])
        if atoms and abs(value - atoms[-1][0]) <= TOL:
            anchor, mass = atoms[-1]
            atoms[-1] = (anchor, _total(probabilities, positions, mass))
        else:
            atoms.append((value, total))
    return atoms
