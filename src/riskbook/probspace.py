"""Finite probability spaces over scenarios, and nonnegative cost variables.

A scenario is just an identifier; a :class:`RandomCost` assigns a finite,
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
of a zero.  The builder yields them from the top down, so a reader that
needs only the upper tail (worst case, CVaR) stops early and the groups
below are never merged; :func:`distribution` runs it to the end.

Every sum of floats in the package goes through one of two helpers here,
both adding left to right from ``0.0``: :func:`_sum` over a sequence of
terms and :func:`_total` over the probabilities at given positions.  Builtin
:func:`sum` is compensated from Python 3.12 on, so it would move the last
digits of reported figures with the interpreter; with one order of addition
every report is byte-identical on every supported Python, and a change of
summation (exact arithmetic, say) is a change to these two helpers.  Only
the running totals of VaR and CVaR in :mod:`riskbook.risk`, which need each
partial sum, keep their own loops, adding in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from math import inf
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainMismatch, PreconditionViolated, UnknownScenario, ValidationError, rebuild, require_unique
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

# Bound once, as :func:`_atoms` runs once per (rule, trajectory): the fields
# of a ``(value, positions, total)`` group.
_group_value = itemgetter(0)
_group_positions = itemgetter(1)


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
            p = self.probs[omega]
            if not 0 <= p < inf:  # also rejects NaN
                raise ValidationError(
                    f"probability of {omega!r} is {p!r}; probabilities must be finite and nonnegative"
                )
        total = _sum(self.probs[omega] for omega in self.scenarios)
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
    """A scenario-indexed finite, nonnegative cost, kept as a read-only copy."""

    values: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        for omega, v in self.values.items():
            if not 0.0 <= v < inf:  # also rejects NaN
                raise ValidationError(
                    f"cost at scenario {omega!r} is {v!r}; costs must be finite and nonnegative"
                )

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
    return _sum(space.probs[omega] * f.values[omega] for omega in space.scenarios)


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
        raise PreconditionViolated(f"unsupported relation {relation!r}") from None
    return _sum(
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
    atoms = list(_top_down(space, f)[0])
    atoms.reverse()
    return atoms


def _top_down(space: FiniteProbSpace, f: RandomCost) -> tuple[Iterator[tuple[float, float]], int]:
    """The atoms of ``f``'s distribution from the top down, as :func:`_atoms`
    yields them, and the number of groups they come from, which bounds
    their number."""
    _check_domain(space, f)
    order, probabilities = _ascending([space.probs[omega] for omega in space.scenarios])
    groups = [(f.values[space.scenarios[k]], [i], probabilities[i]) for i, k in enumerate(order)]
    return _atoms(groups, probabilities), len(groups)


def _ascending(probs: Sequence[float]) -> tuple[list[int], list[float]]:
    """The positive-probability scenarios in ascending (probability, index)
    order, which is the order sorting (value, probability) pairs gives the
    scenarios of one value, as their indices and their probabilities.  A
    group of scenarios is held as ascending positions in this order."""
    ascending = sorted((p, k) for k, p in enumerate(probs) if p > 0)
    return [k for _, k in ascending], [p for p, _ in ascending]


def _sum(values: Iterable[float]) -> float:
    """The sum of ``values``, added left to right from ``0.0``."""
    total = 0.0
    for value in values:
        total += value
    return total


def _total(probabilities: list[float], positions: Iterable[int], total: float = 0.0) -> float:
    """``total`` plus the probabilities at ``positions``, added left to right.
    Its own loop: :func:`_sum` over a ``map`` measured about 300 ns slower per
    call, and the atoms of a tail-risk rank make over a thousand calls."""
    for i in positions:
        total += probabilities[i]
    return total


def _atoms(groups: Iterable[tuple[float, list[int], float]], probabilities: list[float]) -> Iterator[tuple[float, float]]:
    """Atoms of a distribution given as groups of scenarios sharing one value,
    each ``(value, positions, total)``: ascending positions in the order of
    :func:`_ascending`, whose ``probabilities`` they index, and their
    :func:`_total`.  The atoms are yielded in descending value order.

    Reversed, they equal sorting every scenario's ``(value, probability)``
    pair and merging, left to right, each value within tolerance of the
    current atom's first value into that atom.  Groups of exactly equal
    value, such as ``0.0`` and ``-0.0``, are interleaved by position as the
    sort would interleave them, and the atom takes the value of the pair
    that comes first.

    The groups are sorted by value once and read from the top.  Neighbours
    within tolerance form a cluster, which no atom crosses: the merge starts
    a new atom at a cluster's lowest value, since every atom below is
    anchored more than the tolerance away.  So each cluster is merged on
    its own, left to right from its lowest member as above, once the gap
    below it or the bottom of the support is reached, and its atoms are
    yielded top first.  A cluster of one group, as every group of a
    continuous cost is, is the atom ``(value, total)``; consecutive atoms
    always lie more than the tolerance apart.
    """
    groups = sorted(groups, key=_group_value, reverse=True)
    end = len(groups)
    start = 0
    while start < end:
        value, _, total = groups[start]
        stop = start + 1
        low = value
        while stop < end and low - groups[stop][0] <= TOL:
            low = groups[stop][0]
            stop += 1
        if stop == start + 1:
            yield value, total
        else:
            yield from _merged(reversed(groups[start:stop]), probabilities)
        start = stop


def _merged(cluster: Iterable[tuple[float, list[int], float]], probabilities: list[float]) -> Iterator[tuple[float, float]]:
    """The atoms of one cluster of :func:`_atoms`, given as its groups in
    ascending value order, top first."""
    atoms: list[tuple[float, float]] = []
    for _, run in groupby(cluster, key=_group_value):
        run = list(run)
        if len(run) == 1:
            value, positions, total = run[0]
        else:
            positions = sorted(chain.from_iterable(map(_group_positions, run)))
            total = _total(probabilities, positions)
            # Groups hold disjoint positions, so the least list starts at positions[0].
            value = min(run, key=_group_positions)[0]
        if atoms and abs(value - atoms[-1][0]) <= TOL:
            anchor, mass = atoms[-1]
            atoms[-1] = (anchor, _total(probabilities, positions, mass))
        else:
            atoms.append((value, total))
    return reversed(atoms)
