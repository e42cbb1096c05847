"""Finite preorders: reflexive, transitive relations with four-way comparison.

A :class:`Preorder` stores the full reflexive-transitive closure of its
declared edges.  A pair ``(a, b)`` in the relation reads "a is at least as
high as b"; rule priorities and the trajectory risk ordering both use this
orientation, with "higher" meaning more important and riskier respectively.
Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import DuplicateElement, UnknownElement, ValidationError, rebuild, require_unique


class Verdict(Enum):
    """Outcome of comparing two elements of a preorder.

    ``HIGHER`` means the first argument strictly dominates the second,
    ``LOWER`` the reverse, ``EQUAL`` that both directions of the relation
    hold, and ``INCOMPARABLE`` that neither does.
    """

    HIGHER = "higher"
    LOWER = "lower"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    @staticmethod
    def from_directions(forward: bool, backward: bool) -> "Verdict":
        """Build a verdict from the two directions of a relation.

        ``forward`` is "first dominates-or-equals second", ``backward`` the
        reverse direction.
        """
        if forward and backward:
            return Verdict.EQUAL
        if forward:
            return Verdict.HIGHER
        if backward:
            return Verdict.LOWER
        return Verdict.INCOMPARABLE


@dataclass(frozen=True)
class Preorder:
    """A closed preorder over a finite, ordered set of identifiers.

    ``relation`` must already be reflexive and transitive; use
    :func:`build_preorder` to close a set of declared edges.  Element order
    is preserved from declaration so that every derived output is
    deterministic.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        require_unique(self.elements, "element", DuplicateElement)
        malformed = [m for m in self.relation if not (isinstance(m, tuple) and len(m) == 2)]
        if malformed:
            raise ValidationError(f"relation member {min(malformed, key=repr)!r} is not a pair")
        index = {e: i for i, e in enumerate(self.elements)}
        undeclared = [(a, b) for a, b in self.relation if a not in index or b not in index]
        if undeclared:
            a, b = min(undeclared, key=repr)
            raise UnknownElement(f"relation pair ({a!r}, {b!r}) references an undeclared element")
        for a in self.elements:
            if (a, a) not in self.relation:
                raise ValidationError(f"relation is not reflexive: missing ({a!r}, {a!r})")
        reach: list[set[int]] = [set() for _ in self.elements]
        for a, b in self.relation:
            reach[index[a]].add(index[b])
        broken = first_intransitive(reach)
        if broken:
            a, b, c = (self.elements[i] for i in broken)
            raise ValidationError(f"relation is not transitive at ({a!r}, {b!r}): missing ({a!r}, {c!r})")

    __reduce__ = rebuild

    @cached_property
    def strictly_above(self) -> Mapping[str, frozenset[str]]:
        """For each element ``x``, every ``y`` with ``(y, x)`` in the relation but
        not ``(x, y)``: the elements strictly higher than ``x``.  Computed once
        per preorder; the compensation rule reads it instead of :meth:`compare`."""
        above: dict[str, set[str]] = {a: set() for a in self.elements}
        for hi, lo in self.relation:
            if (lo, hi) not in self.relation:
                above[lo].add(hi)
        return MappingProxyType({a: frozenset(higher) for a, higher in above.items()})

    def _require(self, *ids: str) -> None:
        # The relation is reflexive, so it holds (x, x) exactly for declared x.
        for x in ids:
            if (x, x) not in self.relation:
                raise UnknownElement(f"unknown element {x!r}")

    def at_least(self, a: str, b: str) -> bool:
        """True when a is at least as high as b."""
        self._require(a, b)
        return (a, b) in self.relation

    def strictly_higher(self, a: str, b: str) -> bool:
        """True when a is at least as high as b but not conversely."""
        self._require(a, b)
        return a in self.strictly_above[b]

    def compare(self, a: str, b: str) -> Verdict:
        """Four-way comparison of a against b."""
        self._require(a, b)
        return Verdict.from_directions((a, b) in self.relation, (b, a) in self.relation)

    def minimal_elements(self, subset: Sequence[str]) -> list[str]:
        """Members of ``subset`` that are not strictly above any other member.

        This is the bottom layer of the preorder restricted to ``subset``:
        with the "riskier is higher" orientation used for trajectories it is
        exactly the set with no strictly better alternative.  Output keeps
        the order of ``subset`` and is nonempty whenever ``subset`` is.
        """
        self._require(*subset)
        above = self.strictly_above
        return [a for a in subset if not any(a in above[b] for b in subset)]


def first_intransitive(reach: Sequence[AbstractSet[int]]) -> tuple[int, int, int] | None:
    """The first ``(a, b, c)`` in index order with ``b`` in ``reach[a]`` and
    ``c`` in ``reach[b]`` but not in ``reach[a]``, or None when the relation
    that ``reach`` lists per index is transitive.  One set difference per
    related pair, so the scan costs set operations, not a test per triple."""
    for a, above in enumerate(reach):
        for b in range(len(reach)):
            if b in above:
                missing = reach[b] - above
                if missing:
                    return a, b, min(missing)
    return None


def build_preorder(elements: Sequence[str], priority_edges: Iterable[tuple[str, str]]) -> Preorder:
    """Close the declared ``(higher, lower)`` edges into a :class:`Preorder`.

    Equal rank is declared with a pair of opposite edges; omitting both
    directions leaves two elements incomparable.  Raises
    :class:`UnknownElement` when an edge endpoint is undeclared, and the
    :class:`Preorder` it builds raises :class:`DuplicateElement` on repeated
    identifiers.
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}

    n = len(elements)
    reach = [1 << i for i in range(n)]
    for hi, lo in priority_edges:
        for x in (hi, lo):
            if x not in index:
                raise UnknownElement(f"edge ({hi!r}, {lo!r}) references undeclared element {x!r}")
        reach[index[hi]] |= 1 << index[lo]

    # Warshall closure on bitmasks; element counts are small.
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= reach[k]

    relation = frozenset(
        (elements[i], elements[j]) for i in range(n) for j in range(n) if reach[i] >> j & 1
    )
    return Preorder(elements, relation)
