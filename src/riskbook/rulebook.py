"""Rules, rulebooks, and violation-based comparison of realizations.

A realization pairs one system trajectory with one environment trajectory.
Each rule scores realizations with a nonnegative degree of violation (zero
means fully compliant), and a rulebook adds a priority preorder over the
rules.  Comparison follows the compensation principle, in two steps: one
pass over the rules finds the rules that penalize each side more than the
other, and a side is at most as bad as the other when each rule it is worse
on has a strictly higher-priority rule that the other side is worse on.
Equal-rank rules never compensate each other.  :func:`compare_profiles` is
the package's only comparison of two cost or excess profiles.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import inf, isfinite
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import DuplicateElement, UnknownRealization, UnknownRule, ValidationError, rebuild, require_unique
from .preorder import Preorder, Verdict
from .tolerance import gt, lt


class Realization(NamedTuple):
    system_trajectory: str
    env_trajectory: str


@dataclass(frozen=True, eq=False)
class _Grid(Mapping):
    """A read-only table keyed by (row id, column id) pairs, stored as one
    tuple of values per row, rows and values in declaration order.

    The parser builds one per JSON table, so a rule's violation rows and the
    interaction's response rows are the tables the evaluation reads, and no
    dict keyed by pairs is built on the way.  Lookups by pair index the rows;
    iteration yields the pairs in declaration order.  Two grids over the same
    ids compare by their rows, and a grid equals any mapping with the same
    items.  Like a mapping, a grid is not hashable (``eq=False`` keeps the
    ``__hash__ = None`` that defining ``__eq__`` implies).  A grid checks its
    shape when built, also when unpickled or deep-copied, so its rows always
    cover its ids; its owner checks the values.
    """

    row_ids: tuple[str, ...]
    column_ids: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.column_ids)
        if len(self.rows) != len(self.row_ids) or any(len(row) != n for row in self.rows):
            raise ValidationError("grid rows do not match its row and column ids")

    __reduce__ = rebuild

    @cached_property
    def _positions(self) -> tuple[dict[str, int], dict[str, int]]:
        return {r: i for i, r in enumerate(self.row_ids)}, {c: j for j, c in enumerate(self.column_ids)}

    def __getitem__(self, key: tuple[str, str]) -> Any:
        if isinstance(key, tuple) and len(key) == 2:
            rows, columns = self._positions
            i, j = rows.get(key[0]), columns.get(key[1])
            if i is not None and j is not None:
                return self.rows[i][j]
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return product(self.row_ids, self.column_ids)

    def __len__(self) -> int:
        return len(self.row_ids) * len(self.column_ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Grid) and (self.row_ids, self.column_ids) == (other.row_ids, other.column_ids):
            return self.rows == other.rows
        return super().__eq__(other)


def _reader(keys: Sequence) -> Callable[[Any], tuple]:
    """A function giving ``row[k]`` for each of ``keys``, in order, as a tuple,
    in one C-level :func:`operator.itemgetter` call; itemgetter returns a bare
    value for one key and needs at least one, so fewer keys are read one by
    one.  Much faster than mapping a tuple's ``__getitem__``, a slot wrapper."""
    return itemgetter(*keys) if len(keys) > 1 else lambda row: tuple(map(row.__getitem__, keys))


def _finite_nonnegative(row: tuple[float, ...]) -> bool:
    """Whether every value of ``row`` is finite and nonnegative, at C level:
    a NaN or an infinity makes the sum non-finite.  A sum that overflows on
    finite values also reads False, which sends the caller to its walk."""
    return isfinite(sum(row)) and min(row, default=0.0) >= 0.0


@dataclass(frozen=True)
class Rule:
    """A violation table over (system trajectory, environment trajectory) pairs,
    kept read-only, whose every violation is a finite, nonnegative int or
    float (not a bool).

    A caller's mapping is kept as a read-only copy and checked value by
    value.  A :class:`_Grid`, as the parser builds, is kept as it is and
    checked row by row at C level; only a grid with a failing row is walked
    value by value, for the message.
    """

    id: str
    violations: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if not isinstance(self.violations, _Grid):
            object.__setattr__(self, "violations", MappingProxyType(dict(self.violations)))
        elif all(map(_finite_nonnegative, self.violations.rows)):
            return
        for key, v in self.violations.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v < inf:  # also rejects NaN
                raise ValidationError(
                    f"rule {self.id!r} has violation {v!r} at {key!r}; violations must be finite and nonnegative"
                )

    __reduce__ = rebuild

    def violation(self, x: Realization) -> float:
        try:
            return self.violations[(x.system_trajectory, x.env_trajectory)]
        except KeyError:
            raise UnknownRealization(
                f"rule {self.id!r} has no entry for realization {tuple(x)!r}"
            ) from None


@dataclass(frozen=True)
class Rulebook:
    """A finite set of rules plus a priority preorder over their identifiers."""

    rules: tuple[Rule, ...]
    priority: Preorder

    def __post_init__(self) -> None:
        ids = self.rule_ids
        require_unique(ids, "rule", DuplicateElement)
        if set(self.priority.elements) != set(ids):
            raise ValidationError("priority preorder must range over exactly the rule ids")

    __reduce__ = rebuild

    @cached_property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rules)

    def rule(self, rule_id: str) -> Rule:
        try:
            return self.rules[self.rule_ids.index(rule_id)]
        except ValueError:
            raise UnknownRule(f"unknown rule {rule_id!r}") from None


def violation(rb: Rulebook, rule_id: str, x: Realization) -> float:
    """Degree of violation of realization ``x`` under one rule."""
    return rb.rule(rule_id).violation(x)


def compare_profiles(
    priority: Preorder, rule_ids: Iterable[str], costs_a: Mapping[str, float], costs_b: Mapping[str, float]
) -> tuple[tuple[str, ...], tuple[str, ...], bool, bool]:
    """The rules, in the order of ``rule_ids``, on which ``a``'s cost exceeds
    ``b``'s beyond the tolerance, those on which ``b``'s exceeds ``a``'s, and
    whether ``a`` is at most as bad as ``b`` and ``b`` as ``a``.  A side is at
    most as bad as the other when each rule it is worse on has a strictly
    higher rule (``priority.strictly_above``) that the other side is worse on."""
    worse_a, worse_b = [], []
    for rule_id in rule_ids:
        d = costs_a[rule_id] - costs_b[rule_id]
        if gt(d, 0.0):
            worse_a.append(rule_id)
        elif lt(d, 0.0):
            worse_b.append(rule_id)
    above = priority.strictly_above
    a_le_b = all(not above[rule_id].isdisjoint(worse_b) for rule_id in worse_a)
    b_le_a = all(not above[rule_id].isdisjoint(worse_a) for rule_id in worse_b)
    return tuple(worse_a), tuple(worse_b), a_le_b, b_le_a


def at_most_as_bad(
    priority: Preorder,
    costs_a: Mapping[str, float],
    costs_b: Mapping[str, float],
) -> bool:
    """Whether cost profile ``a`` is at most as bad as ``b`` under ``priority``,
    as :func:`compare_profiles` decides it."""
    return compare_profiles(priority, priority.elements, costs_a, costs_b)[2]


def _profile(rb: Rulebook, x: Realization) -> dict[str, float]:
    return {r.id: r.violation(x) for r in rb.rules}


def compare_realizations(rb: Rulebook, x: Realization, y: Realization) -> Verdict:
    """Four-way comparison of two realizations under the rulebook.

    ``LOWER`` means ``x`` is strictly better (violates less), ``HIGHER``
    strictly worse; ``EQUAL`` holds exactly when every rule scores the two
    realizations the same within tolerance.
    """
    _, _, x_le_y, y_le_x = compare_profiles(rb.priority, rb.rule_ids, _profile(rb, x), _profile(rb, y))
    return Verdict.from_directions(forward=y_le_x, backward=x_le_y)
