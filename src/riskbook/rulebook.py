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

from dataclasses import dataclass
from functools import cached_property
from math import inf
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import DuplicateElement, UnknownRealization, UnknownRule, ValidationError, rebuild, require_unique
from .preorder import Preorder, Verdict
from .tolerance import gt, lt


class Realization(NamedTuple):
    system_trajectory: str
    env_trajectory: str


@dataclass(frozen=True)
class Rule:
    """A violation table over (system trajectory, environment trajectory) pairs,
    kept as a read-only copy whose every violation is finite and nonnegative."""

    id: str
    violations: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", MappingProxyType(dict(self.violations)))
        for key, v in self.violations.items():
            if not 0.0 <= v < inf:  # also rejects NaN
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
