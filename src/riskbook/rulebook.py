"""Rules, rulebooks, and violation-based comparison of realizations.

A realization pairs one system trajectory with one environment trajectory.
Each rule scores realizations with a nonnegative degree of violation (zero
means fully compliant), and a rulebook adds a priority preorder over the
rules.  Comparison follows the compensation principle: one side is at most
as bad as the other when every rule that penalizes it more is outweighed by
a strictly higher-priority rule penalizing the other side more.  Equal-rank
rules never compensate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DuplicateElement, UnknownRealization, UnknownRule, ValidationError, require_unique
from .preorder import Preorder, Verdict
from .tolerance import gt, lt


class Realization(NamedTuple):
    system_trajectory: str
    env_trajectory: str


@dataclass(frozen=True)
class Rule:
    """A violation table over (system trajectory, environment trajectory) pairs,
    kept as a read-only copy whose every violation is nonnegative."""

    id: str
    violations: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", MappingProxyType(dict(self.violations)))
        for key, v in self.violations.items():
            if not v >= 0:  # also rejects NaN
                raise ValidationError(
                    f"rule {self.id!r} has violation {v!r} at {key!r}; violations must be nonnegative"
                )

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled rule is re-validated.
        return Rule, (self.id, dict(self.violations))

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

    def __reduce__(self):
        # Rebuilt through the constructor, which re-validates and drops cached views.
        return Rulebook, (self.rules, self.priority)

    @cached_property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rules)

    @cached_property
    def _by_id(self) -> dict[str, Rule]:
        return {r.id: r for r in self.rules}

    def rule(self, rule_id: str) -> Rule:
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise UnknownRule(f"unknown rule {rule_id!r}") from None


def violation(rb: Rulebook, rule_id: str, x: Realization) -> float:
    """Degree of violation of realization ``x`` under one rule."""
    return rb.rule(rule_id).violation(x)


def at_most_as_bad(
    priority: Preorder,
    costs_a: Mapping[str, float],
    costs_b: Mapping[str, float],
) -> bool:
    """Whether cost profile ``a`` is at most as bad as ``b`` under ``priority``.

    Holds when for every rule penalizing ``a`` more than ``b`` there is a
    strictly higher-priority rule (one of ``priority.strictly_above``)
    penalizing ``b`` more than ``a``.
    """
    above = priority.strictly_above
    for rule_id in priority.elements:
        if gt(costs_a[rule_id], costs_b[rule_id]) and not any(
            lt(costs_a[other], costs_b[other]) for other in above[rule_id]
        ):
            return False
    return True


def _profile(rb: Rulebook, x: Realization) -> dict[str, float]:
    return {r.id: r.violation(x) for r in rb.rules}


def compare_realizations(rb: Rulebook, x: Realization, y: Realization) -> Verdict:
    """Four-way comparison of two realizations under the rulebook.

    ``LOWER`` means ``x`` is strictly better (violates less), ``HIGHER``
    strictly worse; ``EQUAL`` holds exactly when every rule scores the two
    realizations the same within tolerance.
    """
    vx = _profile(rb, x)
    vy = _profile(rb, y)
    x_at_most_y = at_most_as_bad(rb.priority, vx, vy)
    y_at_most_x = at_most_as_bad(rb.priority, vy, vx)
    return Verdict.from_directions(forward=y_at_most_x, backward=x_at_most_y)
