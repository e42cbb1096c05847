"""Risk-aware evaluation of system trajectories under scenario uncertainty.

The environment's response to a system trajectory depends on a latent
scenario drawn from a finite probability space.  Fixing a rule and a system
trajectory therefore induces a random cost over scenarios; each rule assesses
that cost with its own risk measure and forgives anything up to its
threshold.  The resulting per-trajectory excess-risk profiles are compared
with the same compensation principle used for realizations, which yields a
preorder over trajectories, a notion of safety (zero excess everywhere), and
optimality (no strictly less risky alternative).

Any advantage a challenger shows over an optimal trajectory is backed by an
explicit tradeoff: some rule that is not lower in priority penalizes the
challenger more on a scenario set of positive probability.  The witness
operations in this module extract those justifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import inf, isfinite
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import (
    AssumptionUnmet,
    NoWitness,
    PreconditionViolated,
    UnknownElement,
    UnknownRule,
    UnknownScenario,
    UnknownTrajectory,
    ValidationError,
    rebuild,
    require_unique,
)
from .preorder import Verdict
from .probspace import FiniteProbSpace, RandomCost, _ascending, _atoms, _sum, _total
from .risk import CUSTOM, EXPECTED, RiskMeasure, assess, assess_support, is_strictly_monotone_class
from .rulebook import Realization, Rulebook, _Grid, _reader, compare_profiles, compare_realizations
from .tolerance import exceeding, le, lt


@dataclass(frozen=True)
class InteractionModel:
    """Environment response for every (system trajectory, scenario) pair, kept
    read-only: a caller's mapping as a read-only copy, a parsed table as the
    :class:`~riskbook.rulebook._Grid` of its rows."""

    responses: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        if not isinstance(self.responses, _Grid):
            object.__setattr__(self, "responses", MappingProxyType(dict(self.responses)))

    __reduce__ = rebuild

    def response(self, trajectory: str, scenario: str) -> str:
        try:
            return self.responses[(trajectory, scenario)]
        except KeyError:
            raise UnknownScenario(
                f"no interaction entry for trajectory {trajectory!r} under scenario {scenario!r}"
            ) from None


@dataclass(frozen=True)
class RiskConfig:
    """A rule's risk measure together with its tolerated risk threshold."""

    measure: RiskMeasure
    threshold: float

    def __post_init__(self) -> None:
        if not 0 <= self.threshold < inf:  # also rejects NaN
            raise ValidationError(f"threshold must be finite and nonnegative, got {self.threshold!r}")


def _require_grid(table: Mapping, rows: tuple[str, ...], columns: tuple[str, ...], owner: str) -> tuple[tuple, ...]:
    """``table``'s values as one tuple per row, rows and values in declaration
    order.  A :class:`~riskbook.rulebook._Grid` over exactly ``rows`` ×
    ``columns`` gives its own rows, checked by comparing id tuples.  Any other
    mapping is read pair by pair and must have one entry per (row, column)
    pair and no other; otherwise this raises, naming the first undeclared key
    in table order or else the first missing pair in declaration order.  A
    key is declared when it is a member of rows × columns: a pair whose row
    and column are declared (tested through the two id sets, which is faster
    than hashing every key as a tuple)."""
    if isinstance(table, _Grid) and table.row_ids == rows and table.column_ids == columns:
        return table.rows
    if len(table) == len(rows) * len(columns):
        try:  # every declared pair found among as many keys: no key is undeclared
            return tuple(tuple([table[(r, c)] for c in columns]) for r in rows)
        except KeyError:
            pass
    row_ids, column_ids = set(rows), set(columns)
    for key in table:
        if not isinstance(key, tuple) or len(key) != 2 or key[0] not in row_ids or key[1] not in column_ids:
            raise ValidationError(f"{owner} has an entry for undeclared pair {key!r}")
    key = next((r, c) for r in rows for c in columns if (r, c) not in table)
    raise ValidationError(f"{owner} is missing an entry for {key!r}")


def _declared(ids: tuple[str, ...], x: str, error: type[UnknownElement], what: str) -> int:
    try:
        return ids.index(x)
    except ValueError:
        raise error(f"unknown {what} {x!r}") from None


@dataclass(frozen=True)
class Instance:
    """A complete evaluation problem.

    Bundles the scenario space, the candidate system trajectories, the
    possible environment trajectories, the interaction model, the rulebook,
    and one :class:`RiskConfig` per rule.  Each part checks its own
    invariants when built; the instance checks what ties them together:
    unique trajectory ids, interaction and violation tables total over the
    declared ids, responses naming declared environment trajectories, and a
    risk configuration for exactly the rules.  Tables are read-only, so an
    instance stays valid once built.

    The check leaves the tables as rows in declaration order, which the
    evaluation reads by index: one response-index vector per trajectory and
    one violation row per (rule, trajectory), about T·S + R·T·E slots for T
    trajectories, S scenarios, R rules and E environment trajectories.  The
    rows of a parsed table (a :class:`~riskbook.rulebook._Grid` over the
    instance's own ids, checked by comparing id tuples) are kept by
    reference; a caller's mapping is read pair by pair, once.  Each
    trajectory's scenarios grouped by response are compiled on the first
    evaluation, and every risk that evaluations assess, every trajectory's
    excess profile that they build and every pair of profiles that they
    compare is kept with them (:class:`_Compiled`).  None of this is a
    field, so equality, :func:`dataclasses.replace`, pickling and deep
    copies never see it: every copy, including each one
    :func:`~riskbook.instances.with_risk_config` makes, is built and
    validated by this constructor and compiles its own groups, with stores
    of its own, when first evaluated, so it assesses its risks, a custom
    measure's included, and builds and compares its profiles anew.
    """

    space: FiniteProbSpace
    trajectories: tuple[str, ...]
    env_trajectories: tuple[str, ...]
    interaction: InteractionModel
    rulebook: Rulebook
    risk_configs: Mapping[str, RiskConfig]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "env_trajectories", tuple(self.env_trajectories))
        object.__setattr__(self, "risk_configs", MappingProxyType(dict(self.risk_configs)))
        require_unique(self.trajectories, "system trajectory", ValidationError)
        require_unique(self.env_trajectories, "environment trajectory", ValidationError)

        table = self.interaction.responses
        cells = _require_grid(table, self.trajectories, self.space.scenarios, "interaction")
        env_index = {env: e for e, env in enumerate(self.env_trajectories)}.__getitem__
        try:
            responses = tuple(tuple(map(env_index, row)) for row in cells)
        except (KeyError, TypeError):  # an undeclared or unhashable response
            envs = set(self.env_trajectories)
            key, env = next((key, env) for key, env in table.items() if not isinstance(env, str) or env not in envs)
            raise ValidationError(f"interaction maps {key!r} to undeclared environment trajectory {env!r}") from None
        object.__setattr__(self, "_responses", responses)
        object.__setattr__(
            self,
            "_violation_rows",
            tuple(
                _require_grid(rule.violations, self.trajectories, self.env_trajectories, f"rule {rule.id!r}")
                for rule in self.rulebook.rules
            ),
        )
        for rule_id in self.rulebook.rule_ids:
            if rule_id not in self.risk_configs:
                raise ValidationError(f"rule {rule_id!r} has no risk configuration")
        for rule_id in self.risk_configs:
            if rule_id not in self.rulebook.rule_ids:
                raise ValidationError(f"risk configuration given for unknown rule {rule_id!r}")

    __reduce__ = rebuild

    @cached_property
    def _compiled(self) -> _Compiled:
        return _Compiled(self)

    def require_trajectory(self, trajectory: str) -> int:
        return _declared(self.trajectories, trajectory, UnknownTrajectory, "system trajectory")

    def require_rule(self, rule_id: str) -> int:
        return _declared(self.rulebook.rule_ids, rule_id, UnknownRule, "rule")

    def require_scenario(self, scenario: str) -> int:
        return _declared(self.space.scenarios, scenario, UnknownScenario, "scenario")

    def config(self, rule_id: str) -> RiskConfig:
        self.require_rule(rule_id)
        return self.risk_configs[rule_id]


class _Compiled:
    """The index tables of an instance, fixed with its risk configurations.

    Rules, trajectories, scenarios and environment trajectories are
    addressed by declaration index.  A rule's induced cost depends on the
    scenario only through the environment response it triggers, so each
    trajectory ``t`` has one response-index vector ``responses[t]`` and each
    rule ``r`` one violation row ``rows[r][t]`` over environment
    trajectories: both are the rows the :class:`Instance` constructor left,
    taken by reference.  ``groups[t]`` holds ``t``'s positive-probability
    scenarios grouped by response as three columns, ``(responses,
    positions, totals)``, one entry per group in response order: the
    response's index, the group's positions, ascending in the order of
    ``ascending``, and their total, added left to right, in the terms of
    :func:`~riskbook.probspace._atoms`.  A rule's groups are then its row
    read at ``responses`` zipped with the other two columns, with no tuple
    kept per group.  ``read_scenarios[t]`` and ``read_groups[t]`` read a
    violation row at ``t``'s responses, scenario by scenario and group by
    group, each in one :func:`operator.itemgetter` call.

    :meth:`atoms` yields a rule's atoms under ``t`` from the top down, and
    builds them only as far as they are read.  An instance's risk
    configurations cannot change, so the risk of rule ``r`` under ``t`` is a
    constant of the instance, whatever the measure.  ``risks`` keeps it at
    ``r·T + t`` for T trajectories, ``None`` until some evaluation assesses
    it: one float per (rule, trajectory), filled from the first evaluation
    on, since keeping a float builds nothing a measure does not read.  Only
    finite risks are kept; one that is not finite stays ``None``, so every
    read assesses it again and fails.  A custom measure's callable thus runs
    once per (rule, trajectory) per instance, and must be deterministic,
    which is also what makes threads safe here: threads that evaluate one
    instance at once can at worst both assess a risk, and the two results
    are equal.

    Thresholds are fixed too, so each trajectory's excess profile is a
    constant of the instance.  ``profiles[t]`` keeps ``t``'s, a dict from
    rule id to excess in rule order, ``None`` until some evaluation builds
    it from the kept risks.  A risk that is not finite raises before the
    dict is stored, so every read of that profile fails again.  Threads can
    at worst both build a profile, as they can a risk, and the two dicts
    are equal.  The kept dicts are private to this module and
    :mod:`riskbook.reports`: every public return value and report field
    that holds a profile is a new dict, so a caller that writes into one
    changes no later verdict.

    Each comparison of two profiles is then a constant of the instance too.
    ``comparisons`` keeps :func:`~riskbook.rulebook.compare_profiles` of
    trajectories ``a < b`` at ``a·T + b``, ``None`` until some evaluation
    compares that pair: a tuple ``(worse_a, worse_b, a_le_b, b_le_a)`` of
    rule-id tuples and bools, which no caller can write into.  A risk that
    is not finite raises while a profile is read, before the slot is
    written, so every read of that pair fails again.  Threads can at worst
    both compare a pair, and the two tuples are equal.
    """

    def __init__(self, instance: Instance) -> None:
        envs = instance.env_trajectories
        self.probs = [instance.space.probs[omega] for omega in instance.space.scenarios]
        self.positive = [k for k, p in enumerate(self.probs) if p > 0]
        self.ascending, self.ascending_probs = _ascending(self.probs)
        self.responses = instance._responses
        self.rows = instance._violation_rows
        self.groups = [self._group(responses, len(envs)) for responses in self.responses]
        self.read_scenarios = [_reader(responses) for responses in self.responses]
        self.read_groups = [_reader(group_envs) for group_envs, _, _ in self.groups]
        n = len(self.responses)
        self.risks: list[float | None] = [None] * (len(self.rows) * n)
        self.profiles: list[dict[str, float] | None] = [None] * n
        self.comparisons: list[tuple[tuple[str, ...], tuple[str, ...], bool, bool] | None] = [None] * (n * n)

    def _group(self, responses: tuple[int, ...], n_envs: int) -> tuple[list[int], list[list[int]], list[float]]:
        """One bucket pass over the ascending positions, so each group's
        positions stay ascending."""
        buckets: list[list[int]] = [[] for _ in range(n_envs)]
        for i, k in enumerate(self.ascending):
            buckets[responses[k]].append(i)
        envs = [e for e, bucket in enumerate(buckets) if bucket]
        positions = [buckets[e] for e in envs]
        probabilities = self.ascending_probs
        return envs, positions, [_total(probabilities, group) for group in positions]

    def atoms(self, r: int, t: int) -> tuple[Iterator[tuple[float, float]], int]:
        """The atoms of rule ``r``'s induced cost under ``t`` from the top down,
        those of :func:`~riskbook.probspace.distribution` in reverse, built as
        far as they are read from at most one group of scenarios per
        environment trajectory, and the number of groups."""
        _, positions, totals = self.groups[t]
        values = self.read_groups[t](self.rows[r][t])
        return _atoms(zip(values, positions, totals), self.ascending_probs), len(values)


class _Evaluation:
    """Every figure one call derives from an instance, each computed once.

    The instance's compiled tables (:class:`_Compiled`, built on its first
    evaluation and kept with it) give each trajectory's response-index
    vector and each rule's violation row, both the rows the instance was
    built with (for a parsed instance, the rows of its JSON tables), and
    each trajectory's scenarios grouped by response, and keep each risk,
    excess profile and comparison once derived.  The rest is derived here:
    the cost of rule ``r`` under trajectory ``t`` is the tuple ``row[e]``
    over the scenarios' responses ``e``, where ``row`` is ``r``'s violation
    row for ``t``.  Expected cost
    sums that list against the probabilities scenario by scenario, in
    declaration order, and a witness's probability sums its scenarios'
    probabilities in the same order, both left to right through
    :mod:`riskbook.probspace`'s helpers, so every interpreter gives the same
    bits.  Worst case, VaR and CVaR read atoms built from ``t``'s response
    groups, so at most one group per environment trajectory, from the top
    down: worst case reads one atom and CVaR stops once no lower atom can
    change it (:mod:`riskbook.risk`).  Custom measures receive a
    :class:`RandomCost`.
    A risk of any measure that is not finite, such as an expected cost that
    overflows, is a :class:`~riskbook.errors.ValidationError` naming the
    rule, the trajectory and the value, so no report prints ``Infinity``.
    Risks are therefore finite, and a trajectory compares as equal to
    itself.

    Safety under one rule is one test, :meth:`within_threshold`.  Every
    verdict, and every rationale a report gives for one, reads the one
    comparison of two trajectories' excess profiles, :meth:`comparison`.

    Figures are computed on first use and held in dense lists, ``None``
    until computed: ``costs`` over rules × trajectories, indexed ``r·T + t``
    for T trajectories like the kept risks, and ``compensations`` over
    ordered pairs, indexed ``a·T + b`` like the kept comparisons (a
    comparison is kept for ``a < b`` and read swapped for ``a > b``).  A
    question about two trajectories builds and assesses only their induced
    costs, and a matrix assesses every (rule, trajectory) pair once.
    Deciding whether one trajectory is optimal compares it with the others
    in declaration order and stops at the first that is strictly less
    risky, so it assesses other trajectories only until it is decided.
    That decision itself is not kept, since no report asks it twice about
    one trajectory, but the comparisons it reads are kept with the
    instance, so it calls :func:`~riskbook.rulebook.compare_profiles` only
    for a pair no earlier evaluation compared.  The instance's tables are
    read-only and validated at construction, so nothing here re-checks
    them.

    :meth:`risk` reads the compiled tables' ``risks`` and fills a miss with
    :meth:`_assess`, which computes a risk under any measure and raises if
    it is not finite, so each finite risk is assessed once per instance.
    :meth:`profile` and :meth:`comparison` read and fill the compiled
    tables' ``profiles`` and ``comparisons`` in the same way, so each
    trajectory's excess profile is built, and each pair of profiles
    compared, once per instance and kept there.  Costs and compensations
    serve one top-level call and are not kept on the instance, so their
    memory, up to T²·R·S scenario ids for a call's witness lists, is
    released with the call.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.compiled = instance._compiled
        self.rule_ids = instance.rulebook.rule_ids
        self.trajectories = instance.trajectories
        self.scenarios = instance.space.scenarios
        self.above = instance.rulebook.priority.strictly_above
        n = self.n = len(self.trajectories)
        self.costs: list[tuple[float, ...] | None] = [None] * (len(self.rule_ids) * n)
        self.comparisons = self.compiled.comparisons
        self.compensations: list[list[tuple[int, tuple[str, ...], float]] | None] = [None] * (n * n)

    def cost(self, r: int, t: int) -> tuple[float, ...]:
        """Induced cost of rule ``r`` under ``t``, in scenario order."""
        i = r * self.n + t
        cost = self.costs[i]
        if cost is None:
            cost = self.costs[i] = self._build_cost(r, t)
        return cost

    def _build_cost(self, r: int, t: int) -> tuple[float, ...]:
        return self.compiled.read_scenarios[t](self.compiled.rows[r][t])

    def random_cost(self, r: int, t: int) -> RandomCost:
        return RandomCost(dict(zip(self.scenarios, self.cost(r, t))))

    def risk(self, r: int, t: int) -> float:
        kept, i = self.compiled.risks, r * self.n + t
        risk = kept[i]
        if risk is None:
            risk = kept[i] = self._assess(r, t)
        return risk

    def _assess(self, r: int, t: int) -> float:
        measure = self.instance.risk_configs[self.rule_ids[r]].measure
        if measure.kind == CUSTOM:
            value = assess(measure, self.instance.space, self.random_cost(r, t))
        elif measure.kind == EXPECTED:
            value = _sum(map(mul, self.compiled.probs, self.cost(r, t)))
        else:
            value = assess_support(measure, *self.compiled.atoms(r, t))
        if not isfinite(value):
            raise ValidationError(
                f"risk of rule {self.rule_ids[r]!r} under trajectory {self.trajectories[t]!r} is "
                f"{value!r}; risks must be finite"
            )
        return value

    def excess(self, r: int, t: int) -> float:
        return max(self.risk(r, t) - self.instance.risk_configs[self.rule_ids[r]].threshold, 0.0)

    def profile(self, t: int) -> dict[str, float]:
        """``t``'s excess profile, the dict the compiled tables keep: read
        it here, and hand out a copy."""
        kept = self.compiled.profiles
        profile = kept[t]
        if profile is None:
            profile = kept[t] = self._build_profile(t)
        return profile

    def _build_profile(self, t: int) -> dict[str, float]:
        return {rule_id: self.excess(r, t) for r, rule_id in enumerate(self.rule_ids)}

    def within_threshold(self, r: int, t: int) -> bool:
        """Whether ``t``'s risk under rule ``r`` stays within the rule's threshold."""
        return le(self.excess(r, t), 0.0)

    def safe(self, t: int) -> bool:
        return all(self.within_threshold(r, t) for r in range(len(self.rule_ids)))

    def comparison(self, a: int, b: int) -> tuple[tuple[str, ...], tuple[str, ...], bool, bool]:
        """:func:`~riskbook.rulebook.compare_profiles` of ``a``'s and ``b``'s
        excess profiles in rule order, the tuple the compiled tables keep,
        computed once per unordered pair of different trajectories and
        instance.  A trajectory's profile equals itself, once it is read and
        so found finite."""
        if a == b:
            self.profile(a)
            return (), (), True, True
        if a > b:
            worse_b, worse_a, b_le_a, a_le_b = self.comparison(b, a)
            return worse_a, worse_b, a_le_b, b_le_a
        i = a * self.n + b
        found = self.comparisons[i]
        if found is None:
            found = self.comparisons[i] = compare_profiles(
                self.instance.rulebook.priority, self.rule_ids, self.profile(a), self.profile(b)
            )
        return found

    def verdict(self, a: int, b: int) -> Verdict:
        """``LOWER`` when ``a`` is strictly less risky than ``b``."""
        _, _, a_le_b, b_le_a = self.comparison(a, b)
        return Verdict.from_directions(forward=b_le_a, backward=a_le_b)

    def matrix(self) -> dict[tuple[str, str], Verdict]:
        n = range(len(self.trajectories))
        return {(self.trajectories[a], self.trajectories[b]): self.verdict(a, b) for a in n for b in n}

    def is_optimal(self, t: int) -> bool:
        """Whether no trajectory is strictly less risky than ``t``; the scan
        runs in declaration order and stops at the first one that is."""
        return not any(self.verdict(o, t) is Verdict.LOWER for o in range(len(self.trajectories)))

    def optimal(self) -> list[int]:
        return [t for t in range(len(self.trajectories)) if self.is_optimal(t)]

    def _compensating(self, w: int, c: int) -> list[tuple[int, tuple[str, ...], float]]:
        """Every rule that penalizes challenger ``c`` more than ``w`` on a
        positive-probability scenario set, with that set and its probability.
        One scan per pair serves every improving rule."""
        scenario = self.scenarios.__getitem__
        found = []
        for r in range(len(self.rule_ids)):
            worse = exceeding(self.cost(r, c), self.cost(r, w), self.compiled.positive)
            if worse:
                found.append((r, tuple(map(scenario, worse)), _total(self.compiled.probs, worse)))
        return found

    def witnesses(self, w: int, c: int, improving_rule: str) -> list[TradeoffWitness]:
        """The compensations of ``c``'s improvement on ``w`` under
        ``improving_rule`` by rules not strictly lower in priority, in declaration order."""
        i = w * self.n + c
        found = self.compensations[i]
        if found is None:
            found = self.compensations[i] = self._compensating(w, c)
        return [
            TradeoffWitness(improving_rule, self.rule_ids[r], scenarios, probability)
            for r, scenarios, probability in found
            if improving_rule not in self.above[self.rule_ids[r]]
        ]


def induced_random_cost(instance: Instance, rule_id: str, trajectory: str) -> RandomCost:
    """Scenario-indexed violation of ``rule_id`` when ``trajectory`` is driven."""
    r, t = instance.require_rule(rule_id), instance.require_trajectory(trajectory)
    return _Evaluation(instance).random_cost(r, t)


def risk_of(instance: Instance, rule_id: str, trajectory: str) -> float:
    """Assessed risk of the induced cost under the rule's configured measure."""
    r, t = instance.require_rule(rule_id), instance.require_trajectory(trajectory)
    return _Evaluation(instance).risk(r, t)


def risk_aware_violation(instance: Instance, rule_id: str, trajectory: str) -> float:
    """Excess of the rule's risk over its threshold, floored at zero."""
    r, t = instance.require_rule(rule_id), instance.require_trajectory(trajectory)
    return _Evaluation(instance).excess(r, t)


def is_safe_wrt_rule(instance: Instance, rule_id: str, trajectory: str) -> bool:
    """Whether the trajectory's risk stays within the rule's threshold."""
    r, t = instance.require_rule(rule_id), instance.require_trajectory(trajectory)
    return _Evaluation(instance).within_threshold(r, t)


def is_safe(instance: Instance, trajectory: str) -> bool:
    """Whether the trajectory is within threshold for every rule."""
    return _Evaluation(instance).safe(instance.require_trajectory(trajectory))


def safe_set(instance: Instance) -> list[str]:
    """All safe trajectories, in declaration order."""
    ev = _Evaluation(instance)
    return [t for i, t in enumerate(ev.trajectories) if ev.safe(i)]


def risk_aware_profile(instance: Instance, trajectory: str) -> dict[str, float]:
    """Excess-risk value for every rule, keyed by rule id, in a new dict."""
    return dict(_Evaluation(instance).profile(instance.require_trajectory(trajectory)))


def no_riskier_than(instance: Instance, trajectory: str, other: str) -> bool:
    """One direction of the trajectory preorder: ``trajectory`` is at most as
    risky as ``other``."""
    a, b = instance.require_trajectory(trajectory), instance.require_trajectory(other)
    return _Evaluation(instance).comparison(a, b)[2]


def compare_trajectories(instance: Instance, trajectory: str, other: str) -> Verdict:
    """Four-way comparison of two trajectories by their excess-risk profiles.

    ``LOWER`` means the first trajectory is strictly less risky.
    """
    a, b = instance.require_trajectory(trajectory), instance.require_trajectory(other)
    return _Evaluation(instance).verdict(a, b)


def compare_given_scenario(instance: Instance, trajectory: str, other: str, scenario: str) -> Verdict:
    """Comparison of two trajectories when the scenario is already known.

    Delegates to the realization-level comparison on the environment
    responses the scenario induces.
    """
    instance.require_trajectory(trajectory)
    instance.require_trajectory(other)
    instance.require_scenario(scenario)
    x = Realization(trajectory, instance.interaction.response(trajectory, scenario))
    y = Realization(other, instance.interaction.response(other, scenario))
    return compare_realizations(instance.rulebook, x, y)


def comparison_matrix(instance: Instance) -> dict[tuple[str, str], Verdict]:
    """Verdict of every ordered pair of trajectories, as :func:`compare_trajectories`
    gives it, with every (rule, trajectory) pair assessed once."""
    return _Evaluation(instance).matrix()


def optimal_set(instance: Instance) -> list[str]:
    """Trajectories with no strictly less risky competitor, in declaration order."""
    ev = _Evaluation(instance)
    return [ev.trajectories[t] for t in ev.optimal()]


@dataclass(frozen=True)
class TradeoffWitness:
    """Evidence that an apparent improvement is compensated elsewhere.

    ``compensating_rule`` is not strictly lower in priority than
    ``improving_rule``, and on ``witness_scenarios`` (total probability
    ``witness_probability`` > 0) the challenger's induced cost under the
    compensating rule strictly exceeds the optimal trajectory's.
    """

    improving_rule: str
    compensating_rule: str
    witness_scenarios: tuple[str, ...]
    witness_probability: float


def tradeoff_witness(
    instance: Instance,
    optimal_trajectory: str,
    challenger: str,
    improving_rule: str,
) -> TradeoffWitness:
    """First compensating rule, in declaration order, for a strict improvement.

    Requires the challenger's excess risk under ``improving_rule`` to be
    strictly below the optimal trajectory's.  When ``optimal_trajectory``
    really is optimal and every configured measure is monotone, a witness
    always exists; :class:`NoWitness` therefore signals that one of those
    hypotheses fails.
    """
    found = tradeoff_witnesses(instance, optimal_trajectory, challenger, improving_rule)
    if not found:
        raise NoWitness(
            f"no compensating rule found for {challenger!r} improving on {optimal_trajectory!r} "
            f"under {improving_rule!r}; the trajectory is not optimal or a configured measure "
            f"is not monotone"
        )
    return found[0]


def tradeoff_witnesses(
    instance: Instance,
    optimal_trajectory: str,
    challenger: str,
    improving_rule: str,
) -> list[TradeoffWitness]:
    """Every compensating rule with its scenario set, in declaration order."""
    r = instance.require_rule(improving_rule)
    w = instance.require_trajectory(optimal_trajectory)
    c = instance.require_trajectory(challenger)
    ev = _Evaluation(instance)
    v_challenger = ev.excess(r, c)
    v_optimal = ev.excess(r, w)
    if not lt(v_challenger, v_optimal):
        raise PreconditionViolated(
            f"trajectory {challenger!r} does not strictly improve on {optimal_trajectory!r} "
            f"under rule {improving_rule!r} ({v_challenger!r} vs {v_optimal!r})"
        )
    return ev.witnesses(w, c, improving_rule)


class PointwiseCase(Enum):
    """Why a single-scenario advantage over an optimal trajectory is not a win."""

    NULL_ADVANTAGE = "null_advantage"
    SAFE_AT_OPTIMUM = "safe_at_optimum"
    COMPENSATED_ELSEWHERE = "compensated_elsewhere"


@dataclass(frozen=True)
class PointwiseAnalysis:
    """Classification of a pointwise advantage, with its supporting data.

    ``advantage_probability`` is the probability of the scenario set where
    the challenger's cost under the rule is strictly smaller.  For
    ``SAFE_AT_OPTIMUM`` the risk/threshold pair is filled in; for
    ``COMPENSATED_ELSEWHERE`` the witness is.
    """

    case: PointwiseCase
    improving_rule: str
    advantage_probability: float
    risk_at_optimum: float | None = None
    threshold: float | None = None
    witness: TradeoffWitness | None = None


def pointwise_case(
    instance: Instance,
    optimal_trajectory: str,
    challenger: str,
    rule_id: str,
    scenario: str,
) -> PointwiseAnalysis:
    """Explain a challenger's single-scenario advantage over an optimal trajectory.

    Requires every configured measure to be in the strictly monotone class
    (:class:`AssumptionUnmet` otherwise), the challenger's induced cost under
    ``rule_id`` to be strictly smaller at ``scenario``, and
    ``optimal_trajectory`` to be optimal.  Returns the first applicable case:
    the advantage set has probability zero; the optimal trajectory is already
    within the rule's threshold; or a not-lower-priority rule penalizes the
    challenger more with positive probability.
    """
    r = instance.require_rule(rule_id)
    w = instance.require_trajectory(optimal_trajectory)
    c = instance.require_trajectory(challenger)
    k = instance.require_scenario(scenario)
    ev = _Evaluation(instance)

    for other_rule in instance.rulebook.rule_ids:
        measure = instance.risk_configs[other_rule].measure
        if not is_strictly_monotone_class(measure):
            raise AssumptionUnmet(
                f"rule {other_rule!r} uses measure {measure.describe()!r}, which is not in the "
                f"strictly monotone class; the pointwise analysis is unsound without it"
            )

    if not lt(ev.cost(r, c)[k], ev.cost(r, w)[k]):
        raise PreconditionViolated(
            f"trajectory {challenger!r} is not strictly better than {optimal_trajectory!r} "
            f"under rule {rule_id!r} at scenario {scenario!r}"
        )
    if not ev.is_optimal(w):
        raise PreconditionViolated(f"trajectory {optimal_trajectory!r} is not optimal")

    advantage = exceeding(ev.cost(r, w), ev.cost(r, c), ev.compiled.positive)
    advantage_probability = _total(ev.compiled.probs, advantage)
    if advantage_probability == 0.0:
        return PointwiseAnalysis(PointwiseCase.NULL_ADVANTAGE, rule_id, advantage_probability)

    if ev.within_threshold(r, w):
        return PointwiseAnalysis(
            PointwiseCase.SAFE_AT_OPTIMUM,
            rule_id,
            advantage_probability,
            risk_at_optimum=ev.risk(r, w),
            threshold=instance.risk_configs[rule_id].threshold,
        )

    found = ev.witnesses(w, c, rule_id)
    if not found:
        raise NoWitness(
            f"no compensating rule found for the advantage of {challenger!r} over "
            f"{optimal_trajectory!r} under {rule_id!r}"
        )
    return PointwiseAnalysis(
        PointwiseCase.COMPENSATED_ELSEWHERE,
        rule_id,
        advantage_probability,
        witness=found[0],
    )
