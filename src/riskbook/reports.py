"""Deterministic ranking, risk-table, explanation, and self-check reports.

Every report is a frozen dataclass plus a pair of renderers: a fixed-width
human table and a JSON form.  Rows follow declaration order and numbers use
shortest round-trip decimal formatting, so two runs over the same instance
produce byte-identical output.  The JSON form is written by
:func:`riskbook.jsonwriter.dumps`, which returns exactly
``json.dumps(tree, indent=2)`` for the trees of dicts with ``str`` keys,
lists, tuples, strings, numbers, booleans and ``None`` built here, and
raises ``TypeError`` on anything else rather than writing other bytes.
The one exception is a list of tradeoff explanations (rank's
``explanations``, explain's ``tradeoffs``): its records are written
straight to text through the writer's :class:`~riskbook.jsonwriter.Written`
hook, with no dict per witness, and each distinct scenario list is written
once per report however many witnesses it backs.

Reports compare nothing: they assemble what one evaluation decided, so the
rationale they print is the comparison each verdict was read from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolated
from .jsonwriter import Written, array, dumps, fields, indent, number, string
from .preorder import Verdict, first_intransitive
from .risk import CUSTOM, spot_check_monotonicity
from .riskaware import Instance, TradeoffWitness, _Evaluation

_CHECK_OK = "ok"
_CHECK_FAIL = "fail"
_CHECK_UNVERIFIED = "unverified"


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class TrajectoryAssessment:
    """Per-trajectory risk figures: assessed risk and excess for every rule."""

    trajectory: str
    risks: dict[str, float]
    excesses: dict[str, float]
    safe: bool


@dataclass(frozen=True)
class TradeoffExplanation:
    """Witnesses backing one optimal trajectory against one challenger's improvement."""

    optimal_trajectory: str
    challenger: str
    improving_rule: str
    witnesses: tuple[TradeoffWitness, ...]


@dataclass(frozen=True)
class RankingReport:
    rule_ids: tuple[str, ...]
    assessments: tuple[TrajectoryAssessment, ...]
    matrix: dict[tuple[str, str], Verdict]
    safe: tuple[str, ...]
    optimal: tuple[str, ...]
    explanations: tuple[TradeoffExplanation, ...]


def _tradeoffs(ev: _Evaluation, winner: int, challenger: int) -> list[TradeoffExplanation]:
    """Witnessed improvements of ``challenger`` over the optimal ``winner``, on
    the rules ``winner`` is worse on, in rule order."""
    names = ev.trajectories[winner], ev.trajectories[challenger]
    return [
        TradeoffExplanation(*names, rule_id, witnesses)
        for rule_id in ev.comparison(winner, challenger)[0]
        if (witnesses := tuple(ev.witnesses(winner, challenger, rule_id)))
    ]


def run_rank(instance: Instance) -> RankingReport:
    """Full evaluation: per-rule risks, pairwise verdicts, safety, optimality,
    and a tradeoff justification for every optimal trajectory.

    Every figure comes from one evaluation of the instance: each
    (rule, trajectory) induced cost is built and assessed once, and each
    (optimal, challenger) pair is scanned for witnesses once, whatever the
    number of rules it improves on.
    """
    ev = _Evaluation(instance)
    trajectories = range(len(ev.trajectories))
    optimal = ev.optimal()
    return RankingReport(
        rule_ids=ev.rule_ids,
        assessments=tuple(
            TrajectoryAssessment(
                ev.trajectories[t],
                {rule_id: ev.risk(r, t) for r, rule_id in enumerate(ev.rule_ids)},
                dict(ev.profile(t)),
                ev.safe(t),
            )
            for t in trajectories
        ),
        matrix=ev.matrix(),
        safe=tuple(ev.trajectories[t] for t in trajectories if ev.safe(t)),
        optimal=tuple(ev.trajectories[t] for t in optimal),
        explanations=tuple(
            e for w in optimal for c in trajectories if c != w for e in _tradeoffs(ev, w, c)
        ),
    )


@dataclass(frozen=True)
class RiskTableRow:
    trajectory: str
    risk: float
    excess: float
    safe: bool


@dataclass(frozen=True)
class RiskTable:
    rule_id: str
    measure: str
    threshold: float
    rows: tuple[RiskTableRow, ...]


def run_risk_table(instance: Instance, rule_id: str) -> RiskTable:
    """Risk of every trajectory with respect to one rule."""
    r = instance.require_rule(rule_id)
    config = instance.risk_configs[rule_id]
    ev = _Evaluation(instance)
    rows = tuple(
        RiskTableRow(trajectory, ev.risk(r, t), ev.excess(r, t), ev.within_threshold(r, t))
        for t, trajectory in enumerate(ev.trajectories)
    )
    return RiskTable(rule_id, config.measure.describe(), config.threshold, rows)


@dataclass(frozen=True)
class RuleDisadvantage:
    """One rule on which a side loses, with the rules that outweigh the loss."""

    rule_id: str
    value: float
    other_value: float
    compensators: tuple[str, ...]


@dataclass(frozen=True)
class Explanation:
    first: str
    second: str
    verdict: Verdict
    excesses: dict[str, dict[str, float]]
    first_worse: tuple[RuleDisadvantage, ...]
    second_worse: tuple[RuleDisadvantage, ...]
    tradeoffs: tuple[TradeoffExplanation, ...]


def _disadvantages(ev: _Evaluation, mine: int, theirs: int) -> tuple[RuleDisadvantage, ...]:
    """The rules ``mine`` is worse on, each compensated by the rules strictly
    above it that ``theirs`` is worse on, in rule order."""
    worse, better, _, _ = ev.comparison(mine, theirs)
    above, excess, other = ev.above, ev.profile(mine), ev.profile(theirs)
    return tuple(
        RuleDisadvantage(r, excess[r], other[r], tuple(c for c in better if c in above[r])) for r in worse
    )


def run_explain(instance: Instance, first: str, second: str) -> Explanation:
    """Head-to-head comparison of two trajectories.

    Lists every rule on which each side is worse together with the
    higher-priority rules compensating it, and, when either side is optimal,
    the positive-probability witnesses behind each improvement the other
    side shows against it.

    Only the two sides' optimality is decided, each by comparing it with
    the other trajectories until one is strictly less risky.  The two scans
    of T - 1 trajectories share the sides' own pair, so an explain makes at
    most 2T - 3 profile comparisons for T trajectories, and builds and
    assesses only the induced costs those comparisons read.  A pair that
    any earlier report on the same instance compared is not compared
    again.  The two sides must be different trajectories.
    """
    a, b = instance.require_trajectory(first), instance.require_trajectory(second)
    if a == b:
        raise PreconditionViolated(f"explain compares two different trajectories, got {first!r} on both sides")
    ev = _Evaluation(instance)
    return Explanation(
        first=first,
        second=second,
        verdict=ev.verdict(a, b),
        excesses={first: dict(ev.profile(a)), second: dict(ev.profile(b))},
        first_worse=_disadvantages(ev, a, b),
        second_worse=_disadvantages(ev, b, a),
        tradeoffs=tuple(
            e for w, c in ((a, b), (b, a)) if ev.is_optimal(w) for e in _tradeoffs(ev, w, c)
        ),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != _CHECK_FAIL for r in self.results)


def run_check(instance: Instance) -> CheckReport:
    """Verify what construction cannot: the preorder laws of the computed
    trajectory order, naming a counterexample when one fails, and spot checks
    of custom measures.  Structural invariants are settled when the instance
    is built, and its tables cannot change afterwards.  Only transitivity is
    scanned: risks are finite, so each trajectory is equal to itself and the
    order is reflexive by construction, and a risk that is not finite fails
    the check as it fails every report that reads it."""
    ev = _Evaluation(instance)
    names = instance.trajectories
    n = range(len(names))
    broken = first_intransitive([{b for b in n if ev.comparison(a, b)[2]} for a in n])
    detail = "reflexive and transitive over all candidate pairs"
    if broken:
        a, b, c = (names[i] for i in broken)
        detail = (
            f"not transitive at ({a}, {b}, {c}): {a} is at most as risky as {b} and {b} as {c}, "
            f"but {a} is not at most as risky as {c}"
        )
    results = [CheckResult("trajectory-preorder", _CHECK_FAIL if broken else _CHECK_OK, detail)]

    for rule_id in instance.rulebook.rule_ids:
        measure = instance.risk_configs[rule_id].measure
        if measure.kind != CUSTOM:
            continue
        passed = spot_check_monotonicity(measure, instance.space)
        results.append(
            CheckResult(
                f"measure-monotonicity[{rule_id}]",
                _CHECK_UNVERIFIED if passed else _CHECK_FAIL,
                "spot checks passed; custom measures cannot be proven monotone"
                if passed
                else "spot check found a monotonicity violation",
            )
        )

    return CheckReport(tuple(results))


# ---------------------------------------------------------------------------
# rendering


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _witness_phrase(w: TradeoffWitness) -> str:
    return (
        f"rule {w.compensating_rule} penalizes the challenger more on "
        f"{{{', '.join(w.witness_scenarios)}}} (probability {_fmt(w.witness_probability)})"
    )


_EXPLANATION_KEYS = ("optimal_trajectory", "challenger", "improving_rule", "witnesses")
_WITNESS_KEYS = ("improving_rule", "compensating_rule", "witness_scenarios", "witness_probability")


def _explanation_records(explanations: tuple[TradeoffExplanation, ...]) -> Written:
    """The JSON list of ``explanations``, rank's ``explanations`` and
    explain's ``tradeoffs``, written straight to text where :func:`dumps`
    places it.  Each distinct scenario tuple is written once per call: one
    compensating rule's list backs the witnesses of every improving rule it
    outweighs."""

    def write(pad: str) -> str:
        if not explanations:
            return "[]"
        explanation = indent(pad)
        witness_list = indent(explanation)
        witness = indent(witness_list)
        scenario_list = indent(witness)
        explanation_format = fields(_EXPLANATION_KEYS, explanation)
        witness_format = fields(_WITNESS_KEYS, witness)
        written: dict[tuple[str, ...], str] = {}

        def scenarios(ids: tuple[str, ...]) -> str:
            text = written.get(ids)
            if text is None:
                text = written[ids] = array(list(map(string, ids)), scenario_list)
            return text

        def witnesses(e: TradeoffExplanation) -> str:
            return array(
                [
                    witness_format
                    % (
                        string(w.improving_rule),
                        string(w.compensating_rule),
                        scenarios(w.witness_scenarios),
                        number(w.witness_probability),
                    )
                    for w in e.witnesses
                ],
                witness_list,
            )

        return array(
            [
                explanation_format
                % (string(e.optimal_trajectory), string(e.challenger), string(e.improving_rule), witnesses(e))
                for e in explanations
            ],
            pad,
        )

    return Written(write)


def render_rank(report: RankingReport, as_json: bool = False) -> str:
    trajectories = [a.trajectory for a in report.assessments]
    if as_json:
        return dumps(
            {
                "rules": list(report.rule_ids),
                "trajectories": [
                    {
                        "id": a.trajectory,
                        "risks": {r: a.risks[r] for r in report.rule_ids},
                        "excesses": {r: a.excesses[r] for r in report.rule_ids},
                        "safe": a.safe,
                    }
                    for a in report.assessments
                ],
                "matrix": {a: {b: report.matrix[(a, b)].value for b in trajectories} for a in trajectories},
                "safe": list(report.safe),
                "optimal": list(report.optimal),
                "explanations": _explanation_records(report.explanations),
            }
        )
    rows = []
    for a in report.assessments:
        rows.append(
            [a.trajectory]
            + [f"{_fmt(a.risks[r])}/{_fmt(a.excesses[r])}" for r in report.rule_ids]
            + ["yes" if a.safe else "no", "yes" if a.trajectory in report.optimal else "no"]
        )
    lines = [
        _table(
            ["trajectory"] + [f"{r} risk/excess" for r in report.rule_ids] + ["safe", "optimal"],
            rows,
        )
    ]
    matrix_rows = [
        [a] + [report.matrix[(a, b)].value for b in trajectories] for a in trajectories
    ]
    lines.append("")
    lines.append("pairwise verdicts (row compared to column):")
    lines.append(_table(["vs"] + trajectories, matrix_rows))
    lines.append("")
    lines.append(f"safe: {', '.join(report.safe) if report.safe else '(none)'}")
    lines.append(f"optimal: {', '.join(report.optimal) if report.optimal else '(none)'}")
    if report.explanations:
        lines.append("")
        lines.append("tradeoffs behind each optimal trajectory:")
        for e in report.explanations:
            lines.append(
                f"  {e.challenger} improves on {e.optimal_trajectory} under {e.improving_rule}, but "
                + "; ".join(map(_witness_phrase, e.witnesses))
            )
    return "\n".join(lines) + "\n"


def render_risk_table(table: RiskTable, as_json: bool = False) -> str:
    if as_json:
        return dumps(
            {
                "rule": table.rule_id,
                "measure": table.measure,
                "threshold": table.threshold,
                "rows": [
                    {
                        "trajectory": r.trajectory,
                        "risk": r.risk,
                        "excess": r.excess,
                        "safe": r.safe,
                    }
                    for r in table.rows
                ],
            }
        )
    head = f"rule {table.rule_id}, measure {table.measure}, threshold {_fmt(table.threshold)}"
    body = _table(
        ["trajectory", "risk", "excess", "safe"],
        [[r.trajectory, _fmt(r.risk), _fmt(r.excess), "yes" if r.safe else "no"] for r in table.rows],
    )
    return head + "\n" + body + "\n"


def _disadvantage_to_json(d: RuleDisadvantage) -> dict:
    return {
        "rule": d.rule_id,
        "excess": d.value,
        "other_excess": d.other_value,
        "compensated_by": list(d.compensators),
    }


def render_explanation(explanation: Explanation, as_json: bool = False) -> str:
    first, second = explanation.first, explanation.second
    if as_json:
        return dumps(
            {
                "first": first,
                "second": second,
                "verdict": explanation.verdict.value,
                "excesses": explanation.excesses,
                "first_worse": [_disadvantage_to_json(d) for d in explanation.first_worse],
                "second_worse": [_disadvantage_to_json(d) for d in explanation.second_worse],
                "tradeoffs": _explanation_records(explanation.tradeoffs),
            }
        )

    verdict_phrases = {
        Verdict.LOWER: f"{first} is strictly less risky than {second}",
        Verdict.HIGHER: f"{first} is strictly riskier than {second}",
        Verdict.EQUAL: f"{first} and {second} are equally risky",
        Verdict.INCOMPARABLE: f"{first} and {second} are incomparable",
    }
    lines = [f"verdict: {verdict_phrases[explanation.verdict]}"]
    for side, disadvantages in ((first, explanation.first_worse), (second, explanation.second_worse)):
        if not disadvantages:
            lines.append(f"{side} is worse on: (no rule)")
            continue
        lines.append(f"{side} is worse on:")
        for d in disadvantages:
            comp = (
                f"compensated by higher-priority {', '.join(d.compensators)}"
                if d.compensators
                else "uncompensated"
            )
            lines.append(f"  {d.rule_id} (excess {_fmt(d.value)} vs {_fmt(d.other_value)}): {comp}")
    if explanation.tradeoffs:
        lines.append("witnessed tradeoffs:")
        for e in explanation.tradeoffs:
            lines.append(
                f"  {e.challenger} improves on optimal {e.optimal_trajectory} under {e.improving_rule}: "
                + "; ".join(map(_witness_phrase, e.witnesses))
            )
    return "\n".join(lines) + "\n"


def render_check(report: CheckReport, as_json: bool = False) -> str:
    if as_json:
        return dumps(
            {
                "ok": report.ok,
                "results": [
                    {"name": r.name, "status": r.status, "detail": r.detail} for r in report.results
                ],
            }
        )
    lines = [f"{r.status:>10}  {r.name}: {r.detail}" for r in report.results]
    lines.append("check " + ("passed" if report.ok else "FAILED"))
    return "\n".join(lines) + "\n"
