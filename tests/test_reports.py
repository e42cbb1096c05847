import dataclasses
import itertools
import json
import math
import random

import pytest

import riskbook as rb
from riskbook import run_check, run_explain, run_rank, run_risk_table
from riskbook import reports
from riskbook.reports import (
    TradeoffExplanation,
    render_check,
    render_explanation,
    render_rank,
    render_risk_table,
)

from instgen import random_instance


class TestRiskTable:
    def test_expected_column(self, av_all_expected):
        table = run_risk_table(av_all_expected, "r1")
        risks = {row.trajectory: row.risk for row in table.rows}
        assert risks["tau1"] == pytest.approx(0.225, abs=1e-9)
        assert risks["tau2"] == pytest.approx(1.75, abs=1e-9)
        assert risks["tau3"] == 0.0
        assert risks["tau4"] == 0.0

    def test_rows_follow_declaration_order(self, av):
        table = run_risk_table(av, "r1")
        assert [row.trajectory for row in table.rows] == list(av.trajectories)

    def test_render_mentions_measure_and_threshold(self, av_worst_case):
        text = render_risk_table(run_risk_table(av_worst_case, "r1"))
        assert "worst_case" in text
        assert "175.0" in text

    def test_json_rendering_is_valid_json(self, av):
        payload = json.loads(render_risk_table(run_risk_table(av, "r1"), as_json=True))
        assert payload["rule"] == "r1"
        assert len(payload["rows"]) == 4


class TestRank:
    def test_loose_quantile_regime(self, av):
        report = run_rank(av)
        assert report.optimal == ("tau1",)
        assert report.safe == ("tau1",)
        assert report.matrix[("tau1", "tau1")] is rb.Verdict.EQUAL

    def test_matrix_diagonal_and_optimal_consistency(self, av_worst_case):
        report = run_rank(av_worst_case)
        for t in av_worst_case.trajectories:
            assert report.matrix[(t, t)] is rb.Verdict.EQUAL
        for t in report.optimal:
            assert not any(
                report.matrix[(o, t)] is rb.Verdict.LOWER for o in av_worst_case.trajectories
            )

    def test_worst_case_regime_explains_the_tradeoff(self, av_worst_case):
        report = run_rank(av_worst_case)
        assert report.optimal == ("tau2",)
        flows = [
            e
            for e in report.explanations
            if e.optimal_trajectory == "tau2" and e.challenger == "tau1" and e.improving_rule == "r3"
        ]
        assert len(flows) == 1
        assert flows[0].witnesses[0].compensating_rule == "r1"
        assert flows[0].witnesses[0].witness_scenarios == ("w2",)

    def test_render_is_byte_deterministic(self, av_worst_case):
        report_a = run_rank(av_worst_case)
        reparsed = rb.parse_instance(rb.serialize_instance(av_worst_case))
        report_b = run_rank(reparsed)
        assert render_rank(report_a) == render_rank(report_b)
        assert render_rank(report_a, as_json=True) == render_rank(report_b, as_json=True)

    def test_json_rendering_round_trips(self, av):
        payload = json.loads(render_rank(run_rank(av), as_json=True))
        assert payload["optimal"] == ["tau1"]
        assert payload["matrix"]["tau2"]["tau1"] == "higher"

    def test_text_names_an_empty_optimal_set(self):
        doc = json.loads(rb.bundled_instance_text())
        doc["system_trajectories"], doc["interaction"] = [], {}
        for rule in doc["rules"]:
            rule["violations"] = {}
        report = run_rank(rb.parse_instance(json.dumps(doc)))
        assert report.optimal == () and report.safe == ()
        assert render_rank(report).endswith("\nsafe: (none)\noptimal: (none)\n")
        assert json.loads(render_rank(report, as_json=True))["optimal"] == []


class TestExplain:
    def test_worst_case_narrative(self, av_worst_case):
        text = render_explanation(run_explain(av_worst_case, "tau2", "tau1"))
        assert "tau2 is strictly less risky than tau1" in text
        assert "r1" in text
        assert "w2" in text
        assert "0.001" in text

    def test_structured_fields(self, av_worst_case):
        explanation = run_explain(av_worst_case, "tau2", "tau1")
        assert explanation.verdict is rb.Verdict.LOWER
        assert [d.rule_id for d in explanation.first_worse] == ["r3"]
        assert explanation.first_worse[0].compensators == ("r1",)
        assert [d.rule_id for d in explanation.second_worse] == ["r1"]
        assert explanation.second_worse[0].compensators == ()
        assert explanation.tradeoffs[0].witnesses[0].witness_probability == pytest.approx(
            0.001, abs=1e-9
        )

    def test_incomparable_pair(self, av):
        inst = rb.with_risk_config(av, "r1", measure="var", alpha=0.9995)
        explanation = run_explain(inst, "tau3", "tau4")
        assert explanation.verdict is rb.Verdict.LOWER

    def test_json_rendering(self, av_worst_case):
        payload = json.loads(render_explanation(run_explain(av_worst_case, "tau2", "tau1"), as_json=True))
        assert payload["verdict"] == "lower"
        assert payload["tradeoffs"][0]["witnesses"][0]["witness_scenarios"] == ["w2"]

    def test_unknown_trajectory(self, av):
        with pytest.raises(rb.UnknownTrajectory):
            run_explain(av, "tau1", "tau9")


def oracle_disadvantages(instance, mine, theirs, profiles):
    """``(rule, excess, other excess, compensators)`` for each rule on which
    ``mine``'s excess exceeds ``theirs``'s beyond the tolerance, in rule order;
    the compensators are the rules strictly above it in the closed priority
    relation on which ``theirs``'s excess exceeds ``mine``'s."""
    relation = instance.rulebook.priority.relation
    rule_ids = instance.rulebook.rule_ids
    a, b = profiles[mine], profiles[theirs]
    return [
        (
            rule,
            a[rule],
            b[rule],
            tuple(
                other
                for other in rule_ids
                if (other, rule) in relation and (rule, other) not in relation and b[other] - a[other] > rb.TOL
            ),
        )
        for rule in rule_ids
        if a[rule] - b[rule] > rb.TOL
    ]


def as_tuples(disadvantages):
    return [(d.rule_id, d.value, d.other_value, d.compensators) for d in disadvantages]


class TestExplainRationale:
    """``explain``'s worse-on and compensated-by lists are the rationale of its
    verdict: they match an oracle on the profiles and the priority relation,
    and the verdict is the one they imply."""

    def test_lists_match_the_oracle_and_imply_the_verdict(self):
        rng = random.Random(31)
        compensated = 0
        for _ in range(150):
            instance = random_instance(rng)
            profiles = {t: rb.risk_aware_profile(instance, t) for t in instance.trajectories}
            for first, second in itertools.product(instance.trajectories, repeat=2):
                if first == second:
                    assert rb.compare_trajectories(instance, first, second) is rb.Verdict.EQUAL
                    with pytest.raises(rb.PreconditionViolated, match=repr(first)):
                        run_explain(instance, first, second)
                    continue
                explanation = run_explain(instance, first, second)
                first_worse = oracle_disadvantages(instance, first, second, profiles)
                second_worse = oracle_disadvantages(instance, second, first, profiles)
                assert as_tuples(explanation.first_worse) == first_worse
                assert as_tuples(explanation.second_worse) == second_worse
                first_at_most = all(compensators for *_, compensators in first_worse)
                second_at_most = all(compensators for *_, compensators in second_worse)
                implied = {
                    (True, True): rb.Verdict.EQUAL,
                    (True, False): rb.Verdict.LOWER,
                    (False, True): rb.Verdict.HIGHER,
                    (False, False): rb.Verdict.INCOMPARABLE,
                }[(first_at_most, second_at_most)]
                assert explanation.verdict is implied
                assert rb.compare_trajectories(instance, first, second) is implied
                compensated += sum(1 for *_, compensators in first_worse if compensators)
        assert compensated > 100

    def test_lists_follow_rule_order_whatever_order_the_preorder_declares(self):
        rng = random.Random(32)
        several = 0
        for _ in range(60):
            instance = random_instance(rng)
            rulebook = instance.rulebook
            priority = rb.Preorder(tuple(reversed(rulebook.priority.elements)), rulebook.priority.relation)
            reordered = dataclasses.replace(instance, rulebook=rb.Rulebook(rulebook.rules, priority))
            position = {rule: i for i, rule in enumerate(rulebook.rule_ids)}
            for first, second in itertools.permutations(instance.trajectories, 2):
                explanation = run_explain(reordered, first, second)
                assert explanation == run_explain(instance, first, second)
                for disadvantages in (explanation.first_worse, explanation.second_worse):
                    rules = [d.rule_id for d in disadvantages]
                    assert rules == sorted(rules, key=position.get)
                    for d in disadvantages:
                        assert list(d.compensators) == sorted(d.compensators, key=position.get)
                        several += len(d.compensators) > 1
        assert several > 10


def reference_tradeoffs(explanations):
    """The JSON tree of an explanation list, built as dicts for ``json.dumps``."""
    return [
        {
            "optimal_trajectory": e.optimal_trajectory,
            "challenger": e.challenger,
            "improving_rule": e.improving_rule,
            "witnesses": [
                {
                    "improving_rule": w.improving_rule,
                    "compensating_rule": w.compensating_rule,
                    "witness_scenarios": w.witness_scenarios,
                    "witness_probability": w.witness_probability,
                }
                for w in e.witnesses
            ],
        }
        for e in explanations
    ]


def reference_rank(report):
    """The JSON tree of a ranking report, built as dicts for ``json.dumps``."""
    trajectories = [a.trajectory for a in report.assessments]
    return {
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
        "explanations": reference_tradeoffs(report.explanations),
    }


def reference_explanation(explanation):
    """The JSON tree of an explanation, built as dicts for ``json.dumps``."""

    def disadvantages(side):
        return [
            {
                "rule": d.rule_id,
                "excess": d.value,
                "other_excess": d.other_value,
                "compensated_by": list(d.compensators),
            }
            for d in side
        ]

    return {
        "first": explanation.first,
        "second": explanation.second,
        "verdict": explanation.verdict.value,
        "excesses": explanation.excesses,
        "first_worse": disadvantages(explanation.first_worse),
        "second_worse": disadvantages(explanation.second_worse),
        "tradeoffs": reference_tradeoffs(explanation.tradeoffs),
    }


def assert_json_matches_reference(report=None, explanation=None):
    if report is not None:
        assert render_rank(report, as_json=True) == json.dumps(reference_rank(report), indent=2)
    if explanation is not None:
        expected = json.dumps(reference_explanation(explanation), indent=2)
        assert render_explanation(explanation, as_json=True) == expected


def witness(improving, compensating, scenarios, probability):
    return rb.TradeoffWitness(improving, compensating, scenarios, probability)


# Ids the string escaper writes differently, and probabilities at the ends of
# the float range, together with the non-finite ones ``json.dumps`` names.
ODD_IDS = ('"q"', "b\\s", "s/l", "\x00\x1f", "\u00e9", "\U0001f600", "\ud800")
ODD_PROBABILITIES = (5e-324, 1e-7, 0.1 + 0.2, 1.0, 1e16, 1e308, math.inf, math.nan, -0.0)


class TestReportJson:
    """``--json`` reports equal ``json.dumps(tree, indent=2)`` of the tree a
    test-side builder makes from the same report, and each distinct scenario
    tuple is written once per report."""

    def test_random_instances_match_the_reference(self):
        rng = random.Random(41)
        witnesses = shared = tradeoffs = 0
        for _ in range(80):
            instance = random_instance(rng)
            report = run_rank(instance)
            assert_json_matches_reference(report=report)
            listed = [w.witness_scenarios for e in report.explanations for w in e.witnesses]
            witnesses += len(listed)
            shared += len(listed) - len(set(listed))
            for first, second in itertools.permutations(instance.trajectories, 2):
                explanation = run_explain(instance, first, second)
                assert_json_matches_reference(explanation=explanation)
                tradeoffs += len(explanation.tradeoffs)
        assert witnesses > 300 and shared > 250 and tradeoffs > 250

    def test_edge_cases_match_the_reference(self, av_worst_case):
        report = run_rank(av_worst_case)
        explanation = run_explain(av_worst_case, "tau2", "tau1")
        assert report.explanations and explanation.tradeoffs
        shared = ("w1", "w2")
        cases = [
            (),
            (TradeoffExplanation("tau2", "tau1", "r3", ()),),
            (
                TradeoffExplanation(
                    "tau2", "tau1", "r3", (witness("r3", "r1", shared, 0.5), witness("r3", "r2", shared, 0.25))
                ),
                TradeoffExplanation("tau2", "tau4", "r2", (witness("r2", "r1", tuple(list(shared)), 0.5),)),
            ),
            tuple(
                TradeoffExplanation(a, b, c, tuple(witness(c, b, rotated, p) for p in ODD_PROBABILITIES))
                for a, b, c, rotated in (
                    (*ODD_IDS[i : i + 3], ODD_IDS[i:] + ODD_IDS[:i]) for i in range(len(ODD_IDS) - 2)
                )
            ),
        ]
        for explanations in cases:
            assert_json_matches_reference(
                report=dataclasses.replace(report, explanations=explanations),
                explanation=dataclasses.replace(explanation, tradeoffs=explanations),
            )

    @pytest.mark.parametrize("command", ["rank", "explain"])
    def test_each_distinct_scenario_tuple_is_written_once(self, av_worst_case, monkeypatch, command):
        """k distinct tuples give k written lists of ids, whether equal
        tuples are one object or several."""
        shared = ("w1", "w2")
        explanations = (
            TradeoffExplanation(
                "tau2", "tau1", "r3", (witness("r3", "r1", shared, 0.5), witness("r3", "r2", ("w3",), 0.25))
            ),
            TradeoffExplanation("tau2", "tau1", "r4", (witness("r4", "r1", shared, 0.5),)),
            TradeoffExplanation("tau2", "tau4", "r3", (witness("r3", "r1", tuple(list(shared)), 0.5),)),
            TradeoffExplanation("tau2", "tau4", "r4", ()),
        )
        id_lists = []
        array = reports.array

        def counted(texts, pad):
            if texts and texts[0].startswith('"'):
                id_lists.append(texts)
            return array(texts, pad)

        monkeypatch.setattr(reports, "array", counted)
        if command == "rank":
            report = dataclasses.replace(run_rank(av_worst_case), explanations=explanations)
            listed = json.loads(render_rank(report, as_json=True))["explanations"]
        else:
            explanation = dataclasses.replace(run_explain(av_worst_case, "tau2", "tau1"), tradeoffs=explanations)
            listed = json.loads(render_explanation(explanation, as_json=True))["tradeoffs"]
        assert id_lists == [['"w1"', '"w2"'], ['"w3"']]
        scenario_lists = [w["witness_scenarios"] for e in listed for w in e["witnesses"]]
        assert scenario_lists == [list(shared), ["w3"], list(shared), list(shared)]


class TestCheck:
    def test_bundled_corpus_passes(self, av):
        report = run_check(av)
        assert report.ok
        assert {r.status for r in report.results} == {"ok"}
        assert "check passed" in render_check(report)

    def test_custom_measure_is_flagged_unverified(self, av):
        configs = dict(av.risk_configs)
        median = rb.RiskMeasure.custom(
            lambda sp, f: rb.assess(rb.RiskMeasure.var(0.5), sp, f), label="median"
        )
        configs["r1"] = rb.RiskConfig(median, 0.0)
        inst = dataclasses.replace(av, risk_configs=configs)
        report = run_check(inst)
        assert report.ok
        statuses = {r.name: r.status for r in report.results}
        assert statuses["measure-monotonicity[r1]"] == "unverified"

    def test_non_monotone_custom_measure_fails(self, av):
        configs = dict(av.risk_configs)
        antitone = rb.RiskMeasure.custom(
            lambda sp, f: -rb.expectation(sp, f) if any(f.values.values()) else 1.0,
            label="antitone",
        )
        configs["r1"] = rb.RiskConfig(antitone, 0.0)
        inst = dataclasses.replace(av, risk_configs=configs)
        report = run_check(inst)
        assert not report.ok
        assert "FAILED" in render_check(report)

    def test_failed_preorder_names_its_counterexample(self):
        # Excesses 1.2e-9, 0.6e-9 and 0: each is within the absolute
        # tolerance of the next but a is not within it of c, so the computed
        # order is not transitive at (a, b, c).
        violations = {"a": 1.2e-9, "b": 0.6e-9, "c": 0.0}
        inst = rb.Instance(
            space=rb.FiniteProbSpace(("w",), {"w": 1.0}),
            trajectories=tuple(violations),
            env_trajectories=("e",),
            interaction=rb.InteractionModel({(t, "w"): "e" for t in violations}),
            rulebook=rb.Rulebook(
                (rb.Rule("r", {(t, "e"): v for t, v in violations.items()}),),
                rb.build_preorder(["r"], []),
            ),
            risk_configs={"r": rb.RiskConfig(rb.RiskMeasure.expected(), 0.0)},
        )
        report = run_check(inst)
        preorder = {r.name: r for r in report.results}["trajectory-preorder"]
        assert not report.ok
        assert preorder.status == "fail"
        assert "(a, b, c)" in preorder.detail

    def test_json_rendering(self, av):
        payload = json.loads(render_check(run_check(av), as_json=True))
        assert payload["ok"] is True
        assert any(r["name"] == "trajectory-preorder" for r in payload["results"])
