import dataclasses
import itertools
import json
import random
import sys
import threading
from collections import Counter
from math import nan

import pytest

import riskbook as rb
from riskbook import reports, riskaware
from riskbook import (
    PointwiseCase,
    RiskMeasure,
    Verdict,
    compare_given_scenario,
    compare_trajectories,
    induced_random_cost,
    is_safe,
    is_safe_wrt_rule,
    optimal_set,
    pointwise_case,
    risk_aware_violation,
    risk_of,
    tradeoff_witness,
    tradeoff_witnesses,
)
from riskbook.probspace import _sum

from instgen import random_instance


def build_instance(probs, envs, interaction, tables, edges, thresholds=None, measure="expected"):
    """Small-instance builder: per-rule tables keyed (trajectory, env)."""
    scenarios = tuple(probs)
    trajectories = tuple(sorted({t for t, _ in interaction}))
    rule_ids = list(tables)
    thresholds = thresholds or {}
    return rb.Instance(
        space=rb.FiniteProbSpace(scenarios, dict(probs)),
        trajectories=trajectories,
        env_trajectories=tuple(envs),
        interaction=rb.InteractionModel(dict(interaction)),
        rulebook=rb.Rulebook(
            tuple(rb.Rule(rid, dict(table)) for rid, table in tables.items()),
            rb.build_preorder(rule_ids, edges),
        ),
        risk_configs={
            rid: rb.RiskConfig(RiskMeasure(measure), thresholds.get(rid, 0.0)) for rid in rule_ids
        },
    )


@pytest.fixture()
def incomparable_rules():
    # Two equally plausible objectives with no declared priority; each
    # trajectory wins one of them outright.
    return build_instance(
        probs={"s1": 0.5, "s2": 0.5},
        envs=("e1", "e2"),
        interaction={
            ("t1", "s1"): "e1",
            ("t1", "s2"): "e1",
            ("t2", "s1"): "e2",
            ("t2", "s2"): "e2",
        },
        tables={
            "rA": {("t1", "e1"): 1.0, ("t1", "e2"): 1.0, ("t2", "e1"): 0.0, ("t2", "e2"): 0.0},
            "rB": {("t1", "e1"): 0.0, ("t1", "e2"): 0.0, ("t2", "e1"): 1.0, ("t2", "e2"): 1.0},
        },
        edges=[],
    )


class TestInducedCost:
    def test_keep_speed_collides_only_in_the_erratic_scenario(self, av):
        cost = induced_random_cost(av, "r1", "tau1")
        assert cost.values == {"w1": 0.0, "w2": 225.0, "w3": 0.0, "w4": 0.0}

    def test_hard_braking_never_collides(self, av):
        cost = induced_random_cost(av, "r1", "tau3")
        assert set(cost.values.values()) == {0.0}

    def test_gentle_braking_always_slows_traffic(self, av):
        cost = induced_random_cost(av, "r3", "tau2")
        assert set(cost.values.values()) == {1.77}

    def test_unknown_ids(self, av):
        with pytest.raises(rb.UnknownRule):
            induced_random_cost(av, "r9", "tau1")
        with pytest.raises(rb.UnknownTrajectory):
            induced_random_cost(av, "r1", "tau9")


class TestRiskOf:
    def test_expected_collision_risk(self, av):
        inst = rb.with_risk_config(av, "r1", measure="expected")
        assert risk_of(inst, "r1", "tau1") == pytest.approx(0.225, abs=1e-9)

    def test_swerving_has_zero_collision_risk_under_any_measure(self, av):
        for measure, alpha in [("expected", None), ("worst_case", None), ("var", 0.9), ("cvar", 0.99)]:
            inst = rb.with_risk_config(av, "r1", measure=measure, alpha=alpha)
            assert risk_of(inst, "r1", "tau4") == 0.0

    def test_worst_case_collision_risk(self, av):
        inst = rb.with_risk_config(av, "r1", measure="worst_case")
        assert risk_of(inst, "r1", "tau2") == 175.0

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_risk_is_rejected_naming_rule_and_trajectory(self, av, value):
        configs = dict(av.risk_configs)
        configs["r3"] = rb.RiskConfig(RiskMeasure.custom(lambda space, f: value), 0.0)
        inst = dataclasses.replace(av, risk_configs=configs)
        with pytest.raises(rb.ValidationError, match=f"'r3' under trajectory 'tau1' is {value!r}"):
            risk_of(inst, "r3", "tau1")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_risk_fails_the_check_of_one_trajectory(self, value):
        # The check's only comparison is of the trajectory with itself.
        inst = build_instance({"w": 1.0}, ("e",), {("t", "w"): "e"}, {"r": {("t", "e"): 1.0}}, [])
        inst = dataclasses.replace(inst, risk_configs={"r": rb.RiskConfig(RiskMeasure.custom(lambda space, f: value), 0.0)})
        with pytest.raises(rb.ValidationError, match=f"'r' under trajectory 't' is {value!r}"):
            reports.run_check(inst)


class TestRiskAwareViolation:
    def test_threshold_boundary_is_forgiven(self, av_worst_case):
        assert risk_aware_violation(av_worst_case, "r1", "tau2") == 0.0

    def test_excess_over_threshold(self, av_worst_case):
        assert risk_aware_violation(av_worst_case, "r1", "tau1") == pytest.approx(50.0, abs=1e-9)

    def test_quantile_below_atom_gives_zero_excess(self, av):
        assert risk_aware_violation(av, "r1", "tau1") == 0.0

    def test_never_negative_and_zero_iff_within_threshold(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng, max_trajectories=3, max_rules=3)
            for rule_id in inst.rulebook.rule_ids:
                threshold = inst.risk_configs[rule_id].threshold
                for t in inst.trajectories:
                    excess = risk_aware_violation(inst, rule_id, t)
                    assert excess >= 0.0
                    within = risk_of(inst, rule_id, t) <= threshold + 1e-9
                    assert (excess <= 1e-9) == within


class TestSafety:
    def test_braking_is_always_safe_for_collision(self, av):
        for measure, alpha in [("expected", None), ("worst_case", None), ("var", 0.9995), ("cvar", 0.5)]:
            inst = rb.with_risk_config(av, "r1", measure=measure, alpha=alpha)
            assert is_safe_wrt_rule(inst, "r1", "tau3")

    def test_lane_rule_threshold_flips_swerving(self, av):
        assert not is_safe_wrt_rule(av, "r2", "tau4")
        assert is_safe_wrt_rule(rb.with_risk_config(av, "r2", threshold=1.0), "r2", "tau4")

    def test_keep_speed_is_safe_under_loose_quantile(self, av):
        assert is_safe(av, "tau1")
        assert not is_safe(av, "tau2")

    def test_swerving_safe_once_lane_threshold_raised(self, av):
        inst = rb.with_risk_config(av, "r2", threshold=1.0)
        assert is_safe(inst, "tau4")
        assert rb.safe_set(inst) == ["tau1", "tau4"]


class TestCompareTrajectories:
    def test_worst_case_regime_prefers_gentle_braking(self, av_worst_case):
        assert compare_trajectories(av_worst_case, "tau2", "tau1") is Verdict.LOWER

    def test_reflexive(self, av):
        for t in av.trajectories:
            assert compare_trajectories(av, t, t) is Verdict.EQUAL

    def test_tight_quantile_prefers_braking_over_swerving(self, av):
        inst = rb.with_risk_config(av, "r1", measure="var", alpha=0.9995)
        assert compare_trajectories(inst, "tau3", "tau4") is Verdict.LOWER

    def test_equal_rank_rules_do_not_compensate(self):
        inst = build_instance(
            probs={"s1": 1.0},
            envs=("e1", "e2"),
            interaction={("t1", "s1"): "e1", ("t2", "s1"): "e2"},
            tables={
                "rA": {("t1", "e1"): 1.0, ("t1", "e2"): 1.0, ("t2", "e1"): 0.0, ("t2", "e2"): 0.0},
                "rB": {("t1", "e1"): 0.0, ("t1", "e2"): 0.0, ("t2", "e1"): 1.0, ("t2", "e2"): 1.0},
            },
            edges=[("rA", "rB"), ("rB", "rA")],
        )
        assert inst.rulebook.priority.compare("rA", "rB") is Verdict.EQUAL
        assert compare_trajectories(inst, "t1", "t2") is Verdict.INCOMPARABLE


class TestCompareGivenScenario:
    def test_erratic_scenario_favors_gentle_braking(self, av):
        assert compare_given_scenario(av, "tau2", "tau1", "w2") is Verdict.LOWER

    def test_reflexive(self, av):
        assert compare_given_scenario(av, "tau3", "tau3", "w1") is Verdict.EQUAL

    def test_nominal_scenario_favors_keeping_speed(self, av):
        assert compare_given_scenario(av, "tau1", "tau2", "w1") is Verdict.LOWER

    def test_unknown_scenario(self, av):
        with pytest.raises(rb.UnknownScenario):
            compare_given_scenario(av, "tau1", "tau2", "w9")

    def test_interaction_response(self, av):
        assert av.interaction.response("tau1", "w2") == "xi2"
        with pytest.raises(rb.UnknownScenario, match="no interaction entry for trajectory 'tau1' under scenario 'w9'"):
            av.interaction.response("tau1", "w9")


class TestOptimalSet:
    def test_loose_quantile_regime(self, av):
        assert optimal_set(av) == ["tau1"]

    def test_tight_quantile_regime(self, av):
        inst = rb.with_risk_config(av, "r1", measure="var", alpha=0.9995)
        assert optimal_set(inst) == ["tau3"]
        raised = rb.with_risk_config(inst, "r2", threshold=1.0)
        assert optimal_set(raised) == ["tau4"]

    def test_worst_case_regime(self, av_worst_case):
        assert optimal_set(av_worst_case) == ["tau2"]
        var_variant = rb.with_risk_config(
            av_worst_case, "r1", measure="var", alpha=0.9995, threshold=175.0
        )
        assert optimal_set(var_variant) == ["tau2"]

    def test_incomparable_optima_are_all_reported(self, incomparable_rules):
        assert optimal_set(incomparable_rules) == ["t1", "t2"]


class TestTradeoffWitness:
    def test_flow_disadvantage_compensated_by_collision_rule(self, av_worst_case):
        witness = tradeoff_witness(av_worst_case, "tau2", "tau1", "r3")
        assert witness.compensating_rule == "r1"
        assert witness.witness_scenarios == ("w2",)
        assert witness.witness_probability == pytest.approx(0.001, abs=1e-9)
        priority = av_worst_case.rulebook.priority
        assert priority.compare(witness.compensating_rule, "r3") is not Verdict.LOWER

    def test_exhaustive_variant_starts_with_the_first_witness(self, av_worst_case):
        first = tradeoff_witness(av_worst_case, "tau2", "tau1", "r3")
        everything = tradeoff_witnesses(av_worst_case, "tau2", "tau1", "r3")
        assert everything[0] == first

    def test_same_trajectory_violates_precondition(self, av_worst_case):
        with pytest.raises(rb.PreconditionViolated):
            tradeoff_witness(av_worst_case, "tau2", "tau2", "r3")

    def test_no_improvement_violates_precondition(self, av_worst_case):
        with pytest.raises(rb.PreconditionViolated):
            tradeoff_witness(av_worst_case, "tau2", "tau3", "r1")

    def test_incomparable_rule_can_compensate(self, incomparable_rules):
        witness = tradeoff_witness(incomparable_rules, "t1", "t2", "rA")
        assert witness.compensating_rule == "rB"
        assert witness.witness_probability == pytest.approx(1.0, abs=1e-9)

    def test_no_witness_when_argument_is_not_optimal(self):
        # One rule, one trajectory dominating the other pointwise: the
        # dominated one is not optimal, and no compensation exists.
        inst = build_instance(
            probs={"s1": 0.5, "s2": 0.5},
            envs=("e1",),
            interaction={(t, s): "e1" for t in ("t1", "t2") for s in ("s1", "s2")},
            tables={"rA": {("t1", "e1"): 0.0, ("t2", "e1"): 4.0}},
            edges=[],
        )
        with pytest.raises(rb.NoWitness):
            tradeoff_witness(inst, "t2", "t1", "rA")


class TestPointwiseCase:
    def test_within_threshold_at_the_optimum(self, av_all_expected):
        inst = rb.with_risk_config(av_all_expected, "r1", threshold=0.5)
        assert rb.optimal_set(inst) == ["tau1"]
        analysis = pointwise_case(inst, "tau1", "tau3", "r1", "w2")
        assert analysis.case is PointwiseCase.SAFE_AT_OPTIMUM
        assert analysis.risk_at_optimum == pytest.approx(0.225, abs=1e-9)
        assert analysis.threshold == 0.5
        assert analysis.advantage_probability == pytest.approx(0.001, abs=1e-9)

    def test_zero_probability_advantage(self):
        inst = build_instance(
            probs={"s1": 1.0, "s2": 0.0},
            envs=("e1", "e2"),
            interaction={
                ("star", "s1"): "e1",
                ("star", "s2"): "e2",
                ("chal", "s1"): "e1",
                ("chal", "s2"): "e2",
            },
            tables={
                "rA": {
                    ("star", "e1"): 0.0,
                    ("star", "e2"): 5.0,
                    ("chal", "e1"): 0.0,
                    ("chal", "e2"): 3.0,
                }
            },
            edges=[],
        )
        analysis = pointwise_case(inst, "star", "chal", "rA", "s2")
        assert analysis.case is PointwiseCase.NULL_ADVANTAGE
        assert analysis.advantage_probability == 0.0

    def test_compensated_elsewhere(self, av_all_expected):
        # Braking hard is optimal under expected cost with zero thresholds;
        # keeping speed wins on traffic flow but loses on collisions at w2.
        assert rb.optimal_set(av_all_expected) == ["tau3"]
        analysis = pointwise_case(av_all_expected, "tau3", "tau1", "r3", "w1")
        assert analysis.case is PointwiseCase.COMPENSATED_ELSEWHERE
        assert analysis.witness is not None
        assert analysis.witness.compensating_rule == "r1"
        assert analysis.witness.witness_scenarios == ("w2",)
        assert analysis.witness.witness_probability == pytest.approx(0.001, abs=1e-9)

    def test_compensation_by_incomparable_rule(self, incomparable_rules):
        analysis = pointwise_case(incomparable_rules, "t1", "t2", "rA", "s1")
        assert analysis.case is PointwiseCase.COMPENSATED_ELSEWHERE
        assert analysis.witness.compensating_rule == "rB"

    def test_requires_strictly_monotone_measures(self, av):
        with pytest.raises(rb.AssumptionUnmet):
            pointwise_case(av, "tau1", "tau3", "r1", "w2")

    def test_requires_a_pointwise_advantage(self, av_all_expected):
        inst = rb.with_risk_config(av_all_expected, "r1", threshold=0.5)
        with pytest.raises(rb.PreconditionViolated):
            pointwise_case(inst, "tau1", "tau3", "r1", "w1")

    def test_requires_an_optimal_trajectory(self, av_all_expected):
        with pytest.raises(rb.PreconditionViolated):
            pointwise_case(av_all_expected, "tau2", "tau4", "r3", "w1")


class TestStructuralProperties:
    def test_scale_invariance_of_verdicts(self, av_worst_case):
        for c in (0.5, 3.0, 10.0):
            rule = next(r for r in av_worst_case.rulebook.rules if r.id == "r3")
            new_rule = rb.Rule("r3", {k: c * v for k, v in rule.violations.items()})
            rules = tuple(new_rule if r.id == "r3" else r for r in av_worst_case.rulebook.rules)
            configs = dict(av_worst_case.risk_configs)
            configs["r3"] = rb.RiskConfig(configs["r3"].measure, c * configs["r3"].threshold)
            scaled = dataclasses.replace(
                av_worst_case,
                rulebook=rb.Rulebook(rules, av_worst_case.rulebook.priority),
                risk_configs=configs,
            )
            assert rb.comparison_matrix(scaled) == rb.comparison_matrix(av_worst_case)
            assert optimal_set(scaled) == optimal_set(av_worst_case)
            assert rb.safe_set(scaled) == rb.safe_set(av_worst_case)

    def test_pointwise_dominance_lifts_to_the_preorder(self):
        rng = random.Random(6)
        for _ in range(100):
            inst = random_instance(rng, max_trajectories=4, max_rules=4)
            for a, b in itertools.permutations(inst.trajectories, 2):
                dominates = all(
                    induced_random_cost(inst, rule_id, a).values[w]
                    <= induced_random_cost(inst, rule_id, b).values[w]
                    for rule_id in inst.rulebook.rule_ids
                    for w in inst.space.scenarios
                )
                if dominates:
                    assert compare_trajectories(inst, a, b) in (Verdict.LOWER, Verdict.EQUAL)


def seeded_instance(n_rules, n_trajectories):
    """A seeded instance whose rules all use expected cost; at R6/T10 it has
    four optimal trajectories and many witnessed tradeoffs."""
    rng = random.Random(4)
    scenarios = [f"w{i}" for i in range(20)]
    weights = [rng.uniform(0.1, 1.0) for _ in scenarios]
    weights[rng.randrange(len(scenarios))] = 0.0
    total = sum(weights)
    trajectories = [f"t{i}" for i in range(n_trajectories)]
    envs = ("e0", "e1", "e2")
    rules = [f"r{i}" for i in range(n_rules)]
    return build_instance(
        probs={w: x / total for w, x in zip(scenarios, weights)},
        envs=envs,
        interaction={(t, w): rng.choice(envs) for t in trajectories for w in scenarios},
        tables={
            r: {(t, e): rng.choice((0.0, 0.0, 1.0, 2.0, 3.0)) for t in trajectories for e in envs}
            for r in rules
        },
        edges=[(a, b) for i, a in enumerate(rules) for b in rules[i + 1 :] if rng.random() < 0.3],
    )


class TestOperationCounts:
    """Counts of induced cost builds, made beneath the evaluation's per-call
    array, and of risk assessments, made on a miss of the instance's kept
    risks, so once per (rule, trajectory) per instance, on a seeded T10/R6
    instance with four optimal trajectories and many witnessed tradeoffs."""

    RULES, TRAJECTORIES = 6, 10

    @pytest.fixture()
    def instance(self):
        return seeded_instance(self.RULES, self.TRAJECTORIES)

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = Counter()
        evaluation = riskaware._Evaluation
        build, assess = evaluation._build_cost, evaluation._assess

        def counting_build(ev, r, t):
            counts[(r, t)] += 1
            counts["builds"] += 1
            return build(ev, r, t)

        def counting_assess(ev, r, t):
            counts["assessments"] += 1
            return assess(ev, r, t)

        monkeypatch.setattr(evaluation, "_build_cost", counting_build)
        monkeypatch.setattr(evaluation, "_assess", counting_assess)
        return counts

    def test_rank_builds_and_assesses_each_pair_at_most_once(self, instance, counts):
        report = reports.run_rank(instance)
        assert len(report.optimal) == 4 and len(report.explanations) == 77
        assert max(n for key, n in counts.items() if isinstance(key, tuple)) == 1
        assert counts["builds"] <= self.RULES * self.TRAJECTORIES
        assert counts["assessments"] <= self.RULES * self.TRAJECTORIES

    def test_explain_and_check_stay_within_one_pass(self, instance, counts):
        explanation = reports.run_explain(instance, "t4", "t0")
        assert explanation.tradeoffs
        assert counts["builds"] <= self.RULES * self.TRAJECTORIES
        assert counts["assessments"] <= self.RULES * self.TRAJECTORIES
        counts.clear()
        reports.run_check(instance)
        assert counts["builds"] <= self.RULES * self.TRAJECTORIES
        assert counts["assessments"] <= self.RULES * self.TRAJECTORIES
        # Deciding that a trajectory is not optimal stops at the first one
        # strictly less risky, so some explain of two such trajectories leaves
        # other trajectories unassessed.  Each explain runs on a copy, whose
        # store of risks starts empty.
        optimal = optimal_set(instance)
        assessed = []
        for a, b in itertools.permutations(instance.trajectories, 2):
            if a not in optimal and b not in optimal:
                counts.clear()
                reports.run_explain(dataclasses.replace(instance), a, b)
                assessed.append(counts["assessments"])
        assert 0 < min(assessed) < self.RULES * self.TRAJECTORIES

    def test_standalone_witness_builds_at_most_two_costs_per_rule(self, instance, counts):
        explanations = reports.run_rank(instance).explanations
        for e in explanations[:: len(explanations) // 8]:
            counts.clear()
            witness = tradeoff_witness(instance, e.optimal_trajectory, e.challenger, e.improving_rule)
            assert witness == e.witnesses[0]
            assert counts["builds"] <= 2 * self.RULES

    def test_reports_compare_each_unordered_pair_once(self, instance, monkeypatch):
        compared = Counter()
        compare = riskaware.compare_profiles

        def counting_compare(priority, rule_ids, costs_a, costs_b):
            compared[frozenset((id(costs_a), id(costs_b)))] += 1
            return compare(priority, rule_ids, costs_a, costs_b)

        monkeypatch.setattr(riskaware, "compare_profiles", counting_compare)
        # A trajectory is equal to itself without a comparison.
        pairs = self.TRAJECTORIES * (self.TRAJECTORIES - 1) // 2
        reports.run_rank(instance)
        assert sum(compared.values()) == pairs and max(compared.values()) == 1
        assert all(len(pair) == 2 for pair in compared)
        compared.clear()
        reports.run_check(instance)
        assert sum(compared.values()) == pairs and max(compared.values()) == 1
        # An explain decides the optimality of its two trajectories only: each
        # side is compared with at most every other trajectory, and the two
        # share their own comparison.
        for a, b in itertools.permutations(instance.trajectories, 2):
            compared.clear()
            reports.run_explain(instance, a, b)
            assert sum(compared.values()) <= 2 * self.TRAJECTORIES - 3
            assert max(compared.values()) == 1

    def test_optimality_is_decided_at_most_once_per_trajectory_per_call(self, instance, monkeypatch):
        # ``is_optimal`` keeps no memo: a caller that asked twice about one
        # trajectory within a call would fail here and need one again.
        decided = Counter()
        is_optimal = riskaware._Evaluation.is_optimal

        def counting_is_optimal(ev, t):
            decided[t] += 1
            return is_optimal(ev, t)

        monkeypatch.setattr(riskaware._Evaluation, "is_optimal", counting_is_optimal)
        calls = [lambda: reports.run_rank(instance), lambda: pointwise_case(instance, "t4", "t0", "r0", "w1")]
        calls += [
            lambda a=a, b=b: reports.run_explain(instance, a, b)
            for a, b in itertools.permutations(instance.trajectories, 2)
        ]
        for call in calls:
            decided.clear()
            call()
            assert decided and max(decided.values()) == 1

    def test_pointwise_case_compares_only_the_optimal_trajectory(self, instance, monkeypatch):
        compared = []
        compare = riskaware.compare_profiles

        def counting_compare(priority, rule_ids, costs_a, costs_b):
            compared.append((costs_a, costs_b))
            return compare(priority, rule_ids, costs_a, costs_b)

        monkeypatch.setattr(riskaware, "compare_profiles", counting_compare)
        analysis = pointwise_case(instance, "t4", "t0", "r0", "w1")
        assert analysis.case is PointwiseCase.COMPENSATED_ELSEWHERE
        assert len(compared) <= self.TRAJECTORIES
        profile = rb.risk_aware_profile(instance, "t4")
        assert all(profile in pair for pair in compared)

    def test_instance_compiles_once_for_every_call_and_override(self, instance, counts, monkeypatch):
        compiles = Counter()
        compile_tables = riskaware._Compiled.__init__

        def counting_compile(tables, inst):
            compiles[id(inst)] += 1
            compile_tables(tables, inst)

        monkeypatch.setattr(riskaware._Compiled, "__init__", counting_compile)
        reports.run_rank(instance)
        reports.run_check(instance)
        for a, b in itertools.permutations(instance.trajectories, 2):
            reports.run_explain(instance, a, b)
        risk_of(instance, "r0", "t0")
        reconfigured = rb.with_risk_config(instance, "r0", measure="cvar", alpha=0.9, threshold=0.5)
        counts.clear()
        reports.run_rank(reconfigured)
        assert max(n for key, n in counts.items() if isinstance(key, tuple)) == 1
        assert counts["assessments"] <= self.RULES * self.TRAJECTORIES
        assert compiles == {id(instance): 1, id(reconfigured): 1}

    def test_rank_makes_no_priority_comparisons(self, instance, monkeypatch):
        calls = Counter()
        compare = rb.Preorder.compare

        def counting_compare(priority, a, b):
            calls["compare"] += 1
            return compare(priority, a, b)

        monkeypatch.setattr(rb.Preorder, "compare", counting_compare)
        assert len(reports.run_rank(instance).explanations) == 77
        assert calls["compare"] == 0


KEPT_OVERRIDES = {
    "r0": dict(measure="worst_case"),
    "r1": dict(measure="var", alpha=0.8),
    "r2": dict(measure="cvar", alpha=0.9),
    "r4": dict(measure="worst_case", threshold=1.0),
}
KEPT_TRAJECTORIES = 10
TAIL_PAIRS = len(KEPT_OVERRIDES) * KEPT_TRAJECTORIES  # (rule, trajectory) pairs whose risk reads atoms
EXPECTED_PAIRS = 2 * KEPT_TRAJECTORIES  # r3 and r5 keep expected cost


@pytest.fixture()
def kept_instance():
    """The seeded T10/R6 instance with four rules reconfigured to worst case,
    VaR and CVaR, whose risks read atoms, and two left at expected cost,
    whose risks are sums."""
    instance = seeded_instance(6, KEPT_TRAJECTORIES)
    for rule_id, override in KEPT_OVERRIDES.items():
        instance = rb.with_risk_config(instance, rule_id, **override)
    return instance


@pytest.fixture()
def work(monkeypatch):
    """Calls to the atom builder (``riskaware._atoms``) as ``atoms``, to the
    expected-cost sum (``riskaware._sum``) as ``sums``, and misses of the
    compiled instance's kept risks and profiles as ``assessments`` and
    ``profiles``."""
    work = Counter()
    build, add = riskaware._atoms, riskaware._sum
    evaluation = riskaware._Evaluation
    assess, build_profile = evaluation._assess, evaluation._build_profile

    def counting_atoms(groups, probabilities):
        work["atoms"] += 1
        return build(groups, probabilities)

    def counting_sum(terms):
        work["sums"] += 1
        return add(terms)

    def counting_assess(ev, r, t):
        work["assessments"] += 1
        return assess(ev, r, t)

    def counting_profile(ev, t):
        work["profiles"] += 1
        return build_profile(ev, t)

    monkeypatch.setattr(riskaware, "_atoms", counting_atoms)
    monkeypatch.setattr(riskaware, "_sum", counting_sum)
    monkeypatch.setattr(evaluation, "_assess", counting_assess)
    monkeypatch.setattr(evaluation, "_build_profile", counting_profile)
    return work


def built_nothing(work):
    """Whether the counted calls since ``work`` was last cleared read every
    risk and profile from the kept stores."""
    return work["atoms"] == work["sums"] == work["assessments"] == work["profiles"] == 0


def kept(instance):
    """The compiled instance's kept risks, at ``r·T + t``."""
    return instance._compiled.risks


def kept_profiles(instance):
    """The compiled instance's kept excess profiles, at ``t``."""
    return instance._compiled.profiles


def printed_risks(report):
    """A rank report's risks in the kept store's order."""
    return [a.risks[rule_id] for rule_id in report.rule_ids for a in report.assessments]


# Every kind of report, rendered to the text a caller would compare.
REPORTS = {
    "rank": lambda inst: reports.render_rank(reports.run_rank(inst), as_json=True),
    "check": lambda inst: reports.render_check(reports.run_check(inst), as_json=True),
    "risk": lambda inst: "".join(
        reports.render_risk_table(reports.run_risk_table(inst, rule_id), as_json=True) for rule_id in inst.rulebook.rule_ids
    ),
    "explain": lambda inst: "".join(
        reports.render_explanation(reports.run_explain(inst, a, b), as_json=True)
        for a, b in itertools.permutations(inst.trajectories, 2)
    ),
    "comparison_matrix": lambda inst: repr(rb.comparison_matrix(inst)),
    "optimal_set": lambda inst: repr(optimal_set(inst)),
    "safe_set": lambda inst: repr(rb.safe_set(inst)),
    "risk_of": lambda inst: repr([risk_of(inst, r, t) for r in inst.rulebook.rule_ids for t in inst.trajectories]),
}


class TestKeptAtoms:
    """Risks that read atoms, kept with the compiled instance: worst case, VaR
    and CVaR call the atom builder once per (rule, trajectory) and instance,
    and no atom outlives the assessment that read it."""

    def test_one_shot_report_keeps_no_atoms(self, kept_instance, work):
        reports.run_rank(kept_instance)
        assert work["atoms"] == TAIL_PAIRS
        # The store holds one float per (rule, trajectory) and no atom list.
        assert all(type(risk) is float for risk in kept(kept_instance))

    @pytest.mark.parametrize(
        "report",
        [
            lambda inst: reports.render_rank(reports.run_rank(inst), as_json=True),
            lambda inst: reports.render_explanation(reports.run_explain(inst, "t1", "t2"), as_json=True),
        ],
        ids=["rank", "explain"],
    )
    def test_second_report_builds_and_sums_nothing(self, kept_instance, work, report):
        first = report(kept_instance)
        work.clear()
        assert report(kept_instance) == first
        assert built_nothing(work)

    @pytest.mark.parametrize("third", sorted(REPORTS))
    @pytest.mark.parametrize("first,second", [("rank", "rank"), ("rank", "check"), ("check", "rank"), ("check", "check")])
    def test_third_report_builds_no_atoms(self, kept_instance, work, first, second, third):
        REPORTS[first](kept_instance)
        REPORTS[second](kept_instance)
        work.clear()
        REPORTS[third](kept_instance)
        assert built_nothing(work)

    def test_copy_builds_its_own_atoms(self, kept_instance, work):
        reports.run_rank(kept_instance)
        before = list(kept(kept_instance))
        copy = rb.with_risk_config(kept_instance, "r0", threshold=0.5)
        work.clear()
        reports.run_rank(copy)
        assert work["atoms"] == TAIL_PAIRS and work["sums"] == EXPECTED_PAIRS
        # A threshold leaves every risk as it was, yet the copy assesses its own.
        assert kept(copy) is not kept(kept_instance) and kept(copy) == before
        assert kept(kept_instance) == before
        # It changes r0's excesses, which the copy keeps in profiles of its own.
        assert work["profiles"] == KEPT_TRAJECTORIES
        assert [p["r0"] for p in kept_profiles(copy)] != [p["r0"] for p in kept_profiles(kept_instance)]
        work.clear()
        reports.run_rank(copy)
        assert built_nothing(work)


class TestKeptExpected:
    """Expected costs, and with them every finite risk, a custom measure's
    included, kept with the compiled instance at ``r·T + t`` from the first
    evaluation that reads it, and each trajectory's excess profile kept at
    ``t`` from the first that builds it, on the fixture
    :class:`TestKeptAtoms` counts atoms on."""

    def test_one_shot_rank_sums_each_pair_once_and_keeps_it(self, kept_instance, work):
        report = reports.run_rank(kept_instance)
        assert work["sums"] == EXPECTED_PAIRS and work["atoms"] == TAIL_PAIRS
        assert kept(kept_instance) == printed_risks(report)

    def test_first_explain_sums_what_it_reads_and_rank_the_rest(self, kept_instance, work):
        # Neither side is optimal, and both are decided before t4 to t9 are
        # assessed.
        reports.run_explain(kept_instance, "t1", "t2")
        filled = len(kept(kept_instance)) - kept(kept_instance).count(None)
        assert 0 < filled < len(kept(kept_instance))
        assert work["sums"] + work["atoms"] == filled and work["sums"] > 0 and work["atoms"] > 0
        report = reports.run_rank(kept_instance)
        assert work["sums"] == EXPECTED_PAIRS and work["atoms"] == TAIL_PAIRS
        assert kept(kept_instance) == printed_risks(report)

    @pytest.mark.parametrize("second", sorted(REPORTS))
    def test_later_reports_sum_nothing(self, kept_instance, work, second):
        first = REPORTS[second](kept_instance)
        work.clear()
        assert REPORTS[second](kept_instance) == first
        assert built_nothing(work)

    @pytest.mark.parametrize("report", sorted(REPORTS))
    def test_reports_after_one_rank_build_no_profile_and_assess_nothing(self, kept_instance, work, report):
        reports.run_rank(kept_instance)
        assert work["profiles"] == KEPT_TRAJECTORIES and None not in kept_profiles(kept_instance)
        work.clear()
        REPORTS[report](kept_instance)
        assert built_nothing(work)

    def test_copy_sums_its_own_and_leaves_the_original(self, kept_instance, work):
        reports.run_rank(kept_instance)
        store = kept(kept_instance)
        before = list(store)
        copy = rb.with_risk_config(kept_instance, "r3", measure="cvar", alpha=0.9)
        work.clear()
        reports.run_rank(copy)
        # r3 now reads atoms, so the copy sums r5 alone and builds one more rule's atoms.
        assert work["sums"] == EXPECTED_PAIRS - KEPT_TRAJECTORIES
        assert work["atoms"] == TAIL_PAIRS + KEPT_TRAJECTORIES
        r3 = slice(3 * KEPT_TRAJECTORIES, 4 * KEPT_TRAJECTORIES)
        assert kept(copy) is not store and kept(copy)[r3] != before[r3]
        assert kept(copy)[: r3.start] + kept(copy)[r3.stop :] == before[: r3.start] + before[r3.stop :]
        assert kept(kept_instance) is store and store == before

    def test_custom_measure_runs_once_per_instance(self, kept_instance, work):
        reports.run_rank(kept_instance)
        reference = list(kept(kept_instance))
        calls = []

        def assessor(space, cost):
            calls.append(cost)
            return rb.assess(RiskMeasure.worst_case(), space, cost)

        configs = dict(kept_instance.risk_configs, r0=rb.RiskConfig(RiskMeasure.custom(assessor), 0.0))
        custom = dataclasses.replace(kept_instance, risk_configs=configs)
        work.clear()
        for _ in range(3):
            assert risk_of(custom, "r0", "t3") == reference[3]  # r0 is rule 0
        reports.run_rank(custom)
        reports.run_rank(custom)
        # Once per (r0, trajectory); r0 under worst case kept the same risks.
        assert len(calls) == KEPT_TRAJECTORIES
        assert kept(custom) == reference
        assert work["sums"] == EXPECTED_PAIRS and work["atoms"] == TAIL_PAIRS - KEPT_TRAJECTORIES
        # A copy is a new instance with a store of its own, so it runs the callable again.
        copy = dataclasses.replace(custom)
        calls.clear()
        work.clear()
        reports.run_rank(copy)
        assert len(calls) == KEPT_TRAJECTORIES
        assert kept(copy) is not kept(custom) and kept(copy) == reference
        assert work["sums"] == EXPECTED_PAIRS and work["atoms"] == TAIL_PAIRS - KEPT_TRAJECTORIES

    def test_overflowing_expected_cost_fails_every_read(self):
        # The overflow case of test_cli's exit-code tests: only tau4's r2
        # expected cost is infinite.
        doc = json.loads(rb.bundled_instance_text())
        doc["scenarios"][0]["prob"] += 5e-10
        doc["rules"][1]["violations"]["tau4"] = {"xi1": sys.float_info.max, "xi2": sys.float_info.max}
        instance = rb.parse_instance(json.dumps(doc))
        calls = [
            lambda: reports.run_rank(instance),
            lambda: reports.run_check(instance),
            lambda: reports.run_explain(instance, "tau1", "tau2"),
            lambda: reports.run_explain(instance, "tau2", "tau4"),
            lambda: risk_of(instance, "r2", "tau4"),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(rb.ValidationError, match="'r2' under trajectory 'tau4' is inf; risks must be finite"):
                    call()
            assert reports.run_explain(instance, "tau2", "tau3").verdict is Verdict.LOWER
        # Only finite risks are kept, and no profile that reads another.
        r2, tau4 = instance.require_rule("r2"), instance.require_trajectory("tau4")
        assert kept(instance)[r2 * len(instance.trajectories) + tau4] is None
        assert kept_profiles(instance)[tau4] is None

    def test_custom_nan_risk_fails_every_read_and_is_never_kept(self, kept_instance):
        calls = []

        def assessor(space, cost):
            calls.append(cost)
            return nan

        configs = dict(kept_instance.risk_configs, r0=rb.RiskConfig(RiskMeasure.custom(assessor), 0.0))
        custom = dataclasses.replace(kept_instance, risk_configs=configs)
        reads = [
            lambda: risk_of(custom, "r0", "t3"),
            lambda: reports.run_rank(custom),
            lambda: reports.run_check(custom),
            lambda: reports.run_explain(custom, "t1", "t2"),
        ]
        for _ in range(2):
            for read in reads:
                with pytest.raises(rb.ValidationError, match=r"'r0' under trajectory 't\d' is nan; risks must be finite"):
                    read()
        # Each read assesses the first r0 risk it needs anew and fails on it.
        assert len(calls) == 2 * len(reads)
        assert kept(custom)[:KEPT_TRAJECTORIES] == [None] * KEPT_TRAJECTORIES
        assert kept_profiles(custom) == [None] * KEPT_TRAJECTORIES

    def test_threads_sharing_one_instance_render_what_one_thread_renders(self):
        names = ("explain", "rank", "check", "explain")
        reference = seeded_instance(6, KEPT_TRAJECTORIES)
        expected = {name: REPORTS[name](reference) for name in names}
        shared = seeded_instance(6, KEPT_TRAJECTORIES)
        rendered, errors = [], []

        def render(name):
            try:
                rendered.append((name, REPORTS[name](shared)))
            except Exception as exc:  # failed below, in the test's own thread
                errors.append(exc)

        threads = [threading.Thread(target=render, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert sorted(rendered) == sorted((name, expected[name]) for name in names)
        assert kept_profiles(shared) == kept_profiles(reference) and kept(shared) == kept(reference)


class TestReturnedExcesses:
    """Every excess mapping a public call returns is a new dict, never the
    profile the compiled instance keeps, so a caller that writes into one
    changes no later report."""

    @pytest.mark.parametrize(
        "make",
        [rb.bundled_instance, lambda: seeded_instance(6, KEPT_TRAJECTORIES)],
        ids=["bundled", "seeded"],
    )
    def test_writes_into_returned_excesses_reach_no_later_report(self, make):
        instance = make()

        def rendered():
            return [REPORTS[name](instance) for name in ("rank", "check", "explain")], optimal_set(instance)

        before = rendered()
        returned = [rb.risk_aware_profile(instance, t) for t in instance.trajectories]
        returned += [a.excesses for a in reports.run_rank(instance).assessments]
        for a, b in itertools.permutations(instance.trajectories, 2):
            returned += reports.run_explain(instance, a, b).excesses.values()
        assert len(returned) == 2 * len(instance.trajectories) ** 2
        for excesses in returned:
            for rule_id in excesses:
                excesses[rule_id] = 1e9
        assert rendered() == before


class TestTailReads:
    """Atoms CVaR reads from the builder in one ``run_rank`` of a seeded
    T10/R6/S400/E200 instance under ``cvar(0.9)``: ``t0`` violates nothing
    and every other trajectory draws each violation from a continuous range,
    so its response groups are its atoms.  The pass stops a little below the
    tail's edge, about a tenth of the mass from the top."""

    @staticmethod
    def tail_instance():
        rng = random.Random(25)
        scenarios = tuple(f"w{i}" for i in range(400))
        weights = [rng.uniform(0.2, 1.0) for _ in scenarios]
        total = _sum(weights)
        trajectories = tuple(f"t{i}" for i in range(10))
        envs = tuple(f"e{i}" for i in range(200))
        rules = tuple(
            rb.Rule(f"r{i}", {(t, e): 0.0 if t == "t0" else rng.uniform(0.5, 10.0) for t in trajectories for e in envs})
            for i in range(6)
        )
        rule_ids = [rule.id for rule in rules]
        return rb.Instance(
            space=rb.FiniteProbSpace(scenarios, {w: x / total for w, x in zip(scenarios, weights)}),
            trajectories=trajectories,
            env_trajectories=envs,
            interaction=rb.InteractionModel({(t, w): rng.choice(envs) for t in trajectories for w in scenarios}),
            rulebook=rb.Rulebook(rules, rb.build_preorder(rule_ids, list(zip(rule_ids, rule_ids[1:])))),
            risk_configs={rule_id: rb.RiskConfig(RiskMeasure.cvar(0.9), rng.uniform(0.0, 0.4)) for rule_id in rule_ids},
        )

    def test_one_rank_reads_under_a_quarter_of_each_continuous_cost(self, monkeypatch):
        instance = self.tail_instance()
        reads = []
        build = riskaware._atoms

        def counting_atoms(groups, probabilities):
            groups = list(groups)
            values = sorted(value for value, _, _ in groups)
            continuous = all(b - a > rb.TOL for a, b in zip(values, values[1:]))
            reads.append([len(groups), continuous, 0])
            return reading(build(groups, probabilities), reads[-1])

        def reading(atoms, count):
            for atom in atoms:
                count[2] += 1
                yield atom

        monkeypatch.setattr(riskaware, "_atoms", counting_atoms)
        report = reports.run_rank(instance)
        assert report.optimal == report.safe == ("t0",)
        assert len(reads) == 60
        continuous = [(groups, read) for groups, is_continuous, read in reads if is_continuous]
        assert len(continuous) == 54 and min(groups for groups, _ in continuous) > 150
        assert all(4 * read < groups for groups, read in continuous)
        # t0's costs are all zero: one atom, whatever the number of groups.
        assert [read for _, is_continuous, read in reads if not is_continuous] == [1] * 6
