import itertools
import math
import random
import sys

import pytest

import riskbook as rb
from riskbook import Realization, Verdict, compare_realizations, violation
from riskbook.riskaware import _Evaluation
from riskbook.rulebook import compare_profiles

from instgen import all_realizations, brute_at_most_as_bad, brute_verdict, random_instance


class TestViolationLookup:
    def test_collision_when_keeping_speed(self, av):
        assert violation(av.rulebook, "r1", Realization("tau1", "xi2")) == 225.0

    def test_lane_deviation_when_swerving(self, av):
        assert violation(av.rulebook, "r2", Realization("tau4", "xi1")) == 1.0

    def test_hard_braking_avoids_collision(self, av):
        assert violation(av.rulebook, "r1", Realization("tau3", "xi2")) == 0.0

    def test_unknown_rule(self, av):
        with pytest.raises(rb.UnknownRule):
            violation(av.rulebook, "r9", Realization("tau1", "xi1"))

    def test_unknown_realization(self, av):
        with pytest.raises(rb.UnknownRealization):
            violation(av.rulebook, "r1", Realization("tau1", "xi9"))

    def test_negative_violation_rejected(self):
        with pytest.raises(rb.ValidationError):
            rb.Rule("r", {("t", "e"): -1.0})

    @pytest.mark.parametrize("value", ["a", "1", None, True, False, [1.0]])
    def test_value_that_is_not_an_int_or_float_rejected(self, value):
        message = f"rule 'r' has violation {value!r} at ('t', 'e'); violations must be finite and nonnegative"
        with pytest.raises(rb.ValidationError) as excinfo:
            rb.Rule("r", {("t", "d"): 1, ("t", "e"): value})
        assert str(excinfo.value) == message


class TestRulebookConstruction:
    def test_duplicate_rule_ids(self, av):
        rule = av.rulebook.rules[0]
        with pytest.raises(rb.DuplicateElement):
            rb.Rulebook((rule, rule), rb.build_preorder(["r1"], []))

    def test_priority_must_cover_rule_ids(self, av):
        with pytest.raises(rb.ValidationError):
            rb.Rulebook(av.rulebook.rules, rb.build_preorder(["r1", "r2"], []))


class TestCompareRealizations:
    def test_flow_violation_makes_braking_worse_without_pedestrian(self, av):
        # With no pedestrian on the road, gentle braking only hurts traffic
        # flow, so it compares strictly worse than keeping speed.
        x = Realization("tau2", "xi1")
        y = Realization("tau1", "xi1")
        assert compare_realizations(av.rulebook, x, y) is Verdict.HIGHER

    def test_same_realization_is_equal(self, av):
        x = Realization("tau3", "xi2")
        assert compare_realizations(av.rulebook, x, x) is Verdict.EQUAL

    def test_collision_advantage_outweighs_flow_disadvantage(self, av):
        # Once a pedestrian steps out, braking loses on flow but wins on the
        # higher-priority collision rule, so it compares strictly better.
        x = Realization("tau2", "xi2")
        y = Realization("tau1", "xi2")
        assert compare_realizations(av.rulebook, x, y) is Verdict.LOWER

    def test_equal_iff_every_rule_agrees(self, av):
        realizations = all_realizations(av)
        for x, y in itertools.product(realizations, repeat=2):
            same_values = all(
                r.violation(x) == r.violation(y) for r in av.rulebook.rules
            )
            verdict = compare_realizations(av.rulebook, x, y)
            assert (verdict is Verdict.EQUAL) == same_values

    def test_matches_brute_force_on_av_pairs(self, av):
        realizations = all_realizations(av)
        for x, y in itertools.product(realizations, repeat=2):
            assert compare_realizations(av.rulebook, x, y) is brute_verdict(av.rulebook, x, y)


MAX = sys.float_info.max


class TestProfileReflexivity:
    """A profile compared with itself finds no rule on either side, so the
    trajectory order is reflexive by construction and ``check`` scans only
    transitivity."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.0] * 4,
            [-0.0] * 4,
            [MAX] * 4,
            [-MAX] * 4,
            [math.inf] * 4,
            [math.nan] * 4,
            [0.0, -0.0, MAX, math.nextafter(MAX, 0.0)],
        ],
    )
    def test_compare_profiles_of_a_profile_with_itself(self, av, values):
        ids = av.rulebook.rule_ids
        profile = dict(zip(ids, values, strict=True))
        assert compare_profiles(av.rulebook.priority, ids, profile, profile) == ((), (), True, True)

    def test_every_trajectory_is_at_most_as_risky_as_itself_on_random_instances(self):
        rng = random.Random(2026)
        for _ in range(200):
            ev = _Evaluation(random_instance(rng))
            for t in range(len(ev.trajectories)):
                assert ev.comparison(t, t)[2]


class TestPreorderLaws:
    def test_reflexive_transitive_and_dominance_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(200):
            instance = random_instance(rng, max_trajectories=3, max_envs=2, max_rules=5)
            book = instance.rulebook
            realizations = all_realizations(instance)

            leq = {
                (x, y): compare_realizations(book, x, y) in (Verdict.LOWER, Verdict.EQUAL)
                for x in realizations
                for y in realizations
            }
            for x in realizations:
                assert leq[(x, x)]
            for x, y, z in itertools.product(realizations, repeat=3):
                if leq[(x, y)] and leq[(y, z)]:
                    assert leq[(x, z)]

            for x, y in itertools.product(realizations, repeat=2):
                if all(r.violation(x) <= r.violation(y) for r in book.rules):
                    assert compare_realizations(book, x, y) in (Verdict.LOWER, Verdict.EQUAL)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2025)
        for _ in range(200):
            instance = random_instance(rng, max_trajectories=3, max_envs=2, max_rules=5)
            realizations = all_realizations(instance)
            for x, y in itertools.product(realizations, repeat=2):
                assert compare_realizations(instance.rulebook, x, y) is brute_verdict(
                    instance.rulebook, x, y
                )

    def test_at_most_as_bad_matches_brute_force_in_either_element_order(self):
        rng = random.Random(2026)
        for _ in range(200):
            instance = random_instance(rng, max_trajectories=3, max_envs=2, max_rules=5)
            book = instance.rulebook
            reordered = rb.Preorder(tuple(reversed(book.priority.elements)), book.priority.relation)
            for x, y in itertools.product(all_realizations(instance), repeat=2):
                vx = {r.id: r.violation(x) for r in book.rules}
                vy = {r.id: r.violation(y) for r in book.rules}
                expected = brute_at_most_as_bad(book, x, y)
                assert rb.at_most_as_bad(book.priority, vx, vy) is expected
                assert rb.at_most_as_bad(reordered, vx, vy) is expected
