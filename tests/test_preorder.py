import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import riskbook as rb
from riskbook import Verdict, build_preorder


@pytest.fixture()
def av_priority():
    return build_preorder(["r1", "r2", "r3", "r4"], [("r1", "r2"), ("r2", "r3"), ("r2", "r4")])


class TestBuild:
    def test_chain_closure_adds_transitive_pairs(self, av_priority):
        assert ("r1", "r3") in av_priority.relation
        assert ("r1", "r4") in av_priority.relation

    def test_no_edges_gives_reflexive_closure_only(self):
        p = build_preorder(["a", "b"], [])
        assert p.relation == frozenset({("a", "a"), ("b", "b")})

    def test_opposite_edges_mean_equal_rank(self):
        p = build_preorder(["a", "b"], [("a", "b"), ("b", "a")])
        assert p.compare("a", "b") is Verdict.EQUAL

    def test_unknown_edge_endpoint(self):
        with pytest.raises(rb.UnknownElement):
            build_preorder(["a"], [("a", "b")])

    def test_duplicate_element(self):
        with pytest.raises(rb.DuplicateElement):
            build_preorder(["a", "a"], [])

    def test_element_order_preserved(self):
        p = build_preorder(["z", "m", "a"], [])
        assert p.elements == ("z", "m", "a")


class TestCompare:
    def test_strict_priority(self, av_priority):
        assert av_priority.compare("r2", "r3") is Verdict.HIGHER
        assert av_priority.compare("r3", "r2") is Verdict.LOWER

    def test_incomparable(self, av_priority):
        assert av_priority.compare("r3", "r4") is Verdict.INCOMPARABLE

    def test_self_is_equal(self, av_priority):
        for r in av_priority.elements:
            assert av_priority.compare(r, r) is Verdict.EQUAL

    def test_unknown_element(self, av_priority):
        with pytest.raises(rb.UnknownElement):
            av_priority.compare("r1", "r9")

    def test_strictly_higher(self, av_priority):
        assert av_priority.strictly_higher("r1", "r3")
        assert not av_priority.strictly_higher("r3", "r1")
        assert not av_priority.strictly_higher("r3", "r4")
        assert not av_priority.strictly_higher("r2", "r2")
        with pytest.raises(rb.UnknownElement, match="unknown element 'r9'"):
            av_priority.strictly_higher("r9", "r1")


class TestMinimalElements:
    def test_total_chain_has_unique_minimum(self):
        p = build_preorder(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.minimal_elements(["a", "b", "c"]) == ["c"]

    def test_antichain_is_all_minimal(self):
        p = build_preorder(["a", "b"], [])
        assert p.minimal_elements(["a", "b"]) == ["a", "b"]

    def test_restriction_to_subset(self):
        p = build_preorder(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.minimal_elements(["a", "b"]) == ["b"]

    def test_trajectory_ordering_from_worst_case_regime(self, av_worst_case):
        # Encode "riskier is higher" pairs taken from the pairwise verdicts,
        # then the minimal elements are exactly the optimal trajectories.
        trajectories = av_worst_case.trajectories
        edges = [
            (a, b)
            for a in trajectories
            for b in trajectories
            if a != b and rb.no_riskier_than(av_worst_case, b, a)
        ]
        p = build_preorder(trajectories, edges)
        assert p.minimal_elements(list(trajectories)) == ["tau2"]
        assert p.minimal_elements(list(trajectories)) == rb.optimal_set(av_worst_case)

    def test_unknown_subset_member(self):
        p = build_preorder(["a"], [])
        with pytest.raises(rb.UnknownElement):
            p.minimal_elements(["a", "x"])


class TestInvariants:
    def _random_preorder(self, rng):
        n = rng.randint(1, 7)
        elements = [f"e{i}" for i in range(n)]
        edges = [
            (a, b)
            for a in elements
            for b in elements
            if a != b and rng.random() < 0.3
        ]
        return build_preorder(elements, edges)

    def test_closure_is_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            p = self._random_preorder(rng)
            again = build_preorder(p.elements, [pair for pair in p.relation if pair[0] != pair[1]])
            assert again.relation == p.relation

    def test_verdict_matches_relation_directions(self):
        expected = {
            (True, True): Verdict.EQUAL,
            (True, False): Verdict.HIGHER,
            (False, True): Verdict.LOWER,
            (False, False): Verdict.INCOMPARABLE,
        }
        rng = random.Random(8)
        for _ in range(200):
            p = self._random_preorder(rng)
            for a, b in itertools.product(p.elements, repeat=2):
                directions = (p.at_least(a, b), p.at_least(b, a))
                assert p.compare(a, b) is expected[directions]

    def test_strict_order_is_transitive(self):
        rng = random.Random(9)
        for _ in range(200):
            p = self._random_preorder(rng)
            for a, b, c in itertools.product(p.elements, repeat=3):
                if p.compare(a, b) is Verdict.HIGHER and p.compare(b, c) is Verdict.HIGHER:
                    assert p.compare(a, c) is Verdict.HIGHER

    def test_minimal_elements_nonempty(self):
        rng = random.Random(10)
        for _ in range(200):
            p = self._random_preorder(rng)
            subset = [e for e in p.elements if rng.random() < 0.7]
            if subset:
                assert p.minimal_elements(subset)

    def test_relation_must_be_closed_to_construct(self):
        with pytest.raises(rb.ValidationError, match="not transitive"):
            rb.Preorder(
                ("a", "b", "c"),
                frozenset(
                    {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}
                ),  # missing (a, c)
            )

    def test_relation_must_be_reflexive_to_construct(self):
        with pytest.raises(rb.ValidationError, match=r"not reflexive: missing \('b', 'b'\)"):
            rb.Preorder(("a", "b"), frozenset({("a", "a"), ("a", "b")}))

    def test_relation_must_stay_within_the_elements(self):
        with pytest.raises(rb.UnknownElement, match=r"\('a', 'z'\) references an undeclared element"):
            rb.Preorder(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "z")}))

    @pytest.mark.parametrize("member", [("a", "b", "c"), 5, "aa", "ab"], ids=repr)
    def test_relation_members_must_be_pairs(self, member):
        with pytest.raises(rb.ValidationError) as excinfo:
            rb.Preorder(("a",), frozenset({("a", "a"), member}))
        assert str(excinfo.value) == f"relation member {member!r} is not a pair"


# Two relations that break a law at more than one place: the first lacks
# (a, c), which both (a, b), (b, c) and (a, d), (d, c) imply, and the second
# names two undeclared elements.  Each message names one fixed break.
_BROKEN_RELATIONS = """
import riskbook as rb

reflexive = {(x, x) for x in "abcd"}
for relation in (
    reflexive | {("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")},
    reflexive | {("q", "b"), ("a", "z")},
):
    try:
        rb.Preorder(tuple("abcd"), frozenset(relation))
    except rb.RiskbookError as exc:
        print(exc)
"""


def test_construction_errors_do_not_depend_on_the_hash_seed():
    src = str(Path(rb.__file__).resolve().parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _BROKEN_RELATIONS],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(4)
    }
    assert outputs == {
        "relation is not transitive at ('a', 'b'): missing ('a', 'c')\n"
        "relation pair ('a', 'z') references an undeclared element\n"
    }
