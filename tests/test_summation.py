"""Every figure the package sums is added left to right from ``0.0``.

Builtin ``sum()`` of floats is compensated from Python 3.12 on, and reports
must not depend on the interpreter.  The data below are chosen so that the
left-to-right sum and the correctly rounded sum differ (each test asserts
that it does), and each figure must equal the left-to-right reference bit
for bit on every interpreter.
"""

import math
from functools import reduce
from operator import add

import riskbook as rb
from riskbook import FiniteProbSpace, RandomCost, RiskMeasure, exceedance_prob, expectation, risk_of
from riskbook.risk import assess_support

TEN = tuple(f"s{k}" for k in range(10))


def left_to_right(terms):
    """The reference: ``0.0 + t0 + t1 + ...``, one rounding per term."""
    terms = list(terms)
    reference = reduce(add, terms, 0.0)
    assert reference != math.fsum(terms), "the data must tell the two summations apart"
    return reference


def tenths():
    return FiniteProbSpace(TEN, {omega: 0.1 for omega in TEN})


def ones():
    return RandomCost({omega: 1.0 for omega in TEN})


def zeros():
    return RandomCost({omega: 0.0 for omega in TEN})


def two_incomparable_rules():
    """``t1`` violates ``rA`` and ``t2`` violates ``rB`` at every scenario,
    with no priority between the rules, so each compensates the other on
    all ten scenarios."""
    return rb.Instance(
        space=tenths(),
        trajectories=("t1", "t2"),
        env_trajectories=("e",),
        interaction=rb.InteractionModel({(t, omega): "e" for t in ("t1", "t2") for omega in TEN}),
        rulebook=rb.Rulebook(
            (
                rb.Rule("rA", {("t1", "e"): 1.0, ("t2", "e"): 0.0}),
                rb.Rule("rB", {("t1", "e"): 0.0, ("t2", "e"): 1.0}),
            ),
            rb.build_preorder(["rA", "rB"], []),
        ),
        risk_configs={rule_id: rb.RiskConfig(RiskMeasure.expected(), 0.0) for rule_id in ("rA", "rB")},
    )


class TestLeftToRightSums:
    def test_expectation(self):
        reference = left_to_right(0.1 * 1.0 for _ in TEN)
        assert expectation(tenths(), ones()) == reference

    def test_expected_risk(self):
        reference = left_to_right(0.1 * 1.0 for _ in TEN)
        assert risk_of(two_incomparable_rules(), "rA", "t1") == reference

    def test_exceedance_prob(self):
        reference = left_to_right(0.1 for _ in TEN)
        assert exceedance_prob(tenths(), ones(), zeros(), ">") == reference

    def test_witness_probability(self):
        witness = rb.tradeoff_witness(two_incomparable_rules(), "t1", "t2", "rA")
        assert witness.compensating_rule == "rB" and witness.witness_scenarios == TEN
        assert witness.witness_probability == left_to_right(0.1 for _ in TEN)

    def test_cvar(self):
        # CVaR at 0.1 of 1..10, each with probability 0.1: the tail mean is 6.
        atoms = [(float(k), 0.1) for k in range(1, 11)]
        alpha = 0.1

        def minimum(total):
            scale = 1.0 / (1.0 - alpha)
            return min(beta + scale * total([p * (v - beta) for v, p in atoms if v > beta]) for beta, _ in atoms)

        reference = minimum(lambda terms: reduce(add, terms, 0.0))
        assert reference != minimum(math.fsum), "the data must tell the two summations apart"
        assert assess_support(RiskMeasure.cvar(alpha), reversed(atoms), len(atoms)) == reference

    def test_empty_event_has_float_probability_zero(self):
        probability = exceedance_prob(tenths(), zeros(), ones(), ">")
        assert probability == 0.0 and type(probability) is float
