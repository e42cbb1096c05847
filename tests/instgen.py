"""Seeded random instances and independent oracles for the test suite.

The generator favors small grids, repeated values, and zero-probability
scenarios so that equality, compensation, and almost-sure edge cases all get
exercised.  Oracles here implement the definitions directly and stay
independent of the code paths they check.
"""

from __future__ import annotations

import random

import riskbook as rb
from riskbook.probspace import _sum

VALUES = [0.0, 0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.5, 12.0, 30.0]
ALPHAS = [0.0, 0.25, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0]
THRESHOLDS = [0.0, 0.0, 0.0, 0.5, 1.0, 3.0, 10.0]
ALL_KINDS = ("expected", "worst_case", "var", "cvar")


def random_space(rng: random.Random, max_scenarios: int = 6) -> rb.FiniteProbSpace:
    n = rng.randint(1, max_scenarios)
    ids = tuple(f"w{i}" for i in range(1, n + 1))
    weights = [rng.uniform(0.05, 1.0) for _ in ids]
    if n > 1 and rng.random() < 0.3:
        weights[rng.randrange(n)] = 0.0
    total = _sum(weights)  # left to right on every Python, so each seed draws one instance
    return rb.FiniteProbSpace(ids, {w: x / total for w, x in zip(ids, weights)})


def random_cost(rng: random.Random, space: rb.FiniteProbSpace) -> rb.RandomCost:
    return rb.RandomCost({w: rng.choice(VALUES) for w in space.scenarios})


def random_measure(rng: random.Random, kinds=ALL_KINDS) -> rb.RiskMeasure:
    kind = rng.choice(kinds)
    if kind in ("var", "cvar"):
        alpha = rng.choice(ALPHAS) if rng.random() < 0.7 else round(rng.random(), 3)
        return rb.RiskMeasure(kind, alpha=alpha)
    return rb.RiskMeasure(kind)


def random_instance(
    rng: random.Random,
    max_trajectories: int = 6,
    max_rules: int = 5,
    max_scenarios: int = 6,
    max_envs: int = 3,
    ensure_safe: bool = False,
    kinds=ALL_KINDS,
) -> rb.Instance:
    space = random_space(rng, max_scenarios)
    trajectories = tuple(f"t{i}" for i in range(1, rng.randint(1, max_trajectories) + 1))
    envs = tuple(f"e{i}" for i in range(1, rng.randint(1, max_envs) + 1))
    rule_ids = [f"r{i}" for i in range(1, rng.randint(1, max_rules) + 1)]

    responses = {(t, w): rng.choice(envs) for t in trajectories for w in space.scenarios}

    safe_choice = rng.choice(trajectories) if ensure_safe else None
    rules = tuple(
        rb.Rule(
            rid,
            {
                (t, e): 0.0 if t == safe_choice else rng.choice(VALUES)
                for t in trajectories
                for e in envs
            },
        )
        for rid in rule_ids
    )

    edges: list[tuple[str, str]] = []
    for i in range(len(rule_ids)):
        for j in range(i + 1, len(rule_ids)):
            roll = rng.random()
            if roll < 0.35:
                edges.append((rule_ids[i], rule_ids[j]))
            elif roll < 0.55:
                edges.append((rule_ids[j], rule_ids[i]))
            elif roll < 0.65:
                edges.append((rule_ids[i], rule_ids[j]))
                edges.append((rule_ids[j], rule_ids[i]))
    priority = rb.build_preorder(rule_ids, edges)

    configs = {
        rid: rb.RiskConfig(random_measure(rng, kinds), rng.choice(THRESHOLDS)) for rid in rule_ids
    }
    return rb.Instance(
        space=space,
        trajectories=trajectories,
        env_trajectories=envs,
        interaction=rb.InteractionModel(responses),
        rulebook=rb.Rulebook(rules, priority),
        risk_configs=configs,
    )


def tail_average_cvar(atoms: list[tuple[float, float]], alpha: float) -> float:
    """Sorted-tail-average CVaR oracle: mean of the worst ``1 - alpha``
    probability mass, splitting the boundary atom proportionally."""
    if alpha >= 1.0:
        return max(v for v, _ in atoms)
    tail = 1.0 - alpha
    remaining = tail
    acc = 0.0
    for v, p in sorted(atoms, reverse=True):
        take = min(remaining, p)
        acc += take * v
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / tail


def brute_at_most_as_bad(rulebook: rb.Rulebook, x: rb.Realization, y: rb.Realization) -> bool:
    """Literal compensation check on realizations, reading the closed priority
    relation directly."""
    relation = rulebook.priority.relation
    for rule in rulebook.rules:
        if rule.violation(x) > rule.violation(y) + rb.TOL:
            compensated = False
            for other in rulebook.rules:
                strictly_higher = (other.id, rule.id) in relation and (rule.id, other.id) not in relation
                if strictly_higher and other.violation(x) < other.violation(y) - rb.TOL:
                    compensated = True
                    break
            if not compensated:
                return False
    return True


def brute_verdict(rulebook: rb.Rulebook, x: rb.Realization, y: rb.Realization) -> rb.Verdict:
    forward = brute_at_most_as_bad(rulebook, x, y)
    backward = brute_at_most_as_bad(rulebook, y, x)
    if forward and backward:
        return rb.Verdict.EQUAL
    if forward:
        return rb.Verdict.LOWER
    if backward:
        return rb.Verdict.HIGHER
    return rb.Verdict.INCOMPARABLE


def all_realizations(instance: rb.Instance) -> list[rb.Realization]:
    return [
        rb.Realization(t, e) for t in instance.trajectories for e in instance.env_trajectories
    ]
