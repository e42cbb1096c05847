"""Seeded instance generator for the benchmark's three workload families.

Each family returns plain JSON-ready documents in the format
``riskbook.parse_instance`` reads.  The same seed always yields the same
documents.  This module does not import riskbook or the test suite's
generator, so the oracles there and here stay independent of each other.
"""

from __future__ import annotations

import random

MEASURES = ("expected", "worst_case", "var", "cvar")


def _probabilities(rng: random.Random, n: int, zeros: int) -> list[float]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(n)]
    for i in rng.sample(range(n), zeros):
        weights[i] = 0.0
    total = sum(weights)
    return [w / total for w in weights]


def _mixed_priority(rng: random.Random, rule_ids: list[str], strict: float, equal: float) -> list[list[str]]:
    """About ``strict`` of the rule pairs get one edge (earlier rule higher),
    ``equal`` get both directions, and the rest stay incomparable."""
    edges = []
    for i, hi in enumerate(rule_ids):
        for lo in rule_ids[i + 1 :]:
            u = rng.random()
            if u < strict:
                edges.append([hi, lo])
            elif u < strict + equal:
                edges.extend(([hi, lo], [lo, hi]))
    return edges


def _document(
    rng: random.Random,
    *,
    trajectories: int,
    rules: int,
    scenarios: int,
    envs: int,
    zero_prob: int,
    violation,
    risk,
    priority,
) -> dict:
    """Shared skeleton: ``violation(rule, traj)`` returns one table cell,
    ``risk(rule)`` one risk block and ``priority(rule_ids)`` the edge list."""
    scenario_ids = [f"w{i}" for i in range(scenarios)]
    traj_ids = [f"t{i}" for i in range(trajectories)]
    env_ids = [f"e{i}" for i in range(envs)]
    rule_ids = [f"r{i}" for i in range(rules)]
    probs = _probabilities(rng, scenarios, zero_prob)
    return {
        "scenarios": [{"id": w, "prob": p} for w, p in zip(scenario_ids, probs)],
        "system_trajectories": traj_ids,
        "environment_trajectories": env_ids,
        "interaction": {t: {w: rng.choice(env_ids) for w in scenario_ids} for t in traj_ids},
        "rules": [
            {
                "id": r,
                "violations": {t: {e: violation(r, t) for e in env_ids} for t in traj_ids},
                "risk": risk(r),
            }
            for r in rule_ids
        ],
        "priority": priority(rule_ids),
    }


def tradeoff_instance(rng: random.Random) -> dict:
    """T10/R6/S60/E4 under ``expected``: small repeated violation values and a
    mostly incomparable priority, so many candidates are optimal and every
    optimal one carries many witnesses."""
    return _document(
        rng,
        trajectories=10,
        rules=6,
        scenarios=60,
        envs=4,
        zero_prob=3,
        violation=lambda r, t: rng.choice((0, 0, 1, 1, 2, 3)),
        risk=lambda r: {"measure": "expected", "threshold": rng.choice((0, 0, 0, 0.5, 1))},
        priority=lambda ids: _mixed_priority(rng, ids, strict=0.3, equal=0.1),
    )


def tail_risk_instance(rng: random.Random) -> dict:
    """T10/R6/S400/E200 under ``cvar(0.9)`` with continuous violations and a
    priority chain.  ``t0`` violates nothing and every other candidate exceeds
    every threshold, so the optimal set is ``{t0}`` and no witness is needed."""
    return _document(
        rng,
        trajectories=10,
        rules=6,
        scenarios=400,
        envs=200,
        zero_prob=0,
        violation=lambda r, t: 0.0 if t == "t0" else rng.uniform(0.5, 10.0),
        risk=lambda r: {"measure": "cvar", "alpha": 0.9, "threshold": rng.uniform(0.0, 0.4)},
        priority=lambda ids: [[hi, lo] for hi, lo in zip(ids, ids[1:])],
    )


def _session_risk(rng: random.Random, rule_id: str) -> dict:
    kind = MEASURES[int(rule_id[1:]) % len(MEASURES)]
    block: dict = {"measure": kind}
    if kind in ("var", "cvar"):
        block["alpha"] = rng.choice((0.5, 0.8, 0.9, 0.95))
    block["threshold"] = rng.choice((0, 0, 0.5, 1, 2))
    return block


def session_instance(rng: random.Random) -> dict:
    """T12/R6/S100/E5 with all four measures in turn over the rules."""
    return _document(
        rng,
        trajectories=12,
        rules=6,
        scenarios=100,
        envs=5,
        zero_prob=4,
        violation=lambda r, t: rng.choice((0, 0, 0, 1, 2, 3, 5)),
        risk=lambda r: _session_risk(rng, r),
        priority=lambda ids: _mixed_priority(rng, ids, strict=0.3, equal=0.1),
    )


FAMILIES = {
    "rank-tradeoffs": tradeoff_instance,
    "rank-tail-risk": tail_risk_instance,
    "explain-session": session_instance,
}


def corpus(family: str, seed: int, count: int, keep=lambda doc: True) -> list[dict]:
    """The first ``count`` documents of one family that ``keep`` accepts,
    drawn from one stream fixed by ``seed``."""
    rng = random.Random(f"{family}:{seed}")
    docs: list[dict] = []
    while len(docs) < count:
        doc = FAMILIES[family](rng)
        if keep(doc):
            docs.append(doc)
    return docs
