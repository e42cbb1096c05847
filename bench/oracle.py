"""Independent correctness oracle for the benchmark's outputs.

Everything here works from the generated JSON document and the program's
JSON output, by the definitions alone: risks by direct formulas (CVaR as the
average of the worst ``1 - alpha`` of probability mass), verdicts by the
literal compensation rule over a separately closed priority relation, and
witnesses by re-reading the cost tables.  It imports nothing from riskbook.

Each ``check_*`` function returns a list of human-readable problems; an
empty list means the output is correct.
"""

from __future__ import annotations

TOL = 1e-9  # the program's documented comparison tolerance
RTOL = 1e-9  # relative slack for reported floats (summation order may differ)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL + RTOL * max(abs(a), abs(b))


def _var(pairs: list[tuple[float, float]], alpha: float) -> float:
    cumulative = 0.0
    for v, p in pairs:
        cumulative += p
        if cumulative >= alpha - TOL:
            return v
    return pairs[-1][0]


def _tail_average(pairs: list[tuple[float, float]], alpha: float) -> float:
    """Mean of the worst ``1 - alpha`` mass, walking down from the top."""
    mass = 1.0 - alpha
    if mass <= 0.0:
        return pairs[-1][0]
    left, acc = mass, 0.0
    for v, p in reversed(pairs):
        take = min(p, left)
        acc += take * v
        left -= take
        if left <= 0.0:
            break
    return acc / mass


def risk(block: dict, probs: list[float], costs: list[float]) -> float:
    kind = block["measure"]
    if kind == "expected":
        return sum(p * c for p, c in zip(probs, costs))
    pairs = sorted((c, p) for c, p in zip(costs, probs) if p > 0)
    if kind == "worst_case":
        return pairs[-1][0]
    if kind == "var":
        return _var(pairs, block["alpha"])
    if kind == "cvar":
        return _tail_average(pairs, block["alpha"])
    raise ValueError(f"unknown measure {kind!r}")


class Expected:
    """The oracle's view of one instance document: costs, risks, excesses,
    the closed priority relation, verdicts, and the safe and optimal sets."""

    def __init__(self, doc: dict):
        self.scenarios = [s["id"] for s in doc["scenarios"]]
        self.index = {w: i for i, w in enumerate(self.scenarios)}
        self.probs = [s["prob"] for s in doc["scenarios"]]
        self.trajectories = list(doc["system_trajectories"])
        self.rules = [r["id"] for r in doc["rules"]]
        inter = doc["interaction"]
        # cost[rule][traj] is the induced cost vector over scenarios
        self.cost = {
            r["id"]: {
                t: [r["violations"][t][inter[t][w]] for w in self.scenarios] for t in self.trajectories
            }
            for r in doc["rules"]
        }
        self.risks = {
            t: {r["id"]: risk(r["risk"], self.probs, self.cost[r["id"]][t]) for r in doc["rules"]}
            for t in self.trajectories
        }
        thresholds = {r["id"]: r["risk"]["threshold"] for r in doc["rules"]}
        self.excess = {
            t: {r: max(self.risks[t][r] - thresholds[r], 0.0) for r in self.rules} for t in self.trajectories
        }

        above = {r: {r} for r in self.rules}  # above[a] = rules a is at least as high as
        for hi, lo in doc["priority"]:
            above[hi].add(lo)
        changed = True
        while changed:
            changed = False
            for a in self.rules:
                reach = set().union(*(above[b] for b in above[a]))
                if reach != above[a]:
                    above[a] = reach
                    changed = True
        self.strictly_higher = {
            (a, b) for a in self.rules for b in self.rules if b in above[a] and a not in above[b]
        }

        ts = self.trajectories
        leq = {(a, b): self.at_most_as_bad(self.excess[a], self.excess[b]) for a in ts for b in ts}
        self.verdict = {(a, b): _verdict(leq[(b, a)], leq[(a, b)]) for a in ts for b in ts}
        self.safe = [t for t in ts if all(v <= TOL for v in self.excess[t].values())]
        self.optimal = [t for t in ts if not any(self.verdict[(o, t)] == "lower" for o in ts)]

    def at_most_as_bad(self, a: dict, b: dict) -> bool:
        """Every rule where ``a`` is worse is outweighed by a strictly higher
        rule where ``a`` is better."""
        return all(
            any((o, r) in self.strictly_higher and a[o] < b[o] - TOL for o in self.rules)
            for r in self.rules
            if a[r] > b[r] + TOL
        )

    def improvements(self, winner: str, challenger: str) -> list[str]:
        """Rules on which ``challenger`` has strictly smaller excess than ``winner``."""
        return [r for r in self.rules if self.excess[challenger][r] < self.excess[winner][r] - TOL]

    def compensators(self, mine: dict, theirs: dict, rule: str) -> list[str]:
        return [o for o in self.rules if (o, rule) in self.strictly_higher and mine[o] < theirs[o] - TOL]


def _verdict(forward: bool, backward: bool) -> str:
    if forward and backward:
        return "equal"
    if forward:
        return "higher"
    if backward:
        return "lower"
    return "incomparable"


def _check_witness(exp: Expected, winner: str, challenger: str, improving: str, w: dict) -> list[str]:
    where = f"witness {winner}<-{challenger} on {improving} via {w.get('compensating_rule')}"
    problems = []
    comp = w["compensating_rule"]
    if w["improving_rule"] != improving:
        problems.append(f"{where}: improving rule is {w['improving_rule']!r}")
    if comp not in exp.cost or (improving, comp) in exp.strictly_higher:
        problems.append(f"{where}: compensating rule is unknown or strictly lower than the improving rule")
        return problems
    scenarios = w["witness_scenarios"]
    if not scenarios:
        problems.append(f"{where}: empty scenario set")
    total = 0.0
    for s in scenarios:
        i = exp.index.get(s)
        if i is None or exp.probs[i] <= 0:
            problems.append(f"{where}: scenario {s!r} has no positive probability")
            continue
        if not exp.cost[comp][challenger][i] > exp.cost[comp][winner][i] + TOL:
            problems.append(f"{where}: challenger is not costlier at {s!r}")
        total += exp.probs[i]
    if not _close(total, w["witness_probability"]):
        problems.append(f"{where}: probability {w['witness_probability']!r} is not the sum {total!r}")
    return problems


def _check_tradeoffs(exp: Expected, entries: list[dict], pairs: list[tuple[str, str]]) -> list[str]:
    """``entries`` must hold exactly one explanation, with sound witnesses, for
    every improvement a challenger shows over an optimal winner in ``pairs``."""
    problems = []
    wanted = [
        (winner, challenger, rule)
        for winner, challenger in pairs
        if winner in exp.optimal
        for rule in exp.improvements(winner, challenger)
    ]
    got = [(e["optimal_trajectory"], e["challenger"], e["improving_rule"]) for e in entries]
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        problems.append(f"tradeoffs: missing {missing[:3]}, unexpected {extra[:3]} (or out of order)")
    for e in entries:
        if not e["witnesses"]:
            problems.append(f"tradeoffs: no witness for {e['challenger']} over {e['optimal_trajectory']}")
        for w in e["witnesses"]:
            problems.extend(_check_witness(exp, e["optimal_trajectory"], e["challenger"], e["improving_rule"], w))
    return problems


def _check_numbers(what: str, got: dict, want: dict) -> list[str]:
    if list(got) != list(want):
        return [f"{what}: keys {list(got)} != {list(want)}"]
    return [f"{what}[{k}]: {got[k]!r} != {want[k]!r}" for k in want if not _close(got[k], want[k])]


def check_rank(exp: Expected, out: dict) -> list[str]:
    """A ``rank --json`` report against the oracle."""
    problems = []
    ts = exp.trajectories
    if out["rules"] != exp.rules:
        problems.append(f"rules: {out['rules']} != {exp.rules}")
    if [row["id"] for row in out["trajectories"]] != ts:
        return problems + ["trajectories: wrong ids or order"]
    for row in out["trajectories"]:
        t = row["id"]
        problems += _check_numbers(f"risks[{t}]", row["risks"], exp.risks[t])
        problems += _check_numbers(f"excesses[{t}]", row["excesses"], exp.excess[t])
        if row["safe"] != (t in exp.safe):
            problems.append(f"safe flag of {t}")
    matrix = {(a, b): out["matrix"][a][b] for a in ts for b in ts}
    if matrix != exp.verdict:
        bad = [k for k in exp.verdict if matrix.get(k) != exp.verdict[k]]
        problems.append(f"matrix differs at {bad[:3]}")
    if out["safe"] != exp.safe:
        problems.append(f"safe set {out['safe']} != {exp.safe}")
    if out["optimal"] != exp.optimal:
        problems.append(f"optimal set {out['optimal']} != {exp.optimal}")
    pairs = [(w, c) for w in ts for c in ts if c != w]
    problems += _check_tradeoffs(exp, out["explanations"], pairs)
    return problems


def check_explain(exp: Expected, first: str, second: str, out: dict) -> list[str]:
    """An ``explain --json`` report for ``(first, second)`` against the oracle."""
    problems = []
    if (out["first"], out["second"]) != (first, second):
        problems.append("explain: wrong pair")
    if out["verdict"] != exp.verdict[(first, second)]:
        problems.append(f"verdict {out['verdict']} != {exp.verdict[(first, second)]}")
    for t in (first, second):
        problems += _check_numbers(f"excesses[{t}]", out["excesses"][t], exp.excess[t])
    for key, mine, theirs in (("first_worse", first, second), ("second_worse", second, first)):
        a, b = exp.excess[mine], exp.excess[theirs]
        want = [
            (r, exp.compensators(a, b, r)) for r in exp.rules if a[r] > b[r] + TOL
        ]
        got = [(d["rule"], d["compensated_by"]) for d in out[key]]
        if got != want:
            problems.append(f"{key}: {got} != {want}")
    problems += _check_tradeoffs(exp, out["tradeoffs"], [(first, second), (second, first)])
    return problems


def check_check(out: dict) -> list[str]:
    """A ``check --json`` report: every structural check passes."""
    bad = [r["name"] for r in out["results"] if r["status"] != "ok"]
    problems = [f"check {name} did not pass" for name in bad]
    if out["ok"] is not True:
        problems.append("check report is not ok")
    return problems
