"""Byte-identity of the CLI reports against recorded golden files.

``tests/golden/`` holds the ``rank``, ``risk``, ``explain`` and ``check``
output, as text and as ``--json``, for the bundled instance (as shipped,
and with the worst-case override on ``r1``), for seeded ``instgen``
instances that mix
all four measures, CVaR included, with strict, equal and incomparable rule
priorities, and for ``signed_zero``, a fixed instance whose worst-case, VaR
and CVaR rules see ``0.0`` and ``-0.0`` violations, near-ties within 1e-9
and tied probabilities, so that the sign of each reported zero and the order
of each summed probability show, and for ``intransitive``, three trajectories
whose expected violations 0, 6e-10 and 1.2e-9 are each within tolerance of
the next, so that ``check`` fails (exit 1) and names the broken triple, and
for ``escaped_ids``, whose rule, trajectory, environment and scenario ids
hold ``"``, ``\\``, ``/``, control characters and non-ASCII text (an astral
character included), and where one compensating rule's scenario list backs
the witnesses of several improving rules.  Any change of a report byte
fails here.  Each case is also rendered three times
over through the library from one loaded instance, so that the reports of
an instance evaluated before, which read the cost distributions it keeps,
are held to the same files.

The package adds floats left to right on every interpreter, so one set of
files holds for every supported Python.  After an intended change of
output, re-record it once, on any interpreter, with

    PYTHONPATH=src python tests/test_golden.py

Recording re-renders the reports from the committed instance files and
never rewrites one; it draws an ``instgen`` instance only for a seed that
has no file yet.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import riskbook as rb
from riskbook import reports
from riskbook.cli import _parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = GOLDEN / "instances"
BUNDLED = Path(rb.__file__).resolve().parent / "data" / "av_pedestrian.json"

# Seeds of ``instgen.random_instance`` chosen for CVaR rules, mixed priority
# relations, zero-probability scenarios, and from none to 91 witnesses per rank.
INSTGEN_SEEDS = (27, 98, 112, 145, 376, 567)
INSTGEN_SIZES = dict(max_trajectories=6, max_rules=5, max_scenarios=8, max_envs=3)

CASES = {
    "av_pedestrian": (BUNDLED, []),
    "av_pedestrian_worst_case": (BUNDLED, ["--rule", "r1", "--measure", "worst_case", "--threshold", "175"]),
    **{f"instgen_{seed}": (INSTANCES / f"instgen_{seed}.json", []) for seed in INSTGEN_SEEDS},
    "signed_zero": (INSTANCES / "signed_zero.json", []),
    "intransitive": (INSTANCES / "intransitive.json", []),
    "escaped_ids": (INSTANCES / "escaped_ids.json", []),
}
# Cases whose ``check`` fails, so that it exits 1.
FAILED_CHECKS = ("intransitive",)
COMMANDS = ("rank", "risk", "explain", "check")
FORMATS = {"txt": [], "json": ["--json"]}


def _cli(argv: list[str], expected_code: int = 0) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == expected_code, f"riskbook {' '.join(argv)} exited {code}"
    return out.getvalue()


def render(case: str, command: str, fmt: str) -> str:
    """The output one golden file records.  ``risk`` tables the instance's
    first declared rule.  ``explain`` covers every pair of trajectories once,
    in declaration order, each after a ``$ explain A B`` line; one call
    explains the tradeoffs in both directions."""
    path, overrides = CASES[case]
    if command == "risk":
        overrides = ["--rule", rb.load_instance(path).rulebook.rule_ids[0]] + overrides
    tail = [str(path)] + overrides + FORMATS[fmt]
    if command != "explain":
        return _cli([command] + tail, 1 if command == "check" and case in FAILED_CHECKS else 0)
    trajectories = rb.load_instance(path).trajectories
    return "".join(
        f"$ explain {a} {b}\n" + _cli(["explain"] + tail + [a, b])
        for i, a in enumerate(trajectories)
        for b in trajectories[i + 1 :]
    )


def golden_path(case: str, command: str, fmt: str) -> Path:
    return GOLDEN / case / f"{command}.{fmt}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, command, fmt):
    expected = golden_path(case, command, fmt).read_text(encoding="utf-8")
    assert render(case, command, fmt) == expected


def render_from(instance: rb.Instance, command: str, fmt: str) -> str:
    """What :func:`render` gives, rendered through the library from one
    already loaded instance instead of a fresh one per CLI call."""
    as_json = fmt == "json"
    if command == "rank":
        return reports.render_rank(reports.run_rank(instance), as_json=as_json)
    if command == "risk":
        return reports.render_risk_table(reports.run_risk_table(instance, instance.rulebook.rule_ids[0]), as_json=as_json)
    if command == "check":
        return reports.render_check(reports.run_check(instance), as_json=as_json)
    trajectories = instance.trajectories
    return "".join(
        f"$ explain {a} {b}\n" + reports.render_explanation(reports.run_explain(instance, a, b), as_json=as_json)
        for i, a in enumerate(trajectories)
        for b in trajectories[i + 1 :]
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_from_one_reused_instance_match_golden(case):
    """Every report of a case, rendered three times over from one instance,
    so that all but the first evaluation read the cost distributions the
    instance keeps once it is evaluated again."""
    path, overrides = CASES[case]
    instance = rb.load_instance(path)
    for rule_id, changes in (_parser().parse_args(["rank", str(path)] + overrides).scopes or {}).items():
        instance = rb.with_risk_config(instance, rule_id, **changes)
    for _ in range(3):
        for command in COMMANDS:
            for fmt in FORMATS:
                expected = golden_path(case, command, fmt).read_text(encoding="utf-8")
                assert render_from(instance, command, fmt) == expected, (command, fmt)


def record() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from instgen import random_instance

    INSTANCES.mkdir(parents=True, exist_ok=True)
    for seed in INSTGEN_SEEDS:
        path = INSTANCES / f"instgen_{seed}.json"
        if not path.exists():
            instance = random_instance(random.Random(seed), **INSTGEN_SIZES)
            path.write_text(rb.serialize_instance(instance), encoding="utf-8")
    for case in CASES:
        for command in COMMANDS:
            for fmt in FORMATS:
                path = golden_path(case, command, fmt)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(render(case, command, fmt), encoding="utf-8")


if __name__ == "__main__":
    record()
