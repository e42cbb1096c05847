"""Parity of the two ways an instance gets its tables.

The parser reads each JSON table row by row into a grid of rows, which the
instance and its compiled evaluation keep by reference; the constructors,
given plain dicts keyed by pairs, walk them pair by pair.  Both must give
equal instances, identical compiled tables and byte-identical reports, and
every copy of either must equal it.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import pickle
import random
from contextlib import redirect_stdout
from pathlib import Path
from types import MappingProxyType

import pytest

import riskbook as rb
from riskbook.cli import main
from riskbook.rulebook import _Grid

from instgen import random_instance

GOLDEN_INSTANCES = sorted((Path(__file__).resolve().parent / "golden" / "instances").glob("*.json"))
BUNDLED = sorted((Path(rb.__file__).resolve().parent / "data").glob("*.json"))


def _instgen_texts(count: int = 200) -> list[str]:
    rng = random.Random(14)
    return [
        rb.serialize_instance(random_instance(rng, max_trajectories=5, max_rules=4, max_scenarios=7, max_envs=4))
        for _ in range(count)
    ]


DOCUMENTS = {
    **{f"golden/{path.stem}": path.read_text(encoding="utf-8") for path in GOLDEN_INSTANCES},
    **{f"bundled/{path.stem}": path.read_text(encoding="utf-8") for path in BUNDLED},
    **{f"instgen/{i}": text for i, text in enumerate(_instgen_texts())},
}


def from_constructors(doc: dict) -> rb.Instance:
    """The instance ``doc`` describes, built from plain dicts keyed by pairs."""
    scenarios = tuple(entry["id"] for entry in doc["scenarios"])
    rules = tuple(
        rb.Rule(
            rule["id"],
            {(t, e): float(v) for t, row in rule["violations"].items() for e, v in row.items()},
        )
        for rule in doc["rules"]
    )
    configs = {
        rule["id"]: rb.RiskConfig(
            rb.RiskMeasure(rule["risk"]["measure"], rule["risk"].get("alpha")), float(rule["risk"]["threshold"])
        )
        for rule in doc["rules"]
    }
    return rb.Instance(
        rb.FiniteProbSpace(scenarios, {entry["id"]: float(entry["prob"]) for entry in doc["scenarios"]}),
        tuple(doc["system_trajectories"]),
        tuple(doc["environment_trajectories"]),
        rb.InteractionModel({(t, w): env for t, row in doc["interaction"].items() for w, env in row.items()}),
        rb.Rulebook(rules, rb.build_preorder([rule["id"] for rule in doc["rules"]], map(tuple, doc["priority"]))),
        configs,
    )


def compiled_tables(instance: rb.Instance) -> str:
    """Every compiled table, as a repr that shows types and the sign of each zero."""
    c = instance._compiled
    return repr((c.probs, c.positive, c.ascending, c.ascending_probs, c.responses, c.rows, c.groups))


def reports(instance: rb.Instance) -> list[str]:
    out = [
        rb.reports.render_rank(rb.run_rank(instance), as_json=True),
        rb.reports.render_rank(rb.run_rank(instance)),
        rb.reports.render_check(rb.run_check(instance), as_json=True),
    ]
    for a in instance.trajectories:
        for b in instance.trajectories:
            if a != b:
                out.append(rb.reports.render_explanation(rb.run_explain(instance, a, b), as_json=True))
    return out


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_row_built_and_mapping_built_instances_agree(name):
    text = DOCUMENTS[name]
    parsed, built = rb.parse_instance(text), from_constructors(json.loads(text))
    assert all(isinstance(rule.violations, _Grid) for rule in parsed.rulebook.rules)
    assert isinstance(parsed.interaction.responses, _Grid)
    assert all(isinstance(rule.violations, MappingProxyType) for rule in built.rulebook.rules)
    assert isinstance(built.interaction.responses, MappingProxyType)

    assert parsed == built and built == parsed
    assert compiled_tables(parsed) == compiled_tables(built)
    assert reports(parsed) == reports(built)

    for instance in (parsed, built):
        copies = (
            pickle.loads(pickle.dumps(instance)),
            copy.deepcopy(instance),
            dataclasses.replace(instance),
            rb.parse_instance(rb.serialize_instance(instance)),
        )
        for again in copies:
            assert again == instance and again == parsed
        rule, key = instance.rulebook.rules[0], next(iter(instance.rulebook.rules[0].violations))
        with pytest.raises(TypeError):
            rule.violations[key] = 0.0
        key = next(iter(instance.interaction.responses))
        with pytest.raises(TypeError):
            instance.interaction.responses[key] = instance.env_trajectories[0]


def test_grid_is_a_read_only_mapping():
    grid = rb.bundled_instance().rulebook.rules[0].violations
    assert list(grid)[:3] == [("tau1", "xi1"), ("tau1", "xi2"), ("tau2", "xi1")]
    assert len(grid) == 8 and grid[("tau1", "xi2")] == 225.0
    for key in (("tau9", "xi1"), ("tau1", "xi9"), "tau1", ("tau1",), ("tau1", "xi1", "x")):
        assert key not in grid
        with pytest.raises(KeyError):
            grid[key]
    assert grid == dict(grid) and dict(grid) == grid and grid != {**dict(grid), ("tau1", "xi1"): 1.0}
    with pytest.raises(TypeError):
        hash(grid)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.rows = ()


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_parse_rank_and_overrides_read_no_cell_by_pair(monkeypatch, tmp_path):
    path = tmp_path / "av.json"
    path.write_text(rb.bundled_instance_text(), encoding="utf-8")
    commands = (
        ["rank", str(path), "--json"],
        ["rank", str(path), "--rule", "r1", "--measure", "cvar", "--alpha", "0.9988", "--threshold", "175"],
        ["check", str(path)],
    )
    expected = [_cli(argv) for argv in commands]

    def unread(*args):
        raise AssertionError("a grid was read pair by pair")

    monkeypatch.setattr(_Grid, "__getitem__", unread)
    monkeypatch.setattr(_Grid, "__iter__", unread)
    assert [_cli(argv) for argv in commands] == expected


def test_rules_check_grid_values_like_mappings():
    grid = _Grid(("t",), ("e", "f"), ((1.0, float("nan")),))
    with pytest.raises(rb.ValidationError, match=r"rule 'x' has violation nan at \('t', 'f'\)"):
        rb.Rule("x", grid)
    huge = _Grid(("t",), ("e", "f"), ((1e308, 1e308),))  # the sum overflows; every value is valid
    assert rb.Rule("x", huge).violations is huge
