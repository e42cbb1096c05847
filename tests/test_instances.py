import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbook as rb
from riskbook import (
    bundled_instance,
    bundled_instance_text,
    instance_from_dict,
    parse_instance,
    serialize_instance,
    with_risk_config,
)

from riskbook.instances import _expect_number, _expect_object, _expect_str
from riskbook.rulebook import _Grid

from instgen import ALL_KINDS, ALPHAS, THRESHOLDS, random_instance


def doc():
    """A fresh, editable copy of the bundled document."""
    return json.loads(bundled_instance_text())


class TestParse:
    def test_bundled_corpus_shape(self):
        inst = bundled_instance()
        assert len(inst.space.scenarios) == 4
        assert len(inst.trajectories) == 4
        assert len(inst.env_trajectories) == 2
        assert len(inst.rulebook.rules) == 4
        assert inst.risk_configs["r1"].measure.kind == "var"

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(rb.ParseError, match="line 1"):
            parse_instance("{not json")

    def test_probability_sum_error_names_the_sum(self):
        bad = doc()
        bad["scenarios"] = [{"id": "a", "prob": 0.5}, {"id": "b", "prob": 0.6}]
        bad["interaction"] = {
            t: {"a": "xi1", "b": "xi1"} for t in bad["system_trajectories"]
        }
        with pytest.raises(rb.ValidationError, match="sum to 1.1"):
            instance_from_dict(bad)

    def test_missing_interaction_cell_is_named(self):
        bad = doc()
        del bad["interaction"]["tau2"]["w3"]
        with pytest.raises(rb.ValidationError, match=r"\('tau2', 'w3'\)"):
            instance_from_dict(bad)

    def test_missing_violation_cell_is_named(self):
        bad = doc()
        del bad["rules"][0]["violations"]["tau1"]["xi2"]
        with pytest.raises(rb.ValidationError, match=r"r1.*\('tau1', 'xi2'\)"):
            instance_from_dict(bad)

    def test_negative_violation(self):
        bad = doc()
        bad["rules"][0]["violations"]["tau1"]["xi2"] = -5
        with pytest.raises(rb.ValidationError, match="nonnegative"):
            instance_from_dict(bad)

    def test_unknown_id_in_interaction(self):
        bad = doc()
        bad["interaction"]["tau1"]["w1"] = "xi9"
        with pytest.raises(rb.ValidationError, match="xi9"):
            instance_from_dict(bad)

    def test_unknown_rule_in_priority(self):
        bad = doc()
        bad["priority"].append(["r1", "r9"])
        with pytest.raises(rb.ValidationError, match="r9"):
            instance_from_dict(bad)

    def test_alpha_out_of_range(self):
        bad = doc()
        bad["rules"][0]["risk"]["alpha"] = 1.5
        with pytest.raises(rb.ValidationError, match="alpha"):
            instance_from_dict(bad)

    def test_alpha_required_for_quantile_measures(self):
        bad = doc()
        del bad["rules"][0]["risk"]["alpha"]
        with pytest.raises(rb.ValidationError, match="alpha"):
            instance_from_dict(bad)

    def test_alpha_rejected_for_expected(self):
        bad = doc()
        bad["rules"][1]["risk"]["alpha"] = 0.5
        with pytest.raises(rb.ValidationError, match="alpha"):
            instance_from_dict(bad)

    def test_unknown_measure_kind(self):
        bad = doc()
        bad["rules"][0]["risk"]["measure"] = "entropic"
        with pytest.raises(rb.ValidationError, match="entropic"):
            instance_from_dict(bad)

    def test_missing_top_level_key(self):
        bad = doc()
        del bad["priority"]
        with pytest.raises(rb.ValidationError, match="priority"):
            instance_from_dict(bad)

    def test_unexpected_top_level_key(self):
        bad = doc()
        bad["comment"] = "hello"
        with pytest.raises(rb.ValidationError, match="comment"):
            instance_from_dict(bad)

    def test_boolean_is_not_a_number(self):
        bad = doc()
        bad["scenarios"][0]["prob"] = True
        with pytest.raises(rb.ValidationError, match="number"):
            instance_from_dict(bad)

    def test_negative_threshold(self):
        bad = doc()
        bad["rules"][0]["risk"]["threshold"] = -1
        with pytest.raises(rb.ValidationError, match="nonnegative"):
            instance_from_dict(bad)

    def test_duplicate_scenario_id(self):
        bad = doc()
        bad["scenarios"][1]["id"] = "w1"
        with pytest.raises(rb.ValidationError, match="more than once"):
            instance_from_dict(bad)

    @pytest.mark.parametrize("response", [["xi1"], 1, None])
    def test_response_that_is_not_a_string_is_undeclared(self, av, response):
        responses = dict(av.interaction.responses)
        responses[("tau2", "w3")] = response
        with pytest.raises(rb.ValidationError) as excinfo:
            dataclasses.replace(av, interaction=rb.InteractionModel(responses))
        assert str(excinfo.value) == f"interaction maps ('tau2', 'w3') to undeclared environment trajectory {response!r}"

    def test_key_that_is_not_a_pair_is_undeclared(self, av):
        violations = dict(av.rulebook.rules[0].violations)
        violations[5] = 1.0
        rules = (rb.Rule("r1", violations),) + av.rulebook.rules[1:]
        with pytest.raises(rb.ValidationError, match="rule 'r1' has an entry for undeclared pair 5$"):
            dataclasses.replace(av, rulebook=rb.Rulebook(rules, av.rulebook.priority))


def _with(path, value=None, raw=None):
    """Bundled document text with ``doc[path[0]]...[path[-1]]`` set to
    ``value``, or to the literal JSON text ``raw``, or deleted when both are
    None."""
    d = doc()
    target = d
    for key in path[:-1]:
        target = target[key]
    if value is None and raw is None:
        del target[path[-1]]
        return json.dumps(d)
    target[path[-1]] = "@raw@" if raw is not None else value
    return json.dumps(d).replace('"@raw@"', raw) if raw is not None else json.dumps(d)


_ROW = ["interaction", "tau2"]
_VIOLATIONS = ["rules", 1, "violations", "tau3"]
_VIOLATION = "rules[1]: rule 'r2' has violation {} at ('tau3', 'xi2'); violations must be finite and nonnegative"

# One defect at a table row per case, and its message byte for byte.  A
# table that fails the row-by-row read is walked in document order, so a
# type error names its cell's JSON path and a shape defect goes to the
# constructor, which names the missing or undeclared pair.
ROW_DEFECTS = {
    "interaction missing cell": (
        _with(_ROW + ["w3"]),
        "document: interaction is missing an entry for ('tau2', 'w3')",
    ),
    "interaction undeclared key": (
        _with(_ROW + ["w9"], "xi1"),
        "document: interaction has an entry for undeclared pair ('tau2', 'w9')",
    ),
    "interaction row not an object": (_with(_ROW, ["xi1"]), "interaction.tau2: expected an object, got list"),
    "interaction missing row": (_with(_ROW), "document: interaction is missing an entry for ('tau2', 'w1')"),
    "interaction undeclared row": (
        _with(["interaction", "tau9"], {"w1": "xi1", "w2": "xi1", "w3": "xi1", "w4": "xi1"}),
        "document: interaction has an entry for undeclared pair ('tau9', 'w1')",
    ),
    "interaction number cell": (_with(_ROW + ["w3"], 3), "interaction.tau2.w3: expected a string, got int"),
    "interaction null cell": (_with(_ROW + ["w3"], raw="null"), "interaction.tau2.w3: expected a string, got NoneType"),
    "interaction true cell": (_with(_ROW + ["w3"], True), "interaction.tau2.w3: expected a string, got bool"),
    "interaction undeclared environment": (
        _with(_ROW + ["w3"], "xi9"),
        "document: interaction maps ('tau2', 'w3') to undeclared environment trajectory 'xi9'",
    ),
    "violations missing cell": (
        _with(_VIOLATIONS + ["xi2"]),
        "document: rule 'r2' is missing an entry for ('tau3', 'xi2')",
    ),
    "violations undeclared key": (
        _with(_VIOLATIONS + ["xi9"], 0),
        "document: rule 'r2' has an entry for undeclared pair ('tau3', 'xi9')",
    ),
    "violations row not an object": (_with(_VIOLATIONS, 5), "rules[1].violations.tau3: expected an object, got int"),
    "violations missing row": (_with(_VIOLATIONS), "document: rule 'r2' is missing an entry for ('tau3', 'xi1')"),
    "violations undeclared row": (
        _with(["rules", 1, "violations", "tau9"], {"xi1": 0, "xi2": 0}),
        "document: rule 'r2' has an entry for undeclared pair ('tau9', 'xi1')",
    ),
    "violations string cell": (
        _with(_VIOLATIONS + ["xi2"], "0"),
        "rules[1].violations.tau3.xi2: expected a number, got str",
    ),
    "violations null cell": (
        _with(_VIOLATIONS + ["xi2"], raw="null"),
        "rules[1].violations.tau3.xi2: expected a number, got NoneType",
    ),
    "violations true cell": (
        _with(_VIOLATIONS + ["xi2"], True),
        "rules[1].violations.tau3.xi2: expected a number, got bool",
    ),
    "violations int beyond float range": (
        _with(_VIOLATIONS + ["xi2"], raw="1" + "0" * 400),
        "rules[1].violations.tau3.xi2: number is too large for a float",
    ),
    "violations NaN": (_with(_VIOLATIONS + ["xi2"], raw="NaN"), _VIOLATION.format("nan")),
    "violations Infinity": (_with(_VIOLATIONS + ["xi2"], raw="Infinity"), _VIOLATION.format("inf")),
    "violations -Infinity": (_with(_VIOLATIONS + ["xi2"], raw="-Infinity"), _VIOLATION.format("-inf")),
    "violations 1e400": (_with(_VIOLATIONS + ["xi2"], raw="1e400"), _VIOLATION.format("inf")),
    "violations negative": (_with(_VIOLATIONS + ["xi2"], -5), _VIOLATION.format("-5.0")),
}


@pytest.mark.parametrize("case", list(ROW_DEFECTS))
def test_row_defect_message(case):
    text, message = ROW_DEFECTS[case]
    with pytest.raises(rb.ValidationError) as excinfo:
        parse_instance(text)
    assert str(excinfo.value) == message


def _two_defects():
    """Bundled document text with a string probability in the second scenario
    and a list for the fourth, so only the first may be named."""
    d = doc()
    d["scenarios"][1]["prob"] = "0.001"
    d["scenarios"][3] = ["w4", 0.01]
    return json.dumps(d)


_PROBABILITY = "scenarios: probability of 'w1' is {}; probabilities must be finite and nonnegative"

# One defect past the first entry of a list of scenarios or ids, and its
# message byte for byte.  Each list is walked once and formats a path only
# for the entry that fails a type test, so that path must name the right
# index.
ENTRY_DEFECTS = {
    "scenario not an object": (_with(["scenarios", 2], ["w3", 0.009]), "scenarios[2]: expected an object, got list"),
    "scenario number id": (_with(["scenarios", 1, "id"], 2), "scenarios[1].id: expected a string, got int"),
    "scenario missing id": (_with(["scenarios", 3, "id"]), "scenarios[3].id: expected a string, got NoneType"),
    "scenario true prob": (_with(["scenarios", 3, "prob"], True), "scenarios[3].prob: expected a number, got bool"),
    "scenario missing prob": (_with(["scenarios", 2, "prob"]), "scenarios[2].prob: expected a number, got NoneType"),
    "scenario int prob beyond float range": (
        _with(["scenarios", 1, "prob"], raw="1" + "0" * 400),
        "scenarios[1].prob: number is too large for a float",
    ),
    "first of two defects": (_two_defects(), "scenarios[1].prob: expected a number, got str"),
    "system trajectory null id": (
        _with(["system_trajectories", 3], raw="null"),
        "system_trajectories[3]: expected a string, got NoneType",
    ),
    "environment trajectory number id": (
        _with(["environment_trajectories", 1], 7),
        "environment_trajectories[1]: expected a string, got int",
    ),
    "probability NaN": (_with(["scenarios", 0, "prob"], raw="NaN"), _PROBABILITY.format("nan")),
    "probability Infinity": (_with(["scenarios", 0, "prob"], raw="Infinity"), _PROBABILITY.format("inf")),
    "probability -Infinity": (_with(["scenarios", 0, "prob"], raw="-Infinity"), _PROBABILITY.format("-inf")),
    "probability negative": (_with(["scenarios", 0, "prob"], -0.5), _PROBABILITY.format("-0.5")),
}


@pytest.mark.parametrize("case", list(ENTRY_DEFECTS))
def test_entry_defect_message(case):
    text, message = ENTRY_DEFECTS[case]
    with pytest.raises(rb.ValidationError) as excinfo:
        parse_instance(text)
    assert str(excinfo.value) == message


def _eager_walk(d):
    """The message for the first defect in ``d``'s ``scenarios`` and
    trajectory-id lists, or None: a reference reader that checks every
    entry at its formatted JSON path, in the order the parser reads them."""
    try:
        for i, entry in enumerate(d["scenarios"]):
            entry = _expect_object(entry, f"scenarios[{i}]")
            _expect_str(entry.get("id"), f"scenarios[{i}].id")
            _expect_number(entry.get("prob"), f"scenarios[{i}].prob")
        for key in ("system_trajectories", "environment_trajectories"):
            for i, x in enumerate(d[key]):
                _expect_str(x, f"{key}[{i}]")
    except rb.ValidationError as exc:
        return str(exc)
    return None


_MISSING = object()
# Defects of one scenario entry: a non-object in its place, or a dict of
# bad field values, so that one entry may hold two defects.
_SCENARIO_DEFECTS = st.one_of(
    st.sampled_from([["w1", 0.5], "w1", None, 0.5, True]),
    st.fixed_dictionaries(
        {},
        optional={
            "id": st.sampled_from([_MISSING, None, 7, 0.5, True, ["w1"]]),
            "prob": st.sampled_from([_MISSING, None, True, False, "0.25", 10**400]),
        },
    ).filter(bool),
)
_ID_DEFECTS = st.sampled_from([None, 7, 0.5, True, ["tau1"], {"id": "tau1"}])


@settings(max_examples=300)
@given(st.data())
def test_walk_names_the_first_defect_like_an_eager_walk(data):
    d = doc()
    for _ in range(data.draw(st.integers(1, 2), label="defects")):
        key = data.draw(st.sampled_from(["scenarios", "system_trajectories", "environment_trajectories"]))
        entries = d[key]
        i = data.draw(st.integers(0, len(entries) - 1), label=f"{key} index")
        if key != "scenarios":
            entries[i] = data.draw(_ID_DEFECTS, label="id")
            continue
        defect = data.draw(_SCENARIO_DEFECTS, label="scenario defect")
        if type(defect) is not dict:
            entries[i] = defect
        elif type(entries[i]) is dict:  # an entry already replaced keeps that defect
            for field, value in defect.items():
                if value is _MISSING:
                    entries[i].pop(field, None)
                else:
                    entries[i][field] = value
    expected = _eager_walk(d)
    assert expected is not None
    with pytest.raises(rb.ValidationError) as excinfo:
        parse_instance(json.dumps(d))
    assert str(excinfo.value) == expected


def test_integer_probabilities_read_as_floats():
    d = doc()
    d["scenarios"] = [{"id": "w1", "prob": 1}] + [{"id": w, "prob": 0} for w in ("w2", "w3", "w4")]
    probs = instance_from_dict(d).space.probs
    assert list(probs.values()) == [1.0, 0.0, 0.0, 0.0]
    assert all(type(p) is float for p in probs.values())


def _edit(path, value):
    """An edit that sets ``doc[path[0]]...[path[-1]] = value``."""

    def apply(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return apply


def _append(key, make):
    return lambda d: d[key].append(make(d))


# Each edit breaks one invariant the document's shape cannot show; the error
# must name the offending identifier.
INVARIANT_BREAKS = {
    "unknown trajectory in interaction": (_edit(["interaction", "tau9"], {"w1": "xi1"}), "tau9"),
    "unknown scenario in interaction": (_edit(["interaction", "tau1", "w9"], "xi1"), "w9"),
    "unknown trajectory in violations": (_edit(["rules", 0, "violations", "tau9"], {"xi1": 0}), "tau9"),
    "unknown environment in violations": (_edit(["rules", 0, "violations", "tau1", "xi9"], 0), "xi9"),
    "duplicate trajectory": (_append("system_trajectories", lambda d: "tau2"), "tau2"),
    "duplicate environment": (_append("environment_trajectories", lambda d: "xi2"), "xi2"),
    "duplicate rule": (_append("rules", lambda d: copy.deepcopy(d["rules"][2])), "r3"),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_BREAKS))
def test_invariant_break_names_the_identifier(case):
    edit, name = INVARIANT_BREAKS[case]
    bad = doc()
    edit(bad)
    with pytest.raises(rb.ValidationError, match=name):
        instance_from_dict(bad)


def _delete(path):
    """An edit that deletes ``doc[path[0]]...[path[-1]]``."""

    def apply(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]

    return apply


def _reverse_rows(path):
    """An edit that reverses the document order of the table rows at ``path``."""

    def apply(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = dict(reversed(d[path[-1]].items()))

    return apply


_R2 = ["rules", 1, "violations"]

# Several defects per case, and the message naming the one the parse meets
# first: tables and risk blocks in document order, the constructor's checks
# when the object is built.  Values in a table read as a grid (right shape,
# right types) are checked in declaration order, whatever the rows' order in
# the document; type errors in a walked table are met in document order.
MULTI_DEFECTS = {
    "undeclared response, negative violation, negative threshold": (
        [
            _edit(["interaction", "tau2", "w3"], "xi9"),
            _edit(_R2 + ["tau3", "xi2"], -5),
            _edit(["rules", 0, "risk", "threshold"], -1),
        ],
        "rules[0].risk: threshold must be finite and nonnegative, got -1.0",
    ),
    "missing interaction cell, bad alpha": (
        [_delete(["interaction", "tau2", "w3"]), _edit(["rules", 0, "risk", "alpha"], 1.5)],
        "rules[0].risk: alpha must lie in [0, 1], got 1.5",
    ),
    "negative r1 cell, string r2 cell": (
        [_edit(["rules", 0, "violations", "tau1", "xi2"], -1), _edit(_R2 + ["tau3", "xi2"], "0")],
        "rules[0]: rule 'r1' has violation -1.0 at ('tau1', 'xi2'); violations must be finite and nonnegative",
    ),
    "r2 rows reversed, two negative violations": (
        [_reverse_rows(_R2), _edit(_R2 + ["tau1", "xi1"], -1), _edit(_R2 + ["tau3", "xi2"], -2)],
        "rules[1]: rule 'r2' has violation -1.0 at ('tau1', 'xi1'); violations must be finite and nonnegative",
    ),
    "interaction rows reversed, two undeclared responses": (
        [
            _reverse_rows(["interaction"]),
            _edit(["interaction", "tau1", "w1"], "xi8"),
            _edit(["interaction", "tau3", "w2"], "xi9"),
        ],
        "document: interaction maps ('tau1', 'w1') to undeclared environment trajectory 'xi8'",
    ),
    "r2 rows reversed, two string cells": (
        [_reverse_rows(_R2), _edit(_R2 + ["tau1", "xi1"], "a"), _edit(_R2 + ["tau3", "xi2"], "b")],
        "rules[1].violations.tau3.xi2: expected a number, got str",
    ),
}


@pytest.mark.parametrize("case", list(MULTI_DEFECTS))
def test_first_of_several_defects_is_named(case):
    edits, message = MULTI_DEFECTS[case]
    bad = doc()
    for edit in edits:
        edit(bad)
    with pytest.raises(rb.ValidationError) as excinfo:
        parse_instance(json.dumps(bad))
    assert str(excinfo.value) == message


READ_ONCE = {
    **{f"row defect: {case}": text for case, (text, _) in ROW_DEFECTS.items()},
    "alpha out of range": _with(["rules", 0, "risk", "alpha"], 1.5),
    "negative threshold": _with(["rules", 0, "risk", "threshold"], -1),
}


@pytest.mark.parametrize("case", list(READ_ONCE))
def test_invalid_document_is_read_once(case, monkeypatch):
    spaces = []

    def counted(*args):
        spaces.append(args)
        return rb.FiniteProbSpace(*args)

    monkeypatch.setattr("riskbook.instances.FiniteProbSpace", counted)
    with pytest.raises(rb.ValidationError):
        parse_instance(READ_ONCE[case])
    assert len(spaces) == 1


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        inst = bundled_instance()
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_serialization_is_deterministic(self):
        inst = bundled_instance()
        assert serialize_instance(inst) == serialize_instance(parse_instance(serialize_instance(inst)))

    def test_custom_measure_cannot_be_serialized(self, av):
        configs = dict(av.risk_configs)
        configs["r2"] = rb.RiskConfig(rb.RiskMeasure.custom(lambda sp, f: 0.0), 0.0)
        with pytest.raises(rb.ValidationError, match="rule 'r2' uses a custom measure"):
            rb.instance_to_dict(dataclasses.replace(av, risk_configs=configs))

    def test_round_trip_survives_overrides(self):
        inst = with_risk_config(bundled_instance(), "r1", measure="cvar", alpha=0.9988, threshold=175.0)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert again.risk_configs["r1"].measure.alpha == 0.9988


# Each validated object, built from a caller's dict, and the table it keeps.
STORED_TABLES = {
    "Rule": (
        lambda av: av.rulebook.rules[0].violations,
        lambda av, d: rb.Rule("r1", d).violations,
    ),
    "FiniteProbSpace": (
        lambda av: av.space.probs,
        lambda av, d: rb.FiniteProbSpace(tuple(d), d).probs,
    ),
    "InteractionModel": (
        lambda av: av.interaction.responses,
        lambda av, d: rb.InteractionModel(d).responses,
    ),
    "Instance.risk_configs": (
        lambda av: av.risk_configs,
        lambda av, d: dataclasses.replace(av, risk_configs=d).risk_configs,
    ),
    "RandomCost": (
        lambda av: rb.induced_random_cost(av, "r1", "tau1").values,
        lambda av, d: rb.RandomCost(d).values,
    ),
}


class TestImmutability:
    @pytest.mark.parametrize("owner", sorted(STORED_TABLES))
    def test_caller_dict_mutation_does_not_reach_the_object(self, av, owner):
        source, build = STORED_TABLES[owner]
        caller = dict(source(av))
        stored = build(av, caller)
        before = dict(stored)
        first, last = list(caller)[0], list(caller)[-1]
        caller[first] = caller.pop(last)
        caller["undeclared"] = None
        assert stored == before

    @pytest.mark.parametrize("owner", sorted(STORED_TABLES))
    def test_stored_table_rejects_item_assignment(self, av, owner):
        source, build = STORED_TABLES[owner]
        stored = build(av, dict(source(av)))
        key = next(iter(stored))
        with pytest.raises(TypeError):
            stored[key] = stored[key]

    def test_validated_rule_cannot_gain_a_negative_violation(self):
        table = {("t", "e"): 1.0}
        rule = rb.Rule("x", table)
        table[("t", "e")] = -3.0
        assert rule.violations[("t", "e")] == 1.0

    def test_validated_cost_cannot_gain_a_negative_value(self):
        values = {"a": 1.0}
        cost = rb.RandomCost(values)
        values["a"] = -3.0
        assert rb.expectation(rb.FiniteProbSpace(("a",), {"a": 1.0}), cost) == 1.0


class TestPickling:
    """Validated objects pickle and deep-copy by rebuilding through their
    constructors, so what is unpickled is validated again."""

    OBJECTS = {
        "Instance": lambda av: av,
        "FiniteProbSpace": lambda av: av.space,
        "InteractionModel": lambda av: av.interaction,
        "Rule": lambda av: av.rulebook.rules[0],
        "Rulebook": lambda av: av.rulebook,
        "Preorder": lambda av: av.rulebook.priority,
        "RandomCost": lambda av: rb.induced_random_cost(av, "r1", "tau1"),
    }

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_round_trip(self, av, name):
        rb.run_rank(av)  # fills the cached views a pickle must not carry
        original = self.OBJECTS[name](av)
        for again in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert type(again) is type(original)
            assert again == original

    def test_rank_of_an_unpickled_instance_is_byte_identical(self, av):
        expected = rb.reports.render_rank(rb.run_rank(av), as_json=True)
        again = pickle.loads(pickle.dumps(av))
        assert "_compiled" not in vars(again)
        assert rb.reports.render_rank(rb.run_rank(again), as_json=True) == expected
        assert again._compiled is not av._compiled

    def test_compiled_tables_stay_out_of_copies_fields_and_equality(self, av, monkeypatch):
        rb.run_rank(av)
        assert "_compiled" in vars(av)
        validations = []
        validate = rb.Instance.__post_init__
        monkeypatch.setattr(rb.Instance, "__post_init__", lambda inst: validations.append(validate(inst)))
        for again in (pickle.loads(pickle.dumps(av)), copy.deepcopy(av)):
            assert "_compiled" not in vars(again)
            assert again == av
        assert len(validations) == 2
        assert [f.name for f in dataclasses.fields(rb.Instance)] == [
            "space",
            "trajectories",
            "env_trajectories",
            "interaction",
            "rulebook",
            "risk_configs",
        ]
        assert av == bundled_instance() and "_compiled" not in vars(dataclasses.replace(av))

    def test_unpickling_goes_through_validation(self, av):
        make, (rule_id, table) = av.rulebook.rules[0].__reduce__()
        assert make is rb.Rule
        # A parsed table pickles as its rows, through the grid's constructor.
        make_table, (row_ids, column_ids, rows) = table.__reduce__()
        assert make_table is _Grid
        rows = ((-3.0,) + rows[0][1:],) + rows[1:]
        with pytest.raises(rb.ValidationError, match="nonnegative"):
            make(rule_id, make_table(row_ids, column_ids, rows))
        with pytest.raises(rb.ValidationError, match="grid rows do not match"):
            make_table(row_ids, column_ids, rows[1:])


class TestOverrides:
    def test_measure_change_keeps_alpha_when_still_needed(self, av):
        inst = with_risk_config(av, "r1", measure="cvar")
        assert inst.risk_configs["r1"].measure.kind == "cvar"
        assert inst.risk_configs["r1"].measure.alpha == 0.9

    def test_measure_change_drops_alpha_when_not_needed(self, av):
        inst = with_risk_config(av, "r1", measure="expected")
        assert inst.risk_configs["r1"].measure.alpha is None

    def test_threshold_only(self, av):
        inst = with_risk_config(av, "r2", threshold=1.0)
        assert inst.risk_configs["r2"].threshold == 1.0
        assert inst.risk_configs["r2"].measure == av.risk_configs["r2"].measure

    def test_alpha_requires_a_quantile_measure(self, av):
        with pytest.raises(rb.ValidationError):
            with_risk_config(av, "r2", alpha=0.5)

    def test_quantile_measure_requires_some_alpha(self, av):
        with pytest.raises(rb.ValidationError):
            with_risk_config(av, "r2", measure="var")

    def test_original_instance_is_untouched(self, av):
        with_risk_config(av, "r1", measure="worst_case", threshold=175.0)
        assert av.risk_configs["r1"].measure.kind == "var"
        assert av.risk_configs["r1"].threshold == 0.0

    def test_shared_tables_match_a_freshly_parsed_override(self):
        rng = random.Random(8)
        for _ in range(50):
            instance = random_instance(rng)
            r = rng.randrange(len(instance.rulebook.rule_ids))
            rule_id = instance.rulebook.rule_ids[r]
            risk = {"measure": rng.choice(ALL_KINDS)}
            if risk["measure"] in ("var", "cvar"):
                risk["alpha"] = rng.choice(ALPHAS)
            risk["threshold"] = rng.choice(THRESHOLDS)
            rb.run_rank(instance)  # compiles the original's tables first
            shared = with_risk_config(instance, rule_id, **risk)
            document = rb.instance_to_dict(instance)
            document["rules"][r]["risk"] = risk
            fresh = parse_instance(json.dumps(document))
            assert shared == fresh
            expected, actual = rb.run_rank(fresh), rb.run_rank(shared)
            assert actual.assessments == expected.assessments
            assert (actual.safe, actual.optimal) == (expected.safe, expected.optimal)

    def test_unknown_rule(self, av):
        with pytest.raises(rb.UnknownRule):
            with_risk_config(av, "r9", threshold=1.0)

    def test_reconfigured_copy_checks_its_tables_like_a_new_instance(self, av, monkeypatch):
        tables = []
        require_grid = rb.riskaware._require_grid

        def recording(table, *args):
            tables.append(table)
            return require_grid(table, *args)

        monkeypatch.setattr(rb.riskaware, "_require_grid", recording)
        with_risk_config(av, "r1", measure="cvar")
        # The interaction and every violation table, each the parsed grid,
        # so each check compares id tuples.
        expected = [av.interaction.responses] + [rule.violations for rule in av.rulebook.rules]
        assert len(tables) == len(expected) and all(a is b for a, b in zip(tables, expected))
        assert all(isinstance(table, _Grid) for table in tables)

    def test_each_override_runs_the_constructor_once(self, av, monkeypatch):
        validations = []
        validate = rb.Instance.__post_init__
        monkeypatch.setattr(rb.Instance, "__post_init__", lambda inst: validations.append(validate(inst)))
        inst = with_risk_config(with_risk_config(av, "r1", measure="cvar"), "r2", threshold=2.0)
        assert len(validations) == 2
        assert inst.risk_configs["r1"].measure.kind == "cvar" and inst.risk_configs["r2"].threshold == 2.0

    def test_override_compiles_its_own_tables_when_first_evaluated(self, av):
        optimal = rb.run_rank(av).optimal  # compiles the original's tables
        inst = with_risk_config(av, "r1", threshold=av.risk_configs["r1"].threshold)
        assert "_compiled" not in vars(inst)
        assert rb.run_rank(inst).optimal == optimal
        assert inst._compiled is not av._compiled

    def test_reconfigured_copy_is_read_only_and_checks_its_configurations(self, av):
        inst = with_risk_config(av, "r1", threshold=175.0)
        with pytest.raises(TypeError):
            inst.risk_configs["r1"] = av.risk_configs["r1"]
        configs = dict(av.risk_configs)
        del configs["r2"]
        with pytest.raises(rb.ValidationError, match="rule 'r2' has no risk configuration"):
            dataclasses.replace(av, risk_configs=configs)
        configs["r9"] = configs["r2"] = av.risk_configs["r2"]
        with pytest.raises(rb.ValidationError, match="risk configuration given for unknown rule 'r9'"):
            dataclasses.replace(av, risk_configs=configs)


class TestLoad:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(bundled_instance_text(), encoding="utf-8")
        assert rb.load_instance(path) == bundled_instance()
