"""The package's JSON writer, its helpers and its hook against
``json.dumps(indent=2)``, their reference."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbook.jsonwriter import Written, array, dumps, fields, indent, number, string

# Control characters, non-ASCII text, astral characters and lone surrogates,
# each of which the string escaper writes differently.
SPECIAL_TEXT = ["", "\x00", "\x1f", "\x7f", '"', "\\", "/", "\n\t\r\b\f", "é", " ", "😀", "\ud800", "\udfff"]
text = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(SPECIAL_TEXT),
    st.lists(st.sampled_from(SPECIAL_TEXT)).map("".join),
)
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
big = st.integers(min_value=2**64, max_value=2**200)
ints = st.one_of(st.integers(), big, big.map(int.__neg__))
scalars = st.one_of(text, floats, ints, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
        # A list that starts with a string and goes on with anything.
        st.tuples(text, st.lists(children, max_size=4)).map(lambda p: [p[0], *p[1]]),
        st.lists(text, max_size=6),
    )


trees = st.recursive(scalars, _containers, max_leaves=40)


@given(trees)
@settings(max_examples=600)
def test_writer_equals_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def written(o):
    """``o`` as a :class:`Written` hook whose text only the helpers write."""

    def write(pad):
        if isinstance(o, dict):
            return fields(tuple(o), pad) % tuple(written(v).write(indent(pad)) for v in o.values())
        if isinstance(o, (list, tuple)):
            return array([written(v).write(indent(pad)) for v in o], pad)
        if isinstance(o, str):
            return string(o)
        if isinstance(o, float):
            return number(o)
        return dumps(o)  # an int, a boolean or None

    return Written(write)


@given(trees)
@settings(max_examples=200)
def test_hook_places_text_the_helpers_write_at_its_position(obj):
    assert dumps(written(obj)) == json.dumps(obj, indent=2)
    assert dumps({"k%s": [1, written(obj)], "v": written(["%", obj])}) == json.dumps(
        {"k%s": [1, obj], "v": ["%", obj]}, indent=2
    )


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        [{}, [], ()],
        {"a": {}, "b": [[]], "c": ({},)},
        ["s", 1, "t", None, True, 2.5],
        [1, "s"],
        ("x", "y"),
        {"k": ["a", ["b", {"c": []}]]},
        [True, False, 0, 1, -1, 2**64 + 1, -(2**70)],
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308],
        "\ud800 lone surrogate",
        None,
    ],
)
def test_writer_equals_json_dumps_on_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a", "b"), b"a"])
def test_non_str_key_raises_type_error(key):
    with pytest.raises(TypeError):
        dumps({"fine": 1, "nested": {key: 1}})


@pytest.mark.parametrize("value", [{1, 2}, frozenset(), Fraction(1, 3), b"bytes", object(), 1j])
@pytest.mark.parametrize(
    "wrap", [lambda v: v, lambda v: [v], lambda v: ["s", v], lambda v: {"k": v}, lambda v: ("s", [v])]
)
def test_unsupported_value_raises_type_error(value, wrap):
    with pytest.raises(TypeError):
        dumps(wrap(value))

