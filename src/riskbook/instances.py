"""Loading, validating, and saving evaluation problems as JSON documents.

The document format is a single UTF-8 JSON object with six top-level keys:

- ``scenarios``: list of ``{"id": str, "prob": number}``
- ``system_trajectories``: list of identifiers
- ``environment_trajectories``: list of identifiers
- ``interaction``: trajectory id -> scenario id -> environment trajectory id
- ``rules``: list of ``{"id": str, "violations": trajectory id ->
  environment trajectory id -> number, "risk": {"measure": str,
  "alpha"?: number, "threshold": number}}``
- ``priority``: list of ``[higher, lower]`` rule id pairs

Measure kinds are ``expected``, ``worst_case``, ``var``, and ``cvar``;
``alpha`` is required for the last two and rejected otherwise.  Documents
that are not JSON raise :class:`ParseError`, as do files that are not UTF-8,
nesting too deep for the decoder and integer literals over Python's
int-to-string digit limit; a number too large for a float is a
:class:`ValidationError` at its JSON path.

The parser checks only the document's shape: value types, the top-level and
risk-block keys, and the arity of priority pairs.  Every other invariant has
one owner, the constructor of the object it constrains: probabilities in
:class:`FiniteProbSpace`, finite nonnegative violations in :class:`Rule`
(so JSON's ``Infinity``, and a decimal such as ``1e400`` that the decoder
reads as infinity, are rejected there), measure kind and ``alpha`` in
:class:`RiskMeasure`, thresholds in :class:`RiskConfig`, unique rule ids
and priority closure in :func:`build_preorder` and :class:`Rulebook`,
unique trajectory ids, total tables and declared responses in
:class:`Instance`.  The parser re-raises a constructor's error as
:class:`ValidationError` with the JSON path in front.

The document is read once, in document order.  The ``interaction`` table
and each rule's ``violations`` are read row by row, not cell by cell: one
key-set comparison per JSON row against the declared ids, one
:func:`operator.itemgetter` call reading the row in declaration order, and
one C-level pass over its value types.  The rows become the
:class:`~riskbook.rulebook._Grid` tables that the rule, the interaction
model and the instance's compiled evaluation share, so no dict keyed by
pairs is built and no cell is read again in Python.  Only a table that
fails this read is walked cell by cell, in document order, so a type error
names its cell's JSON path and its constructor names a missing or
undeclared pair.  The ``scenarios`` list and the two lists of trajectory
ids are walked once each, in document order: an entry whose types are the
expected ones is read as it stands, and a JSON path is formatted only for
the entry that fails a type test.  Built objects keep read-only tables, so
they stay valid.
"""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import DuplicateElement, ParseError, RiskbookError, ValidationError
from .jsonwriter import dumps
from .preorder import build_preorder
from .probspace import FiniteProbSpace
from .risk import CUSTOM, CVAR, VAR, RiskMeasure
from .riskaware import Instance, InteractionModel, RiskConfig
from .rulebook import Rule, Rulebook, _Grid, _reader

_TOP_LEVEL_KEYS = (
    "scenarios",
    "system_trajectories",
    "environment_trajectories",
    "interaction",
    "rules",
    "priority",
)


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError(f"{path}: number is too large for a float") from None


# The types a table cell checked by each ``_expect_*`` may hold, tested in
# one C-level pass per row.
_CELL_TYPES = {_expect_str: frozenset({str}), _expect_number: frozenset({int, float})}


def _built(path: str, make: Callable[..., Any], *args: Any) -> Any:
    """``make(*args)``, with any invariant it rejects reported at ``path``."""
    try:
        return make(*args)
    except RiskbookError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _table(table: Any, row_ids: tuple[str, ...], column_ids: tuple[str, ...], path: str, expect: Callable) -> Mapping:
    """The JSON table at ``path`` with every cell checked by ``expect``.

    A table whose rows and columns are the declared ids and whose cells all
    have ``expect``'s types becomes the :class:`_Grid` of its rows: one
    key-set comparison and one :func:`operator.itemgetter` call per row, one
    C-level pass over each row's types, JSON integers converted to floats.
    Any other table is walked in document order, so a type error names its
    cell's JSON path, into a dict keyed by pairs whose constructor names a
    missing or undeclared pair."""
    columns = set(column_ids)
    if type(table) is dict and table.keys() == set(row_ids):
        rows = [table[r] for r in row_ids]
        if all(type(row) is dict and row.keys() == columns for row in rows):
            rows = list(map(_reader(column_ids), rows))
            kinds = [set(map(type, row)) for row in rows]
            if all(map(_CELL_TYPES[expect].issuperset, kinds)):
                try:
                    rows = [tuple(map(float, row)) if int in k else row for row, k in zip(rows, kinds)]
                    return _Grid(row_ids, column_ids, tuple(rows))
                except OverflowError:  # an integer beyond the float range: the walk names its cell
                    pass
    return {
        (r, c): expect(value, f"{path}.{r}.{c}")
        for r, row in _expect_object(table, path).items()
        for c, value in _expect_object(row, f"{path}.{r}").items()
    }


def _scenarios(entries: list) -> tuple[tuple[str, ...], dict[str, float]]:
    """The scenario ids and probabilities of the ``scenarios`` list.

    One walk in document order.  An object entry with a string ``id`` and a
    float ``prob`` is read as it stands; a value that fails its type test
    goes to its ``_expect_*`` check, which converts an integer and names
    anything else at its JSON path, so the first defect is named and no
    other path is formatted."""
    ids: list[str] = []
    probs: dict[str, float] = {}
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            entry = _expect_object(entry, f"scenarios[{i}]")
        sid, prob = entry.get("id"), entry.get("prob")
        if type(sid) is not str:
            sid = _expect_str(sid, f"scenarios[{i}].id")
        if type(prob) is not float:
            prob = _expect_number(prob, f"scenarios[{i}].prob")
        ids.append(sid)
        probs[sid] = prob
    return tuple(ids), probs


def _ids(doc: dict, key: str) -> tuple[str, ...]:
    """The list of identifiers at ``doc[key]``, walked once; only the first
    entry that is not a string has its JSON path formatted, and is named."""
    ids = tuple(_expect_list(doc[key], key))
    for i, x in enumerate(ids):
        if type(x) is not str:
            _expect_str(x, f"{key}[{i}]")
    return ids


def instance_from_dict(doc: Any) -> Instance:
    """Build and validate an :class:`Instance` from a parsed JSON document.

    The document is read once, in document order, and the first defect met
    raises.  A table read as a grid has its values checked by their owner
    in declaration order: :class:`Rule` names the first bad violation and
    :class:`Instance` the first undeclared response."""
    doc = _expect_object(doc, "document")
    for key in _TOP_LEVEL_KEYS:
        if key not in doc:
            raise ValidationError(f"document: missing top-level key {key!r}")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ValidationError(f"document: unexpected top-level key {key!r}")

    scenario_ids, probs = _scenarios(_expect_list(doc["scenarios"], "scenarios"))
    space = _built("scenarios", FiniteProbSpace, scenario_ids, probs)
    trajectories = _ids(doc, "system_trajectories")
    env_trajectories = _ids(doc, "environment_trajectories")

    responses = _table(doc["interaction"], trajectories, space.scenarios, "interaction", _expect_str)

    rules: list[Rule] = []
    risk_configs: dict[str, RiskConfig] = {}
    for i, entry in enumerate(_expect_list(doc["rules"], "rules")):
        path = f"rules[{i}]"
        entry = _expect_object(entry, path)
        rid = _expect_str(entry.get("id"), f"{path}.id")
        table = _table(entry.get("violations"), trajectories, env_trajectories, f"{path}.violations", _expect_number)
        rules.append(_built(path, Rule, rid, table))
        risk_doc = _expect_object(entry.get("risk"), f"{path}.risk")
        for key in risk_doc:
            if key not in ("measure", "alpha", "threshold"):
                raise ValidationError(f"{path}.risk: unexpected key {key!r}")
        kind = _expect_str(risk_doc.get("measure"), f"{path}.risk.measure")
        alpha = _expect_number(risk_doc["alpha"], f"{path}.risk.alpha") if "alpha" in risk_doc else None
        threshold = _expect_number(risk_doc.get("threshold"), f"{path}.risk.threshold")
        measure = _built(f"{path}.risk", RiskMeasure, kind, alpha)
        risk_configs[rid] = _built(f"{path}.risk", RiskConfig, measure, threshold)

    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(_expect_list(doc["priority"], "priority")):
        pair = _expect_list(pair, f"priority[{i}]")
        if len(pair) != 2:
            raise ValidationError(f"priority[{i}]: expected a [higher, lower] pair")
        edges.append(
            (_expect_str(pair[0], f"priority[{i}][0]"), _expect_str(pair[1], f"priority[{i}][1]"))
        )
    try:
        priority = build_preorder([r.id for r in rules], edges)
    except DuplicateElement as exc:  # a repeated rule id
        raise ValidationError(f"rules: {exc}") from None
    except RiskbookError as exc:  # an undeclared rule in an edge
        raise ValidationError(f"priority: {exc}") from None

    return _built(
        "document",
        Instance,
        space,
        trajectories,
        env_trajectories,
        InteractionModel(responses),
        Rulebook(tuple(rules), priority),
        risk_configs,
    )


def parse_instance(text: str) -> Instance:
    """Parse a JSON instance document and validate every invariant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal over the int-to-str digit limit
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None
    return instance_from_dict(doc)


def instance_to_dict(instance: Instance) -> dict:
    """Instance as a JSON-ready dict; the priority list carries the full closure."""
    trajectories, envs = instance.trajectories, instance.env_trajectories
    rules = []
    for rule, rows in zip(instance.rulebook.rules, instance._violation_rows):
        config = instance.risk_configs[rule.id]
        if config.measure.kind == CUSTOM:
            raise ValidationError(f"rule {rule.id!r} uses a custom measure, which cannot be serialized")
        risk: dict[str, Any] = {"measure": config.measure.kind}
        if config.measure.alpha is not None:
            risk["alpha"] = config.measure.alpha
        risk["threshold"] = config.threshold
        rules.append(
            {
                "id": rule.id,
                "violations": {traj: dict(zip(envs, row)) for traj, row in zip(trajectories, rows)},
                "risk": risk,
            }
        )
    order = {rid: i for i, rid in enumerate(instance.rulebook.rule_ids)}
    priority = sorted(
        ([hi, lo] for hi, lo in instance.rulebook.priority.relation if hi != lo),
        key=lambda pair: (order[pair[0]], order[pair[1]]),
    )
    return {
        "scenarios": [
            {"id": omega, "prob": instance.space.probs[omega]} for omega in instance.space.scenarios
        ],
        "system_trajectories": list(trajectories),
        "environment_trajectories": list(envs),
        "interaction": {
            traj: dict(zip(instance.space.scenarios, map(envs.__getitem__, responses)))
            for traj, responses in zip(trajectories, instance._responses)
        },
        "rules": rules,
        "priority": priority,
    }


def serialize_instance(instance: Instance) -> str:
    """Deterministic JSON text for ``instance``; parses back to an equal instance."""
    return dumps(instance_to_dict(instance)) + "\n"


def load_instance(path: str | Path) -> Instance:
    """Read and parse an instance document from a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}") from None
    return parse_instance(text)


def bundled_instance_text(name: str = "av_pedestrian") -> str:
    """Raw JSON text of a bundled demo instance."""
    return resources.files("riskbook").joinpath(f"data/{name}.json").read_text(encoding="utf-8")


def bundled_instance(name: str = "av_pedestrian") -> Instance:
    """A bundled demo instance; the default is the vehicle-versus-pedestrian one."""
    return parse_instance(bundled_instance_text(name))


def with_risk_config(
    instance: Instance,
    rule_id: str,
    *,
    measure: str | None = None,
    alpha: float | None = None,
    threshold: float | None = None,
) -> Instance:
    """Copy of ``instance`` with parts of one rule's risk configuration replaced.

    ``measure`` is a kind name.  Switching to ``var``/``cvar`` keeps the
    current ``alpha`` unless a new one is given; switching away drops it.
    Arguments left as None keep their current value.  :class:`RiskMeasure`
    and :class:`RiskConfig` reject what they cannot hold, reported as a
    :class:`ValidationError` naming the rule.  The copy is built by
    :func:`dataclasses.replace`, so the :class:`Instance` constructor
    validates it like any other instance, and it compiles its own tables
    when first evaluated.
    """
    current = instance.config(rule_id)
    new_measure = current.measure
    if measure is not None or alpha is not None:
        kind = current.measure.kind if measure is None else measure
        if alpha is None and kind in (VAR, CVAR):
            alpha = current.measure.alpha
        new_measure = _built(f"rule {rule_id!r}", RiskMeasure, kind, alpha)
    new_threshold = current.threshold if threshold is None else threshold
    configs = dict(instance.risk_configs)
    configs[rule_id] = _built(f"rule {rule_id!r}", RiskConfig, new_measure, new_threshold)
    return replace(instance, risk_configs=configs)
