"""The package's one writer of indented JSON.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2)`` for a tree of
``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
``bool`` and ``None``, and raises ``TypeError`` on anything else, a
non-``str`` key included, rather than writing other bytes.

``json.dumps`` leaves its C encoder whenever ``indent`` is set and yields
every token through nested Python generators.  This writer makes one call
per value, whatever its type, and joins each container's written items with
one ``",\\n" + pad`` separator.  Strings go through
``json.encoder.encode_basestring_ascii``, the C escaper ``json.dumps`` itself
uses.

One hook lets a caller write part of the tree itself: where ``dumps``
reaches a :class:`Written` value, it calls the value's ``write(pad)`` with
the indentation of that position and places the returned text there.  Such
text is made with :func:`string`, :func:`number`, :func:`array`,
:func:`fields` and :func:`indent`, so escaping, number formatting and
layout stay in this module.
"""

from __future__ import annotations

from collections.abc import Callable
from json.encoder import encode_basestring_ascii as string

_float = float.__repr__
_int = int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2)`` for a tree of JSON-typed values."""
    return _value(obj, "\n")


class Written:
    """A value of the tree whose text its owner writes: ``write(pad)``
    returns the JSON text of the value at the indentation ``pad``."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str], str]) -> None:
        self.write = write


def indent(pad: str) -> str:
    """The indentation of the items of a container written at ``pad``."""
    return pad + "  "


def number(x: float) -> str:
    """A float as ``json.dumps`` writes it: its shortest round-trip repr,
    with NaN and the infinities by their JavaScript names."""
    text = _float(x)
    return _NONFINITE.get(text, text)


def array(texts: list[str], pad: str) -> str:
    """A list at ``pad`` whose items are the written ``texts``."""
    if not texts:
        return "[]"
    items = indent(pad)
    return f"[{items}{(',' + items).join(texts)}{pad}]"


def fields(keys: tuple[str, ...], pad: str) -> str:
    """A ``%``-format of an object at ``pad`` with ``keys`` in order, one
    ``%s`` per key for its written value."""
    if not keys:
        return "{}"
    items = indent(pad)
    body = ("," + items).join(string(k).replace("%", "%%") + ": %s" for k in keys)
    return f"{{{items}{body}{pad}}}"


def _value(o: object, pad: str) -> str:
    """``o`` written at the indentation ``pad``, a newline and its spaces."""
    if isinstance(o, str):
        return string(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent(pad)
        body = ("," + inner).join([f"{string(k)}: {_value(v, inner)}" for k, v in o.items()])
        return f"{{{inner}{body}{pad}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent(pad)
        body = ("," + inner).join([_value(v, inner) for v in o])
        return f"[{inner}{body}{pad}]"
    if isinstance(o, float):
        return number(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if o is None:
        return "null"
    if type(o) is Written:
        return o.write(pad)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
