"""The package's one writer of indented JSON.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2)`` for a tree of
``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
``bool`` and ``None``, and raises ``TypeError`` on anything else, a
non-``str`` key included, rather than writing other bytes.

``json.dumps`` leaves its C encoder whenever ``indent`` is set and yields
every token through nested Python generators.  This writer recurses once per
container and joins each container's items with one ``",\\n" + pad``
separator.  Strings go through ``json.encoder.encode_basestring_ascii``, the
C escaper ``json.dumps`` itself uses, so a list of strings is one
``join(map(...))`` in C.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_float = float.__repr__
_int = int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2)`` for a tree of JSON-typed values."""
    return _value(obj, "\n")


def _value(o: object, pad: str) -> str:
    """``o`` written at the indentation ``pad``, a newline and its spaces."""
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        body = ("," + inner).join(
            [f"{_string(k)}: {_string(v) if type(v) is str else _value(v, inner)}" for k, v in o.items()]
        )
        return f"{{{inner}{body}{pad}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        body = None
        if isinstance(o[0], str):
            try:
                body = sep.join(map(_string, o))
            except TypeError:
                pass  # a mixed list: written item by item below
        if body is None:
            body = sep.join([_value(v, inner) for v in o])
        return f"[{inner}{body}{pad}]"
    if isinstance(o, float):
        text = _float(o)
        return _NONFINITE.get(text, text)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if o is None:
        return "null"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
