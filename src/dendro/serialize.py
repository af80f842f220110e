"""Rational and JSON helpers shared by the descriptor file formats.

Rationals travel as ``"p/q"`` strings (plain ``"p"`` for integers) so files
round-trip exactly, and a file loads only if the loaded object writes it
back (:func:`from_dict_checked`) and it holds no float.

A file is byte for byte ``json.dumps(obj, sort_keys=True, indent=1)`` plus a
newline, written in one pass by :func:`dumps_json`.  Only ``str``, ``int``,
``bool``, ``None``, lists (or tuples) and dicts with ``str`` keys are
written; any other value, a float included, raises ``TypeError``.
"""

from __future__ import annotations

import json
from fractions import Fraction


def format_rat(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (bool, float)):
        raise ValueError(f"refusing {type(s).__name__} rational {s!r}; use 'p/q' strings")
    if isinstance(s, int):
        return Fraction(s)
    text = str(s).strip()
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in rational {s!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def dump_json(obj, path) -> None:
    """Write :func:`dumps_json` of ``obj``; an object it refuses leaves
    ``path`` as it was."""
    text = dumps_json(obj)
    with open(path, "w") as fh:
        fh.write(text)


def dumps_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``, without the
    stdlib's generator stack: its C encoder serves only ``indent=None``."""
    out = []
    _encode(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _encode(value, pad: str, put) -> None:
    """Put the text of ``value``, which stands after line break and indent
    ``pad``.  Types are matched exactly: a subclass is refused."""
    kind = type(value)
    if kind is str:
        put(_quote(value))
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = pad + " "
        sep = "{" + inner
        for key in sorted(value):
            put(sep + _quote(key) + ": ")  # _quote refuses a key that is not a str
            _encode(value[key], inner, put)
            sep = "," + inner
        put(pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = pad + " "
        sep = "[" + inner
        for item in value:
            put(sep)
            _encode(item, inner, put)
            sep = "," + inner
        put(pad + "]")
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool or value is None:
        put("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"cannot write a {kind.__name__}: files hold only "
                        "str, int, bool, None, lists and dicts")


def json_copy(value):
    """A fresh copy of the dicts and lists of a JSON tree; leaves are shared,
    being immutable."""
    if type(value) is dict:
        return {key: json_copy(item) for key, item in value.items()}
    if type(value) is list:
        return list(map(json_copy, value))
    return value


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def from_dict_checked(from_dict, d, what: str):
    """``from_dict(d)``, refused with a one-line ValueError unless the loaded
    object writes ``d`` back (:func:`_mismatch`): so no field that a loader
    derives or never reads can say otherwise.

    A missing field or a value of the wrong shape surfaces inside a loader
    as KeyError, TypeError, AttributeError or IndexError; file readers call
    this so that every malformed file fails the same documented way.
    """
    try:
        obj = from_dict(d)
    except KeyError as exc:
        raise ValueError(f"malformed {what}: missing field {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
    wrote = obj.to_dict()
    if not (wrote == d and _same_types(wrote, d)):
        where = _mismatch(wrote, d, "")
        if where:
            raise ValueError(f"malformed {what}: {where}")
    return obj


def _same_types(wrote, read) -> bool:
    """Whether values that ``==`` calls equal agree in type throughout, and
    hold no float: ``==`` lets ``true`` and ``1.0`` pass for ``1``, and a
    float a loader copies through writes back as itself."""
    if type(wrote) is dict is type(read):
        return all(map(_same_types, wrote.values(), map(read.__getitem__, wrote)))
    if type(wrote) is list is type(read):
        return all(map(_same_types, wrote, read))
    return type(wrote) is type(read) and type(read) is not float


def _mismatch(wrote, read, path: str):
    """The first place, at ``path`` or under it, where a file's ``read``
    differs from ``wrote``, what the loaded object writes back, or None.

    Keys, list lengths and leaves must be equal, a leaf with its JSON type
    (never a float) or a rational in any spelling :func:`parse_rat` accepts.  A key the file
    omits matches only where the loader has a default: an empty object or
    array, or a map kind of ``piecewise``.
    """
    if type(wrote) is dict is type(read):
        for key in sorted(wrote.keys() | read.keys(), key=str):
            at = f"{path}.{key}".lstrip(".")
            if key not in wrote:
                return f"unknown field {at}"
            if key not in read:
                if wrote[key] not in ({}, []) and (key, wrote[key]) != ("kind", "piecewise"):
                    return f"missing field {at}"
            elif where := _mismatch(wrote[key], read[key], at):
                return where
        return None
    if type(wrote) is list is type(read) and len(wrote) == len(read):
        return next(filter(None, (_mismatch(w, r, f"{path}[{i}]")
                                  for i, (w, r) in enumerate(zip(wrote, read)))), None)
    if type(wrote) is type(read) and wrote == read:
        if type(read) is float:
            return f"{path or 'the file'} reads the float {_show(read)}, which no file holds"
        return None
    try:
        if type(wrote) is str and type(read) in (str, int) and parse_rat(read) == parse_rat(wrote):
            return None
    except ValueError:
        pass
    return f"{path or 'the file'} reads {_show(read)} but loads as {_show(wrote)}"


def _show(value) -> str:
    if isinstance(value, list):
        return f"an array of {len(value)}"
    return "an object" if isinstance(value, dict) else json.dumps(value)
