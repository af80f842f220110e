"""Rational and JSON helpers shared by the descriptor file formats.

Rationals travel as ``"p/q"`` strings (plain ``"p"`` for integers) so files
round-trip exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction


def format_rat(x: Fraction) -> str:
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
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def from_dict_checked(from_dict, d, what: str):
    """``from_dict(d)``, with a malformed ``d`` reported as ValueError.

    A missing field or a value of the wrong shape surfaces inside a loader
    as KeyError, TypeError, AttributeError or IndexError; file readers call
    this so that every malformed file fails the same documented way.
    """
    try:
        return from_dict(d)
    except KeyError as exc:
        raise ValueError(f"malformed {what}: missing field {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
