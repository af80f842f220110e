from fractions import Fraction

import pytest

from dendro.serialize import dumps_json, format_rat, parse_rat

F = Fraction


def test_format_integers():
    assert format_rat(F(3)) == "3"
    assert format_rat(F(0)) == "0"
    assert format_rat(F(-2)) == "-2"


def test_format_fractions():
    assert format_rat(F(1, 3)) == "1/3"
    assert format_rat(F(-5, 8)) == "-5/8"
    assert format_rat(F(6, 4)) == "3/2"  # normalized


def test_parse_roundtrip():
    for x in (F(0), F(7), F(-1, 3), F(22, 7), F(-9, 4)):
        assert parse_rat(format_rat(x)) == x


def test_parse_accepts_ints_and_fractions():
    assert parse_rat(5) == F(5)
    assert parse_rat(F(2, 3)) == F(2, 3)
    assert parse_rat(" 4/6 ") == F(2, 3)


def test_parse_rejects_floats():
    with pytest.raises(ValueError):
        parse_rat(0.5)


@pytest.mark.parametrize("value", [True, False, "1/0", " 3/0 ", "0/0"])
def test_parse_rejects_bools_and_zero_denominators(value):
    with pytest.raises(ValueError):
        parse_rat(value)


def test_dumps_json_is_canonical():
    a = dumps_json({"b": 1, "a": [F is None, 2]})
    b = dumps_json({"a": [False, 2], "b": 1})
    assert a == b
