"""The value types are plain classes: their texts, equality, hashes and
refused writes, and an import of dendro that loads no code generator."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from dendro.metric_tree import Edge, PointRef, Subtree
from dendro.odometer import Address, FiberPoint

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

# (value, an equal value built apart, a different value, repr, fields)
CASES = [
    (Edge("a", "b", F(1, 2)), Edge("a", "b", F(1, 2)), Edge("a", "b", F(1, 3)),
     "Edge(u='a', v='b', length=Fraction(1, 2))", ("u", "v", "length")),
    (PointRef(vertex="a"), PointRef("a"), PointRef(vertex="b"),
     "PointRef(vertex='a', edge=None, offset=None)", ("vertex", "edge", "offset")),
    (PointRef(edge=0, offset=F(1, 3)), PointRef(None, 0, F(1, 3)),
     PointRef(edge=1, offset=F(1, 3)),
     "PointRef(vertex=None, edge=0, offset=Fraction(1, 3))",
     ("vertex", "edge", "offset")),
    (Subtree(frozenset({"a"}), {0: (F(0), F(1, 2))}),
     Subtree(vertices=frozenset({"a"}), intervals={0: (F(0), F(1, 2))}),
     Subtree(frozenset({"a"}), {0: (F(0), F(1, 4))}),
     "Subtree(vertices=frozenset({'a'}), intervals={0: (Fraction(0, 1), Fraction(1, 2))})",
     ("vertices", "intervals")),
    (Address(((0, 0), (2, 2))), Address.parse("0121^inf"), Address(),
     "Address(digits=((0, 0), (2, 2)))", ("_n",)),
    (FiberPoint(Address(), F(1, 2)), FiberPoint(Address.parse("1^inf"), F(1, 2)),
     FiberPoint(Address(), F(1, 3)),
     "FiberPoint(alpha=Address(digits=()), y=Fraction(1, 2))", ("alpha", "y")),
]


@pytest.mark.parametrize("value, same, other, text, fields", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_a_value_keeps_its_text_equality_and_hash(value, same, other, text, fields):
    assert repr(value) == text
    assert value == same and value is not same
    assert value != other
    assert hash(value) == hash(same)
    # the same class only: a tuple of the same fields is a different thing
    assert value != tuple(getattr(value, f) for f in fields)
    assert value.__eq__(object()) is NotImplemented


def test_hashes_are_those_of_the_field_tuples():
    p, e = PointRef(edge=0, offset=F(1, 3)), Edge("a", "b", F(1, 2))
    assert hash(p) == hash((None, 0, F(1, 3)))
    assert hash(e) == hash(("a", "b", F(1, 2)))
    S = Subtree(frozenset({"a"}), {0: (F(0), F(1, 2))})
    assert hash(S) == hash((S.vertices, frozenset(S.intervals.items())))
    # no string in them, so the same on every run
    assert hash(Address(((0, 0), (2, 2)))) == 308769099631933579
    assert hash(FiberPoint(Address(), F(1, 2))) == 8762631701745219762


@pytest.mark.parametrize("value, fields", [(case[0], case[4]) for case in CASES],
                         ids=[type(case[0]).__name__ for case in CASES])
def test_a_value_refuses_every_write(value, fields):
    for f in fields:
        before = getattr(value, f)
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{f}'$"):
            setattr(value, f, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{f}'$"):
            delattr(value, f)
        assert getattr(value, f) is before


def test_importing_dendro_loads_no_dataclasses():
    names = sorted(p.stem for p in (SRC / "dendro").glob("*.py"))
    assert "metric_tree" in names and "cli" in names
    code = "".join(f"import dendro.{n}\n" for n in names if n != "__init__")
    code += "import sys; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout == "False\n"
