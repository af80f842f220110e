import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro.serialize import (dump_json, dumps_json, format_rat, from_dict_checked, load_json,
                              parse_rat)
from oracles import file_matches

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


_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9", "\u2028", "\U0001f600"])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**300, 2**300)
           | _TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dumps_json_is_the_stdlib_text(value):
    assert dumps_json(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("value", [0.5, F(1, 2), {"1/2"}, {1: "a"}, {"a": [1, 2.0]}])
def test_dumps_json_refuses_what_no_file_holds(value):
    with pytest.raises(TypeError):
        dumps_json(value)


def test_a_refused_object_writes_no_file(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    dump_json({"a": [1, "1/2"]}, old)
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises(TypeError):
            dump_json({"a": [1, F(1, 2)]}, path)
    assert not new.exists()
    assert old.read_bytes() == before == dumps_json({"a": [1, "1/2"]}).encode()


# ---------------------------------------------------------------- the file rule


@lru_cache(maxsize=None)
def _maps():
    """One built map of each kind, in the order piecewise, glued_exact,
    glued_point, glued_pieces."""
    from dendro.exact_builder import build_exact
    from dendro.gallery import FamilyDescriptor, build_counterexample, generate
    from dendro.metric_tree import Dendrite, PointRef

    branched = Dendrite(
        ["c", "m1", "x1", "y1", "m2", "x2", "y2"],
        [("c", "m1", F(1, 4)), ("m1", "x1", F(1, 8)), ("m1", "y1", F(1, 8)),
         ("c", "m2", F(1, 4)), ("m2", "x2", F(1, 8)), ("m2", "y2", F(1, 8))],
    )
    return (
        build_exact(generate(FamilyDescriptor("star", {})), PointRef(vertex="c")),
        build_exact(generate(FamilyDescriptor("comb", {"depth": 3})), "A"),
        build_exact(branched, PointRef(vertex="c")),
        build_counterexample("comb_gch", depth=3)[1],
    )


@lru_cache(maxsize=None)
def _valid_files():
    """One valid file of each map kind and one dendrite file, as JSON text."""
    from dendro.cli import main

    files = {Fm.kind: dumps_json(Fm.to_dict()) for Fm in _maps()}
    assert sorted(files) == ["glued_exact", "glued_pieces", "glued_point", "piecewise"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "comb", "--depth", "3", "-o", f"{tmp}/comb3.json"]) == 0
        with open(f"{tmp}/comb3.json") as fh:
            files["dendrite"] = fh.read()
    return files


def test_to_dict_hands_out_no_live_state():
    # every dict and list of a to_dict() result edited: the object's next
    # to_dict() is what it wrote before
    from dendro.exact_builder import verify_exact

    def edit(x):
        for item in list(x.values() if isinstance(x, dict) else x):
            if isinstance(item, (dict, list)):
                edit(item)
        if isinstance(x, dict):
            x["edited"] = True
        else:
            x.append("edited")

    cert = verify_exact(_maps()[1], 4)
    objs = [*_maps(), _maps()[0].domain, cert]
    assert objs[-2].descriptor and cert.chains
    for obj in objs:
        before = copy.deepcopy(obj.to_dict())
        edit(obj.to_dict())
        assert obj.to_dict() == before, type(obj).__name__


@lru_cache(maxsize=None)
def _leaf_paths(name):
    """The key path of every leaf of a valid file."""
    def walk(x, path):
        if isinstance(x, (dict, list)):
            items = x.items() if isinstance(x, dict) else enumerate(x)
            return [p for k, v in items for p in walk(v, path + (k,))]
        return [path]
    return walk(json.loads(_valid_files()[name]), ())


MUTATIONS = {"delete": None, "null": None, "wrap": None, "true": True,
             "zero_denominator": "1/0", "seven": 7, "two_fourths": "2/4"}


def _mutant(name, path, how):
    d = json.loads(_valid_files()[name])
    *up, last = path
    node = d
    for key in up:
        node = node[key]
    if how == "delete":
        del node[last]
    elif how == "wrap":
        node[last] = [node[last]]
    else:
        node[last] = MUTATIONS[how]
    return d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_file_is_refused_or_writes_itself_back(data):
    # one leaf of a valid file changed: either the CLI refuses the file with
    # one stderr line and exit 1, or the file loads into an object that
    # writes it back under the file rule
    from dendro.cli import load_map, main
    from dendro.metric_tree import Dendrite

    name = data.draw(st.sampled_from(sorted(_valid_files())))
    path = data.draw(st.sampled_from(_leaf_paths(name)))
    d = _mutant(name, path, data.draw(st.sampled_from(sorted(MUTATIONS))))
    with tempfile.TemporaryDirectory() as tmp:
        fname, out = f"{tmp}/mutant.json", f"{tmp}/out.json"
        with open(fname, "w") as fh:
            json.dump(d, fh)
        try:
            if name == "dendrite":
                obj = from_dict_checked(Dendrite.from_dict, load_json(fname), "dendrite")
            else:
                obj = load_map(fname)
        except ValueError:
            args = (["--dendrite", fname, "--scenario", "exactness", "--arc", "A"]
                    if name == "dendrite" else ["--map", fname, "--scenario", "gch-verdict"])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", *args, "--out", out])
            assert code == 1, (name, path)
            assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
            return
    assert file_matches(obj.to_dict(), d), (name, path)


def test_file_rule_spellings_and_defaults():
    from dendro.exact_builder import map_from_dict

    d = json.loads(_valid_files()["piecewise"])
    d["domain"]["edges"][0]["len"] = "2/4"  # the same rational, spelled otherwise
    del d["kind"], d["domain"]["marked"]  # keys with a default
    assert file_matches(map_from_dict(d).to_dict(), d)
    for key, value in (("vertex_images", True), ("kind", "glued_exact")):
        bad = json.loads(_valid_files()["piecewise"])
        bad[key] = value
        with pytest.raises(ValueError):
            map_from_dict(bad)
    bad = json.loads(_valid_files()["glued_exact"])
    bad["parts"][0]["psi"]["laps"] = 4.0  # == 4, but a float
    with pytest.raises(ValueError, match=r"parts\[0\]\.psi\.laps reads 4\.0 but loads as 4"):
        map_from_dict(bad)
