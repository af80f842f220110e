from fractions import Fraction

import pytest

from dendro.gallery import (
    FamilyDescriptor,
    build_counterexample,
    classify,
    gehman_tree,
    generate,
)
from dendro.metric_tree import (
    Dendrite,
    PointRef,
    dist,
    geodesic,
)
from dendro.odometer import gehman_extend
from dendro.serialize import dump_json, dumps_json, from_dict_checked, load_json
from oracles import farey_count

F = Fraction


def V(name):
    return PointRef(vertex=name)


# ---------------------------------------------------------------- generators


def test_comb3_structure(comb3):
    # teeth at 1, 1/2, 1/3 with matching heights plus the height-1 segment at 0
    tooth_edges = [e for e in comb3.edges if e.v.startswith("t@")]
    heights = {e.v: e.length for e in tooth_edges}
    assert heights == {
        "t@1": F(1),
        "t@1/2": F(1, 2),
        "t@1/3": F(1, 3),
        "t@0": F(1),
    }
    base_len = sum(e.length for e in comb3.edges if not e.v.startswith("t@"))
    assert base_len == 2


def test_riemann3_teeth(riemann3):
    tooth_edges = [e for e in riemann3.edges if e.v.startswith("t@")]
    assert len(tooth_edges) == farey_count(3)  # 0, 1/3, 1/2, 2/3, 1
    heights = {e.v: e.length for e in tooth_edges}
    assert heights["t@0"] == 1 and heights["t@1"] == 1
    assert heights["t@1/2"] == F(1, 2)
    assert heights["t@1/3"] == F(1, 3) and heights["t@2/3"] == F(1, 3)


def test_riemann7_totient_count():
    D = generate(FamilyDescriptor("riemann", {"qmax": 7}))
    teeth = [e for e in D.edges if e.v.startswith("t@")]
    assert len(teeth) == farey_count(7)


def test_omega_star_lengths():
    D = generate(FamilyDescriptor("omega_star", {"arms": 3, "q": F(1, 2)}))
    lengths = sorted((e.length for e in D.edges), reverse=True)
    assert lengths == [F(1, 2), F(1, 4), F(1, 8)]


def test_cantor_comb_rank2():
    D = generate(FamilyDescriptor("cantor_comb", {"rank": 2}))
    teeth = {e.v: e.length for e in D.edges if e.v.startswith("t@")}
    assert teeth[f"t@{F(1,3)}"] == F(1, 2)
    assert teeth[f"t@{F(2,3)}"] == F(1, 2)
    assert teeth[f"t@{F(1,9)}"] == F(1, 3)
    assert len(teeth) == 6


def test_gehman_generator():
    D = generate(FamilyDescriptor("gehman", {"depth": 3}))
    leaves = [v for v in D.vertices if D.degree(v) == 1]
    assert len(leaves) == 8
    assert D.total_length() == 2 * F(1, 2) + 4 * F(1, 4) + 8 * F(1, 8)


def test_invalid_family():
    with pytest.raises(ValueError):
        FamilyDescriptor("moebius", {})


# ---------------------------------------------------------------- nestedness


@pytest.mark.parametrize("family,param,lo,hi", [
    ("comb", "depth", 3, 4),
    ("riemann", "qmax", 3, 5),
    ("omega_star", "arms", 3, 5),
    ("cantor_comb", "rank", 1, 2),
])
def test_truncations_nest(family, param, lo, hi):
    D1 = generate(FamilyDescriptor(family, {param: lo}))
    D2 = generate(FamilyDescriptor(family, {param: hi}))
    assert set(D1.vertices) <= set(D2.vertices)
    for u in D1.vertices:
        for w in D1.vertices:
            assert dist(D1, V(u), V(w)) == dist(D2, V(u), V(w))


# ---------------------------------------------------------------- classification


def test_nested_fraction_params_are_written(tmp_path):
    # a sequence param of Fractions is written as rational strings, so the
    # dendrite file is written and loads back through the file check
    D = generate(FamilyDescriptor("star", {"arm_lengths": (F(1, 2), F(1, 4), F(1, 4))}))
    assert D.descriptor["params"] == {"arm_lengths": ["1/2", "1/4", "1/4"]}
    path = tmp_path / "star.json"
    dump_json(D.to_dict(), path)
    back = from_dict_checked(Dendrite.from_dict, load_json(path), "dendrite")
    assert back == D and back.descriptor == D.descriptor
    assert dumps_json(back.to_dict()) == path.read_text()


def test_readme_family_descriptors_keep_their_bytes():
    # the families the README generates write the descriptors they always did
    texts = {
        ("comb", (("depth", 8),)): '{\n "family": "comb",\n "params": {\n  "depth": 8\n }\n}\n',
        ("riemann", (("qmax", 4),)): '{\n "family": "riemann",\n "params": {\n  "qmax": 4\n }\n}\n',
        ("omega_star", (("arms", 12), ("q", F(1, 2)))):
            '{\n "family": "omega_star",\n "params": {\n  "arms": 12,\n  "q": "1/2"\n }\n}\n',
    }
    for (family, params), text in texts.items():
        D = generate(FamilyDescriptor(family, dict(params)))
        assert dumps_json(D.descriptor) == text, family


def test_classification_flags():
    assert not classify(FamilyDescriptor("riemann", {})).completely_regular
    assert classify(FamilyDescriptor("riemann", {})).all_orders_finite
    omega = classify(FamilyDescriptor("omega_star", {}))
    assert omega.completely_regular and not omega.all_orders_finite
    comb = classify(FamilyDescriptor("comb", {}))
    assert comb.completely_regular and comb.all_orders_finite
    assert comb.in_theorem_class
    assert not classify(FamilyDescriptor("riemann", {})).in_theorem_class
    assert not classify(FamilyDescriptor("omega_star", {})).in_theorem_class
    assert classify(FamilyDescriptor("gehman", {})).in_theorem_class


def test_free_subarc_in_generated_arcs(comb3):
    # finite check: arcs between vertex pairs contain a free edge segment
    # (an interior edge interval whose interior is open in the tree)
    import itertools

    for u, w in itertools.islice(itertools.combinations(comb3.vertices, 2), 30):
        arc = geodesic(comb3, V(u), V(w))
        has_free = False
        for e, (a, b) in arc.intervals.items():
            if b > a:
                has_free = True
        assert has_free


# ---------------------------------------------------------------- counterexamples


def test_build_counterexample_unknown():
    with pytest.raises(ValueError):
        build_counterexample("nope")


def test_odometer_gehman_counterexample():
    # the odometer extension lives on the gallery's Gehman tree
    D, Fm = gehman_extend(2)
    assert D == gehman_tree(2)
    assert len(D.vertices) == 7
    assert Fm.apply(V("g")) == V("g")
