from fractions import Fraction

import pytest

from dendro.gallery import FamilyDescriptor, build_counterexample, generate
from dendro.metric_tree import Dendrite, PointRef
from dendro.tree_map import TreeMap

F = Fraction


@pytest.fixture(scope="session")
def star3():
    return generate(FamilyDescriptor("star", {"arm_lengths": (F(1, 2), F(1, 3), F(1, 6))}))


@pytest.fixture(scope="session")
def comb3():
    return generate(FamilyDescriptor("comb", {"depth": 3}))


@pytest.fixture(scope="session")
def comb4():
    return generate(FamilyDescriptor("comb", {"depth": 4}))


@pytest.fixture(scope="session")
def riemann3():
    return generate(FamilyDescriptor("riemann", {"qmax": 3}))


@pytest.fixture(scope="session")
def unit_arc():
    return generate(FamilyDescriptor("arc", {"length": F(1)}))


@pytest.fixture(scope="session")
def tent(unit_arc):
    """Tent map on [0,1] fixing 0: slope 2 up to the midpoint peak."""
    return TreeMap(
        domain=unit_arc,
        codomain=unit_arc,
        vertex_images={"0": PointRef(vertex="0"), "1": PointRef(vertex="0")},
        edge_breaks={0: ((F(1, 2), PointRef(vertex="1")),)},
    )


@pytest.fixture(scope="session")
def sym_arc():
    """Arc [-1, 1] with a vertex at 0 so x -> -x is a vertex map."""
    return Dendrite(
        ["-1", "0", "1"],
        [("-1", "0", F(1)), ("0", "1", F(1))],
        marked={"origin": PointRef(vertex="0")},
    )


@pytest.fixture(scope="session")
def flip(sym_arc):
    return TreeMap(
        domain=sym_arc,
        codomain=sym_arc,
        vertex_images={
            "-1": PointRef(vertex="1"),
            "0": PointRef(vertex="0"),
            "1": PointRef(vertex="-1"),
        },
        edge_breaks={},
    )


@pytest.fixture(scope="session")
def contraction(unit_arc):
    """x -> x/2 on [0, 1]: no set orbit ever repeats exactly."""
    return TreeMap(
        unit_arc,
        unit_arc,
        vertex_images={"0": PointRef(vertex="0"), "1": unit_arc.point(0, F(1, 2))},
    )


@pytest.fixture(scope="session")
def omega12_map():
    """The glued GCH map on the 12-arm omega star (weight ratio 1/2)."""
    return build_counterexample("omega_star_gch", arms=12, q=F(1, 2))[1]


@pytest.fixture(scope="session")
def comb_gch8_map():
    return build_counterexample("comb_gch", depth=8)[1]
