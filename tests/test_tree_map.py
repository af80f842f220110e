import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    Subtree,
    full_subtree,
    geodesic,
    make_subtree,
    union_subtrees,
)
from dendro.tree_map import (
    Orbit,
    TreeMap,
    compose,
    identity_map,
    orbit_decomposition,
    scan,
    set_orbit,
)
from oracles import first_repeat, plain_image, plain_orbit, tent_iterate_interval

F = Fraction


def V(name):
    return PointRef(vertex=name)


def interval(D, lo, hi):
    return make_subtree(D, {0: (F(lo), F(hi))})


# ---------------------------------------------------------------- apply


def test_tent_peak(tent, unit_arc):
    assert tent.apply(unit_arc.point(0, F(1, 2))) == V("1")


def test_tent_fixed_endpoint(tent):
    assert tent.apply(V("0")) == V("0")


def test_tent_twice_by_composition(tent, unit_arc):
    tent2 = compose(tent, tent)
    x = unit_arc.point(0, F(3, 8))
    # hand oracle: T(3/8) = 3/4, T(3/4) = 1/2
    assert tent.apply(x) == unit_arc.point(0, F(3, 4))
    assert tent2.apply(x) == unit_arc.point(0, F(1, 2))
    assert tent2.apply(x) == tent.apply(tent.apply(x))


def test_apply_rejects_foreign_point(tent, star3):
    with pytest.raises(GeometryError):
        tent.apply(star3.point(2, F(1, 12)))


# ---------------------------------------------------------------- image


def test_tent_image_linear_piece(tent, unit_arc):
    S = interval(unit_arc, 0, F(1, 4))
    assert tent.image(S) == interval(unit_arc, 0, F(1, 2))


def test_tent_image_surjective(tent, unit_arc):
    assert tent.image(full_subtree(unit_arc)) == full_subtree(unit_arc)


def test_star_map_image_over_two_arms(star3):
    # send arm 1 across arms 2 and 3: e1 -> e2, c -> e3 say, with geodesic rule
    Fm = TreeMap(
        star3,
        star3,
        vertex_images={
            "c": V("e3"),
            "e1": V("e2"),
            "e2": V("e2"),
            "e3": V("e3"),
        },
    )
    arm1 = geodesic(star3, V("c"), V("e1"))
    img = Fm.image(arm1)
    # per-edge oracle: image is geodesic(e3, e2) = arms 2 and 3
    assert img == geodesic(star3, V("e3"), V("e2"))


def test_image_connectivity_asserted(tent, unit_arc):
    imgs = plain_orbit(tent, interval(unit_arc, F(1, 8), F(1, 4)), 5)
    for s in imgs:
        assert len(union_subtrees(unit_arc, [s])) == 1


def test_semigroup_law_random_small_maps():
    rng = random.Random(5)
    for trial in range(12):
        D = _random_tree(rng, edges=rng.randint(2, 5))
        Fm = _random_map(rng, D)
        G2 = compose(Fm, Fm)
        S = _random_interval(rng, D)
        assert G2.image(S) == Fm.image(Fm.image(S)), f"trial {trial}"
        for _ in range(5):
            x = _random_point(rng, D)
            assert G2.apply(x) == Fm.apply(Fm.apply(x))


def _random_tree(rng, edges):
    vertices = ["v0"]
    eds = []
    for i in range(1, edges + 1):
        parent = rng.choice(vertices)
        name = f"v{i}"
        vertices.append(name)
        eds.append((parent, name, F(rng.randint(1, 6), rng.randint(1, 4))))
    return Dendrite(vertices, eds)


def _random_point(rng, D):
    e = rng.randrange(len(D.edges))
    den = rng.randint(1, 8)
    return D.point(e, D.edge_length(e) * F(rng.randint(0, den), den))


def _random_map(rng, D):
    vi = {v: _random_point(rng, D) for v in D.vertices}
    breaks = {}
    for e in range(len(D.edges)):
        if rng.random() < 0.5:
            t = D.edge_length(e) * F(rng.randint(1, 3), 4)
            breaks[e] = ((t, _random_point(rng, D)),)
    return TreeMap(D, D, vi, breaks)


def _random_interval(rng, D):
    e = rng.randrange(len(D.edges))
    L = D.edge_length(e)
    a = L * F(rng.randint(0, 3), 8)
    b = a + (L - a) * F(rng.randint(1, 4), 4)
    return make_subtree(D, {e: (a, b)})


# ---------------------------------------------------------------- interval images


def _edge_times(F, e):
    """Times on edge e that put interval ends on its controls, inside its
    pieces and at its ends."""
    times = [t for t, _ in F.controls(e)]
    inside = [t0 + (t1 - t0) * k / 5 for t0, t1 in zip(times, times[1:])
              for k in (1, 3)]
    return sorted(set(times + inside))


def _check_interval_images(F, e, times):
    # plain_image: the geodesics through the images of a, of the controls
    # strictly inside and of b, each end found without the cached legs
    for i, a in enumerate(times):
        for b in times[i:]:
            S = make_subtree(F.domain, {e: (a, b)})
            assert F.image(S) == plain_image(F, S), (e, a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_interval_image_matches_apply_and_geodesic(seed):
    # random small maps, on every pair of ends drawn from the controls, the
    # piece interiors and the edge ends, degenerate intervals included
    rng = random.Random(seed)
    D = _random_tree(rng, edges=rng.randint(1, 4))
    Fm = _random_map(rng, D)
    for e in range(len(D.edges)):
        _check_interval_images(Fm, e, _edge_times(Fm, e))


def test_interval_image_of_composed_phi_matches_apply_and_geodesic(star3):
    # phi of build_pair is the wave composed with the walk: many pieces, and
    # legs that run both ways along an edge
    from dendro.length_expanding import build_pair

    phi = build_pair(star3, V("c"), F(6, 5)).phi
    times = _edge_times(phi, 0)
    _check_interval_images(phi, 0, times[:12] + times[len(times) // 2:][:8])


@pytest.mark.parametrize("a,b", [(F(-1, 8), F(1, 4)), (F(1, 4), F(9, 8)),
                                 (F(3, 4), F(1, 4))])
def test_interval_outside_its_edge_raises(tent, a, b):
    S = Subtree(vertices=frozenset(), intervals={0: (a, b)})
    with pytest.raises(GeometryError, match="outside edge 0"):
        tent.image(S)


# ---------------------------------------------------------------- orbit decomposition


def test_orbit_decomposition_tent(tent, unit_arc):
    E = interval(unit_arc, 0, F(1, 4))
    dec = orbit_decomposition(tent, E, horizon=10)
    assert dec.conclusive
    assert dec.n0 == 0 and dec.k == 1 and dec.r == 1
    assert dec.L_sets[0] == full_subtree(unit_arc)
    # iteration oracle: [0,1/4] -> [0,1/2] -> [0,1]
    assert tent_iterate_interval(F(0), F(1, 4), 2) == (F(0), F(1))


def test_orbit_decomposition_flip(flip, sym_arc):
    E = make_subtree(sym_arc, {1: (F(1, 2), F(1))})
    dec = orbit_decomposition(flip, E, horizon=10)
    assert dec.conclusive
    assert (dec.n0, dec.k, dec.r) == (0, 2, 2)
    assert dec.L_sets[0] == E
    assert dec.L_sets[1] == make_subtree(sym_arc, {0: (F(0), F(1, 2))})


def test_orbit_decomposition_invariant_set(tent, unit_arc):
    E = full_subtree(unit_arc)
    dec = orbit_decomposition(tent, E, horizon=5)
    assert (dec.n0, dec.k, dec.r) == (0, 1, 1)


def test_orbit_decomposition_inconclusive(sym_arc):
    # translation-like map with no return within horizon: x -> x/2 toward -1
    Fm = TreeMap(
        sym_arc,
        sym_arc,
        vertex_images={"-1": V("-1"), "0": sym_arc.point(0, F(1, 2)), "1": V("0")},
    )
    E = make_subtree(sym_arc, {1: (F(3, 4), F(7, 8))})
    dec = orbit_decomposition(Fm, E, horizon=3)
    assert not dec.conclusive


def test_set_orbit_cycles(tent, flip, contraction, unit_arc, sym_arc):
    # preperiod and period at the first exact repeat, each image computed
    # once, and later steps read from the cycle
    cases = [
        (identity_map(unit_arc), interval(unit_arc, F(1, 8), F(1, 4)), (0, 1)),
        (flip, make_subtree(sym_arc, {1: (F(1, 2), F(1))}), (0, 2)),
        (tent, interval(unit_arc, F(1, 8), F(1, 4)), (3, 1)),
        (contraction, interval(unit_arc, F(1, 8), F(1, 4)), None),
    ]
    for Fm, S, cycle in cases:
        calls = []

        class Counted:
            domain = codomain = Fm.domain

            def image(self, A):
                calls.append(A)
                return Fm.image(A)

        counted = Counted()
        orbit = set_orbit(counted, S)
        plain = plain_orbit(Fm, S, 40)
        assert first_repeat(plain) == cycle
        assert [orbit.at(n) for n in range(41)] == plain
        if cycle is None:
            assert orbit.period is None and len(calls) == 40
        else:
            assert (orbit.preperiod, orbit.period) == cycle
            assert len(calls) == sum(cycle)
            assert orbit.at(10**6) == plain[cycle[0] + (10**6 - cycle[0]) % cycle[1]]


def test_scan_reads_every_joint_state():
    # int orbits on random functional graphs of at most 12 nodes, whose
    # joint cycles close within 100 steps: the steps scan gives read every
    # joint state of the plain first..last loop, even at a huge horizon
    rng = random.Random(27)
    for _ in range(400):
        size = rng.randint(1, 12)
        table = [rng.randrange(size) for _ in range(size)]
        orbits = [Orbit(table.__getitem__, rng.randrange(size))
                  for _ in range(rng.randint(1, 3))]
        first = rng.randint(0, 6)
        last = first + rng.choice([0, 1, rng.randint(2, 40), 10**9])
        steps, read = [], set()
        for n in scan(first, last, *orbits):
            steps.append(n)
            read.add(tuple(o.at(n) for o in orbits))
        assert steps == list(range(first, steps[-1] + 1))
        plain = {tuple(o.at(n) for o in orbits)
                 for n in range(first, min(last, first + 100) + 1)}
        assert read == plain


def test_decomposition_laws_random():
    rng = random.Random(9)
    checked = 0
    while checked < 8:
        D = _random_tree(rng, edges=rng.randint(2, 4))
        Fm = _random_map(rng, D)
        E = _random_interval(rng, D)
        dec = orbit_decomposition(Fm, E, horizon=9)
        if not dec.conclusive or not all(dec.K_stabilized):
            continue
        assert dec.k % dec.r == 0
        assert dec.cyclic_ok is True
        # each component is the union of its residue-class K sets
        for j in range(dec.r):
            expected = union_subtrees(
                D, [dec.K_sets[j + l * dec.r] for l in range(dec.k // dec.r)]
            )
            assert len(expected) == 1 and expected[0] == dec.L_sets[j]
        checked += 1


# ---------------------------------------------------------------- serialization


def test_treemap_roundtrip(tent):
    d = tent.to_dict()
    back = TreeMap.from_dict(d)
    assert back.to_dict() == d
    assert back.apply(back.domain.point(0, F(1, 3))) == tent.apply(
        tent.domain.point(0, F(1, 3))
    )
