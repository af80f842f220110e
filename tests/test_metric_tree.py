import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro.chaos import ly_sample
from dendro.gallery import FAMILIES, FamilyDescriptor, gehman_tree, generate
from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    Subtree,
    _balls,
    _walk,
    ball,
    components_minus,
    contains_point,
    diameter_ends,
    dist,
    full_subtree,
    geodesic,
    geodesic_walk,
    h1_measure,
    ideal_point_order,
    intersect_subtrees,
    is_full,
    make_subtree,
    point_order,
    point_subtree,
    refine_at,
    span_subtree,
    subtree_diam,
    subtree_dist,
    subtree_points,
    subtrees_intersect,
    union_connected,
    union_subtrees,
)
from dendro.odometer import gehman_extend
from dendro.tree_map import identity_map, set_orbit
from oracles import (
    dijkstra_dist,
    dijkstra_dists,
    grid_points,
    plain_ball,
    plain_diameter_ends,
    plain_dist,
    plain_geodesic_legs,
    plain_subtree_dist,
    span_by_geodesics,
)

F = Fraction


def V(name):
    return PointRef(vertex=name)


# ---------------------------------------------------------------- distances


def test_star3_dist_between_tips(star3):
    assert dist(star3, V("e1"), V("e2")) == F(5, 6)


def test_dist_identity(star3):
    assert dist(star3, V("c"), V("c")) == 0


def test_comb_dist_matches_path_sum_oracle(comb3):
    # tip of the tooth at x=1 to the left end of the base
    expected = dijkstra_dist(comb3.to_dict(), "t@1", "b@-1")
    assert expected == F(3)  # tooth height 1 plus base length 2
    assert dist(comb3, V("t@1"), V("b@-1")) == expected


def _leaf_first_comb():
    """comb(3) with its vertex list reordered so that a tooth tip comes first."""
    D = generate(FamilyDescriptor("comb", {"depth": 3}))
    verts = ["t@1/3"] + [v for v in D.vertices if v != "t@1/3"]
    return Dendrite(verts, D.edges, marked=D.marked)


every_family = pytest.mark.parametrize(
    "make",
    [lambda f=f: generate(FamilyDescriptor(f, {})) for f in FAMILIES]
    + [lambda: gehman_tree(6), _leaf_first_comb],
    ids=list(FAMILIES) + ["gehman_tree6", "comb_leaf_root"],
)


@every_family
def test_vdist_and_vertex_path_match_dijkstra(make):
    D = make()
    raw = D.to_dict()
    for u in D.vertices:
        expected = dijkstra_dists(raw, u)
        assert len(expected) == len(D.vertices)
        for w in D.vertices:
            assert D.vdist(u, w) == D.vdist(w, u) == expected[w]
            # the vertex path is the geodesic's legs, each a whole edge
            legs = geodesic_walk(D, V(u), V(w))
            cur = u
            for ei, a, b in legs:
                e = D.edges[ei]
                assert (cur, a, b) in ((e.u, 0, e.length), (e.v, e.length, 0))
                cur = e.v if cur == e.u else e.u
            assert cur == w
            assert sum((D.edge_length(ei) for ei, _, _ in legs), F(0)) == expected[w]
            back = geodesic_walk(D, V(w), V(u))
            assert legs == [(ei, b, a) for ei, a, b in reversed(back)]


@every_family
def test_walk_matches_dijkstra_and_dist(make):
    # one walk's table: Dijkstra's distances from a vertex source, and
    # dist's from a source inside an edge
    D = make()
    raw = D.to_dict()
    for u in D.vertices:
        assert _walk(D, V(u)) == dijkstra_dists(raw, u)
    for ei, e in enumerate(D.edges):
        for t in (e.length / 3, e.length / 2):
            x = D.point(ei, t)
            assert _walk(D, x) == {v: dist(D, x, V(v)) for v in D.vertices}


def test_vdist_memory_stays_linear_on_gehman_tree():
    # per-source distance tables would make this O(V^2) on 2047 vertices
    _D, Fmap = gehman_extend(10)
    tracemalloc.start()
    try:
        ly_sample(Fmap, 10, 50, F(1, 1000), F(1, 2), seed=0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _container_sizes(D):
    return {name: len(value) for name, value in vars(D).items()
            if isinstance(value, (tuple, list, dict, set, frozenset))}


@pytest.mark.parametrize("make", [lambda: gehman_tree(6), _leaf_first_comb],
                         ids=["gehman_tree6", "comb_leaf_root"])
def test_queries_leave_the_tree_as_built(make):
    # the rooted index is built with the tree, so distance queries store
    # nothing on it: no container of the tree grows and none appears
    D = make()
    built = _container_sizes(D)
    verts = [V(v) for v in D.vertices]
    inner = [D.point(ei, e.length / 3) for ei, e in enumerate(D.edges)]
    for x in verts:
        for y in verts:
            dist(D, x, y)
    for x in inner:
        for y in verts[::3] + inner[::3]:
            dist(D, x, y)
    rng = random.Random(5)
    spans = [span_subtree(D, [rng.choice(verts + inner) for _ in range(rng.randint(2, 4))])
             for _ in range(12)]
    for S1 in spans:
        for S2 in spans:
            subtree_dist(D, S1, S2)
    assert _container_sizes(D) == built


def test_dist_interior_points(star3):
    x = star3.point(0, F(1, 4))  # on arm 1
    y = star3.point(1, F(1, 6))  # on arm 2
    assert dist(star3, x, y) == F(1, 4) + F(1, 6)


def test_invalid_point_rejected(star3):
    with pytest.raises(GeometryError):
        dist(star3, PointRef(edge=0, offset=F(2)), V("c"))
    with pytest.raises(GeometryError):
        star3.check_point(V("nope"))


@pytest.mark.parametrize("vertices,edges,message", [
    (["a", "b", "a"], [("a", "b", 1)], "duplicate vertex ids"),
    (["a", "b"], [("a", "c", 1)], "edge 0 references unknown vertex"),
    (["a", "b"], [("a", "b", 1), ("b", "b", 1)], "edge 1 is a loop"),
    (["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
     "edge graph contains a cycle"),
    (["a", "b"], [("a", "b", 1), ("b", "a", 2)], "edge graph contains a cycle"),
    (["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)],
     "edge graph is not connected"),
    # a cycle in one component of a disconnected graph: connectivity is
    # checked first
    (["a", "b", "c", "d"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
     "edge graph is not connected"),
    (["a", "b"], [("a", "b", 0)], "edge a-b has nonpositive length"),
])
def test_dendrite_rejects_non_trees(vertices, edges, message):
    with pytest.raises(GeometryError, match=message):
        Dendrite(vertices, edges)


# ---------------------------------------------------------------- geodesics


def test_geodesic_tip_to_tip_passes_center(star3):
    arc = geodesic(star3, V("e1"), V("e2"))
    assert "c" in arc.vertices
    assert h1_measure(arc) == F(5, 6)


def test_geodesic_degenerate(star3):
    g = geodesic(star3, V("c"), V("c"))
    assert g.is_degenerate()
    assert contains_point(star3, g, V("c"))


def test_comb_geodesic_matches_oracle(comb3):
    x, y = V("t@1/2"), V("b@1")
    arc = geodesic(comb3, x, y)
    assert h1_measure(arc) == dijkstra_dist(comb3.to_dict(), "t@1/2", "b@1")
    assert contains_point(comb3, arc, V("b@1/2"))


def test_geodesic_length_equals_dist(star3, comb3):
    rng = random.Random(7)
    for D in (star3, comb3):
        for _ in range(40):
            e1, e2 = rng.randrange(len(D.edges)), rng.randrange(len(D.edges))
            x = D.point(e1, D.edge_length(e1) * F(rng.randint(0, 8), 8))
            y = D.point(e2, D.edge_length(e2) * F(rng.randint(0, 8), 8))
            assert h1_measure(geodesic(D, x, y)) == dist(D, x, y)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=0, max_value=1, max_denominator=24),
    b=st.fractions(min_value=0, max_value=1, max_denominator=24),
    t=st.fractions(min_value=0, max_value=1, max_denominator=24),
    e1=st.integers(min_value=0, max_value=3),
    e2=st.integers(min_value=0, max_value=3),
)
def test_convexity_identity_on_comb(comb3, a, b, t, e1, e2):
    # z on [x,y] splits the distance exactly
    x = comb3.point(e1, comb3.edge_length(e1) * a)
    y = comb3.point(e2, comb3.edge_length(e2) * b)
    d = dist(comb3, x, y)
    z = _point_on_arc(comb3, x, y, t)
    assert dist(comb3, x, z) + dist(comb3, z, y) == d


def _point_on_arc(D, x, y, frac):
    from dendro.metric_tree import point_along

    return point_along(D, x, y, dist(D, x, y) * frac)


# ---------------------------------------------------------------- complements


def test_components_minus_center(star3):
    dec = components_minus(star3, point_subtree(star3, V("c")))
    assert len(dec.components) == 3
    assert all(b == V("c") for b in dec.boundary_points)


def test_components_minus_base_arc(comb3):
    base = geodesic(comb3, V("b@-1"), V("b@1"))
    dec = components_minus(comb3, base)
    # teeth at 1, 1/2, 1/3 and the segment at 0
    assert len(dec.components) == 4
    names = {b.vertex for b in dec.boundary_points}
    assert names == {"b@1", "b@1/2", "b@1/3", "b@0"}
    for comp, b in zip(dec.components, dec.boundary_points):
        assert contains_point(comb3, base, b)
        assert contains_point(comb3, comp, b)


def test_components_minus_arm(star3):
    arm1 = geodesic(star3, V("c"), V("e1"))
    dec = components_minus(star3, arm1)
    assert len(dec.components) == 2
    assert {b.vertex for b in dec.boundary_points} == {"c"}
    grouped = dec.grouped(star3)
    assert len(grouped) == 1  # both arms attach at c


def test_components_minus_whole(star3):
    dec = components_minus(star3, full_subtree(star3))
    assert dec.components == ()


def test_components_minus_flood_fill_oracle(comb3):
    base = geodesic(comb3, V("b@-1"), V("b@1"))
    dec = components_minus(comb3, base)
    # each component is one tooth: its measure equals the tooth height
    heights = sorted(h1_measure(c) for c in dec.components)
    assert heights == sorted([F(1), F(1), F(1, 2), F(1, 3)])


SEPARATION_TREES = {
    "arc": ("arc", {}), "star": ("star", {}),
    "comb3": ("comb", {"depth": 3}), "comb8": ("comb", {"depth": 8}),
    "riemann4": ("riemann", {"qmax": 4}), "cantor_comb2": ("cantor_comb", {"rank": 2}),
    "omega_star6": ("omega_star", {"arms": 6}), "gehman3": ("gehman", {"depth": 3}),
}


def _separation_tree(name):
    return generate(FamilyDescriptor(*SEPARATION_TREES[name]))


def _test_subtrees(D, seed):
    """Points, balls, geodesics and spans through vertices and edge midpoints."""
    rng = random.Random(seed)
    pts = grid_points(D, full_subtree(D), steps=2)
    mids = [p for p in pts if not p.is_vertex]
    out = [point_subtree(D, V(D.vertices[-1])), point_subtree(D, rng.choice(mids))]
    out += [ball(D, rng.choice(pts), r) for r in (F(1, 7), F(1, 3))]
    out += [geodesic(D, *rng.sample(pts, 2)) for _ in range(2)]
    out += [geodesic(D, rng.choice(mids), rng.choice(pts))]
    out += [span_subtree(D, rng.sample(pts, 3))]
    return out


@pytest.mark.parametrize("name", list(SEPARATION_TREES))
def test_components_minus_by_definition(name):
    D = _separation_tree(name)
    grid = grid_points(D, full_subtree(D), steps=3)
    for E in _test_subtrees(D, seed=len(name)):
        dec = components_minus(D, E)
        for comp, c in zip(dec.components, dec.boundary_points):
            assert intersect_subtrees(D, comp, E) == point_subtree(D, c)
        outside = [p for p in grid if not contains_point(D, E, p)]
        owner = {}
        for p in outside:
            (owner[p],) = [i for i, comp in enumerate(dec.components)
                           if contains_point(D, comp, p)]
        for i, p in enumerate(outside):
            for q in outside[i + 1:]:
                apart = subtrees_intersect(geodesic(D, p, q), E)
                assert (owner[p] == owner[q]) == (not apart)
        assert len(set(owner.values())) == len(dec.components)


def _membership_upper(D, a, x, y):
    # y in D^a(x) iff x lies on [a, y]
    return dist(D, a, y) == dist(D, a, x) + dist(D, x, y)


def _upper_set(D, a, x):
    """D^a(x): {x} with the components of D minus {x} that miss a."""
    X = point_subtree(D, x)
    parts = [comp for comp in components_minus(D, X).components
             if a == x or not contains_point(D, comp, a)]
    return union_connected(D, [X] + parts)


def _in_boundary(D, E, p, eps=F(1, 10**9)):
    """p in E with a point of D outside E at distance eps from it."""
    if not contains_point(D, E, p):
        return False
    if p.is_vertex:
        probes = [D.point(ei, eps if e.u == p.vertex else e.length - eps)
                  for ei, e in enumerate(D.edges) if p.vertex in (e.u, e.v)]
    else:
        probes = [D.point(p.edge, p.offset - eps), D.point(p.edge, p.offset + eps)]
    return any(not contains_point(D, E, q) for q in probes)


@pytest.mark.parametrize("name", list(SEPARATION_TREES))
def test_upper_set_and_boundary_oracle(name):
    # the upper sets and the boundary of E, both read off components_minus
    D = _separation_tree(name)
    rng = random.Random(len(name))
    pts = grid_points(D, full_subtree(D), steps=2)
    mids = [p for p in pts if not p.is_vertex]
    grid = grid_points(D, full_subtree(D), steps=4)
    pairs = [(rng.choice(mids), rng.choice(mids)) for _ in range(4)]
    pairs += [(rng.choice(pts), rng.choice(pts)) for _ in range(4)]
    pairs += [(mids[0], mids[0])]
    for a, x in pairs:
        S = _upper_set(D, a, x)
        for y in grid:
            assert contains_point(D, S, y) == _membership_upper(D, a, x, y)
    for E in _test_subtrees(D, seed=len(name)) + [full_subtree(D)]:
        boundary = set(components_minus(D, E).boundary_points)
        for p in grid:
            assert (p in boundary) == _in_boundary(D, E, p)


def test_upper_set_star3(star3):
    S = _upper_set(star3, V("e1"), V("c"))
    # {c} plus arms 2 and 3
    assert contains_point(star3, S, V("e2"))
    assert contains_point(star3, S, V("e3"))
    assert contains_point(star3, S, V("c"))
    assert not contains_point(star3, S, star3.point(0, F(1, 4)))
    for y in grid_points(star3, full_subtree(star3), steps=6):
        assert contains_point(star3, S, y) == _membership_upper(
            star3, V("e1"), V("c"), y
        )


def test_upper_set_a_equals_x(star3):
    assert is_full(star3, _upper_set(star3, V("c"), V("c")))


def test_upper_set_endpoint(star3):
    S = _upper_set(star3, V("c"), V("e1"))
    assert S == point_subtree(star3, V("e1"))


def test_upper_set_interior_point(star3):
    x = star3.point(0, F(1, 4))  # middle of arm 1
    S = _upper_set(star3, V("c"), x)
    # the far side: outer half of arm 1 including the tip
    assert contains_point(star3, S, V("e1"))
    assert contains_point(star3, S, x)
    assert not contains_point(star3, S, V("c"))
    assert h1_measure(S) == F(1, 4)
    for y in grid_points(star3, full_subtree(star3), steps=8):
        assert contains_point(star3, S, y) == _membership_upper(star3, V("c"), x, y)


# ---------------------------------------------------------------- orders, measure


def test_point_order(star3, comb3):
    assert point_order(star3, V("c")) == 3
    assert point_order(star3, V("e1")) == 1
    assert point_order(comb3, V("b@1/2")) == 3
    assert point_order(comb3, comb3.point(0, comb3.edge_length(0) / 2)) == 2


def test_ideal_point_order_omega_star():
    import math

    from dendro.gallery import FamilyDescriptor, generate

    D = generate(FamilyDescriptor("omega_star", {"arms": 4, "q": F(1, 2)}))
    assert ideal_point_order(D, D.marked["center"]) == math.inf
    assert point_order(D, D.marked["center"]) == 4


def test_h1_measure(star3):
    assert h1_measure(full_subtree(star3)) == 1
    assert h1_measure(point_subtree(star3, V("c"))) == 0
    half_arm = make_subtree(star3, {0: (F(0), F(1, 4))})
    assert h1_measure(half_arm) == F(1, 4)


# ---------------------------------------------------------------- subtree algebra


def test_span_and_union(star3):
    S = span_subtree(star3, [V("e1"), V("e2"), V("e3")])
    assert is_full(star3, S)
    parts = [geodesic(star3, V("c"), V("e1")), geodesic(star3, V("c"), V("e2"))]
    u = union_connected(star3, parts)
    assert h1_measure(u) == F(5, 6)


def test_union_disconnected_components(star3):
    a = make_subtree(star3, {0: (F(1, 4), F(1, 2))})
    b = make_subtree(star3, {1: (F(1, 6), F(1, 3))})
    comps = union_subtrees(star3, [a, b])
    assert len(comps) == 2


def test_intersection_of_arms(star3):
    a1 = geodesic(star3, V("c"), V("e1"))
    a2 = geodesic(star3, V("c"), V("e2"))
    cap = intersect_subtrees(star3, a1, a2)
    assert cap == point_subtree(star3, V("c"))


def _raw_intersection(D, S1, S2):
    """The per-edge overlaps and shared vertices, put in canonical form by
    make_subtree."""
    ivs = {}
    for e, (a, b) in S1.intervals.items():
        iv = S2.intervals.get(e)
        if iv is not None and max(a, iv[0]) <= min(b, iv[1]):
            ivs[e] = (max(a, iv[0]), min(b, iv[1]))
    return make_subtree(D, ivs, S1.vertices & S2.vertices)


_grid_point = st.tuples(st.integers(min_value=0, max_value=9),
                        st.fractions(min_value=0, max_value=1, max_denominator=4))


@settings(max_examples=80, deadline=None)
@given(p1=st.lists(_grid_point, min_size=1, max_size=3),
       p2=st.lists(_grid_point, min_size=1, max_size=3))
def test_intersect_subtrees_is_canonical_raw_intersection(comb3, star3, p1, p2):
    # coarse grids make the spans often touch at a vertex or one interior point
    for D in (comb3, star3):
        S1, S2 = (span_subtree(D, [D.point(e % len(D.edges),
                                           D.edge_length(e % len(D.edges)) * t)
                                   for e, t in pts])
                  for pts in (p1, p2))
        assert intersect_subtrees(D, S1, S2) == _raw_intersection(D, S1, S2)


def test_intersect_subtrees_touching_sets(star3):
    half = F(1, 4)  # the middle of arm 0, of length 1/2
    inner = make_subtree(star3, {0: (F(0), half)})
    outer = make_subtree(star3, {0: (half, F(1, 2))})
    other = geodesic(star3, V("c"), V("e2"))
    for S1, S2, want in (
        (inner, outer, point_subtree(star3, star3.point(0, half))),
        (inner, other, point_subtree(star3, V("c"))),
        (outer, other, make_subtree(star3)),
    ):
        got = intersect_subtrees(star3, S1, S2)
        assert got == want == _raw_intersection(star3, S1, S2)


def test_helly_property(comb3):
    rng = random.Random(11)
    pts = grid_points(comb3, full_subtree(comb3), steps=4)
    done = 0
    while done < 40:
        picks = [rng.sample(range(len(pts)), 2) for _ in range(3)]
        subs = [span_subtree(comb3, [pts[i], pts[j]]) for i, j in picks]
        if all(
            subtrees_intersect(subs[i], subs[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ):
            total = intersect_subtrees(
                comb3, intersect_subtrees(comb3, subs[0], subs[1]), subs[2]
            )
            assert not total.is_empty()
            done += 1


def test_subtree_dist_and_diam(star3):
    s1 = make_subtree(star3, {0: (F(1, 4), F(1, 2))})  # outer half of arm 1
    s2 = make_subtree(star3, {1: (F(1, 6), F(1, 3))})  # outer half of arm 2
    assert subtree_dist(star3, s1, s2) == F(1, 4) + F(1, 6)
    assert subtree_dist(star3, s1, s1) == 0
    assert subtree_diam(star3, full_subtree(star3)) == F(5, 6)
    assert subtree_diam(star3, s1) == F(1, 4)


def _edge_point(D, e, t):
    """The point at fraction t of edge e (taken modulo the edge count)."""
    e %= len(D.edges)
    return D.point(e, D.edge_length(e) * t)


_fraction = st.fractions(min_value=0, max_value=1, max_denominator=8)
_set_spec = st.one_of(
    st.tuples(st.just("span"), st.lists(_grid_point, min_size=1, max_size=4)),
    st.tuples(st.just("ball"), _grid_point,
              st.fractions(min_value=0, max_value=3, max_denominator=12)),
    st.tuples(st.just("interval"), st.integers(min_value=0, max_value=99),
              _fraction, _fraction),
)


def _drawn_set(D, spec):
    """A span of grid points, a ball, or one edge's interval (a lone point
    when its ends agree)."""
    kind, *args = spec
    if kind == "span":
        return span_subtree(D, [_edge_point(D, *p) for p in args[0]])
    if kind == "ball":
        return ball(D, _edge_point(D, *args[0]), args[1])
    e, a, b = args
    e %= len(D.edges)
    L = D.edge_length(e)
    return make_subtree(D, {e: (L * a, L * b)})


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(SEPARATION_TREES)),
       specs=st.lists(_set_spec, min_size=1, max_size=6))
def test_sweeps_match_plain_double_sweep(name, specs):
    D = _separation_tree(name)
    for S in [full_subtree(D)] + [_drawn_set(D, spec) for spec in specs]:
        ends = plain_diameter_ends(D, S)
        assert diameter_ends(D, S) == ends, S
        assert subtree_diam(D, S) == dist(D, *ends), S


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(SEPARATION_TREES)),
       specs=st.lists(_set_spec, min_size=1, max_size=6))
def test_memoized_diameter_equals_fresh_tree(name, specs):
    # one tree measures every set, twice, so a set may read an earlier
    # set's memo entry; a fresh copy of the tree measures each set anew.
    # The fixed sets share their vertices pairwise (none, or the first
    # vertex alone) but not their diameters.
    D = _separation_tree(name)
    L = D.edge_length(0)
    r = min(e.length for e in D.edges)
    fixed = [make_subtree(D, {0: (L / 8, L / 4)}), make_subtree(D, {0: (L / 8, L / 2)}),
             ball(D, V(D.vertices[0]), r / 3), ball(D, V(D.vertices[0]), r / 2)]
    for S in fixed + [_drawn_set(D, spec) for spec in specs]:
        fresh = Dendrite.from_dict(D.to_dict())
        assert subtree_diam(D, S) == subtree_diam(D, S) == subtree_diam(fresh, S), S


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(SEPARATION_TREES)),
       specs=st.lists(_set_spec, min_size=1, max_size=5),
       rng=st.randoms(use_true_random=False))
def test_a_set_is_its_own_key(name, specs, rng):
    # a set built three other ways (its intervals in shuffled order, a file
    # round trip, its intersection with itself) is the same key: equal,
    # with an equal hash, one entry in a map's image memo and in an orbit's
    # index.  Sets whose files differ are unequal.
    D = _separation_tree(name)
    sets = [_drawn_set(D, spec) for spec in specs]
    for S in sets:
        items = list(S.intervals.items())
        rng.shuffle(items)
        copies = [make_subtree(D, dict(items), S.vertices),
                  Subtree.from_dict(S.to_dict()), intersect_subtrees(D, S, S)]
        assert all(C == S and hash(C) == hash(S) for C in copies), S
        Fm = identity_map(D)
        orbits = [set_orbit(Fm, C) for C in [S] + copies]
        assert all(orbit.at(3) == S for orbit in orbits)
        assert len(Fm._image_memo) == 1
        assert [(o.preperiod, o.period, len(o._index)) for o in orbits] == [(0, 1, 1)] * 4
    for S in sets:
        for T in sets:
            assert (S == T) == (S.to_dict() == T.to_dict()), (S, T)


def test_a_set_cannot_be_written(star3):
    S = make_subtree(star3, {0: (F(0), F(1, 4))})
    hash(S)
    for field in ("vertices", "intervals", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(S, field, None)
    with pytest.raises((AttributeError, TypeError)):
        S.extra = 1
    assert S == make_subtree(star3, {0: (F(0), F(1, 4))})


def test_diameter_of_the_empty_set_is_a_geometry_error(star3):
    for measure in (diameter_ends, subtree_diam):
        with pytest.raises(GeometryError, match="empty set"):
            measure(star3, make_subtree(star3))


@pytest.mark.parametrize("name", list(SEPARATION_TREES))
def test_span_and_subtree_dist_oracles(name):
    # random spans of one to four grid points, among them a lone vertex and
    # a lone interior point: each equals the union of the arcs from its
    # first point, and the distance of two disjoint ones is the least
    # distance between their interval ends and vertices, since the bridge
    # between them ends at such points
    D = _separation_tree(name)
    rng = random.Random(len(name))
    pts = grid_points(D, full_subtree(D), steps=4)
    picks = [[V(D.vertices[-1])], [D.point(0, D.edge_length(0) / 4)]]
    picks += [rng.sample(pts, rng.randint(1, 4)) for _ in range(22)]
    sets = []
    for points in picks:
        S = span_subtree(D, points)
        assert S == span_by_geodesics(D, points), points
        sets.append(S)
    assert any(S.is_degenerate() and S.intervals for S in sets)
    assert any(S.is_degenerate() and S.vertices for S in sets)
    for S1 in sets:
        for S2 in sets:
            if subtrees_intersect(S1, S2):
                expected = 0
            else:
                expected = min(plain_dist(D, p, q) for p in subtree_points(D, S1)
                               for q in subtree_points(D, S2))
            assert subtree_dist(D, S1, S2) == expected, (S1, S2)


def _kin(D, ex):
    """Edges by their place relative to edge ex, rooted at vertices[0] by
    Dijkstra distances: ex itself, its parent edge, the edges below its
    child end, and every edge."""
    rd = dijkstra_dists(D.to_dict(), D.vertices[0])
    child = [e.v if rd[e.v] > rd[e.u] else e.u for e in D.edges]
    e = D.edges[ex]
    top = e.u if child[ex] == e.v else e.v
    return {
        "same": [ex],
        "parent": [i for i, c in enumerate(child) if c == top],
        "child": [i for i, f in enumerate(D.edges)
                  if i != ex and child[ex] in (f.u, f.v)],
        "any": list(range(len(D.edges))),
    }


_inner = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(
    lambda t: 0 < t < 1)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(list(FAMILIES)), edge=st.integers(0, 99),
       pick=st.integers(0, 99), tx=_fraction, ty=_fraction,
       ivs=st.lists(_inner, min_size=4, max_size=4),
       kinds=st.tuples(st.sampled_from(["vertex", "span"]),
                       st.sampled_from(["vertex", "span"])))
def test_geometry_matches_the_plain_oracles(family, edge, pick, tx, ty, ivs, kinds):
    # points on one edge, on an edge and its parent or child edge, and on
    # any two edges; sets inside one edge (no vertex, a lone point when its
    # ends agree), one end vertex of an edge, or a span from a point of it:
    # dist, the geodesic's legs and the set distance, both ways, equal the
    # four-exit minimum over Dijkstra distances
    D = generate(FamilyDescriptor(family, {}))
    ex = edge % len(D.edges)
    for relation, edges in _kin(D, ex).items():
        if not edges:
            continue
        ey = edges[pick % len(edges)]
        x, y = _edge_point(D, ex, tx), _edge_point(D, ey, ty)
        assert dist(D, x, y) == dist(D, y, x) == plain_dist(D, x, y), relation
        assert geodesic_walk(D, x, y) == plain_geodesic_legs(D, x, y), relation
        assert geodesic_walk(D, y, x) == plain_geodesic_legs(D, y, x), relation

        def inside(ei, a, b):
            a, b = sorted((a, b))
            return make_subtree(D, {ei: (D.edge_length(ei) * a, D.edge_length(ei) * b)})

        def around(ei, p, kind):
            if kind == "vertex":
                return point_subtree(D, V(D.edges[ei].u if pick % 2 else D.edges[ei].v))
            return span_subtree(D, [p, _edge_point(D, pick + ei, ty)])

        free1, free2 = inside(ex, *ivs[:2]), inside(ey, *ivs[2:])
        for S1, S2 in ((free1, free2), (free1, around(ey, y, kinds[1])),
                       (around(ex, x, kinds[0]), free2),
                       (around(ex, x, kinds[0]), around(ey, y, kinds[1]))):
            want = plain_subtree_dist(D, S1, S2)
            assert subtree_dist(D, S1, S2) == subtree_dist(D, S2, S1) == want, (
                relation, S1, S2)


# ---------------------------------------------------------------- balls


def test_ball_is_exact_distance_sublevel(star3):
    # on star3 and the eight separation trees, around vertices and edge
    # midpoints: the ball is canonical, holds exactly the grid points within
    # the radius, and each interval end short of its edge's end is at the
    # radius
    for D in [star3] + [_separation_tree(name) for name in SEPARATION_TREES]:
        rng = random.Random(len(D.vertices))
        mids = [D.point(ei, e.length / 2) for ei, e in enumerate(D.edges)]
        centres = [V(D.vertices[0]), V(D.vertices[-1]),
                   *rng.sample(mids, min(2, len(mids)))]
        grid = grid_points(D, full_subtree(D), steps=8)
        for x in centres:
            for r in (F(0), F(1, 7), F(1, 4), F(1, 3), F(1), F(5, 2)):
                B = ball(D, x, r)
                assert make_subtree(D, B.intervals, B.vertices) == B
                for p in grid:
                    assert contains_point(D, B, p) == (dist(D, x, p) <= r)
                for e, (a, b) in B.intervals.items():
                    for t in (a, b):
                        if 0 < t < D.edge_length(e):
                            assert dist(D, x, D.point(e, t)) == r


_radius = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(SEPARATION_TREES)), centre=_grid_point,
       radius=_radius, more=st.lists(_radius, max_size=3))
def test_ball_equals_per_vertex_dist_ball(name, centre, radius, more):
    D = _separation_tree(name)
    x = _edge_point(D, *centre)
    assert ball(D, x, radius) == plain_ball(D, x, radius)
    # the balls family clips every radius about one centre from one walk
    radii = [radius, *more]
    assert _balls(D, x, radii) == [plain_ball(D, x, r) for r in radii]


def test_ball_around_edge_point(comb3):
    x = comb3.point(0, comb3.edge_length(0) / 2)
    B = ball(comb3, x, F(1, 8))
    for p in grid_points(comb3, full_subtree(comb3), steps=8):
        assert contains_point(comb3, B, p) == (dist(comb3, x, p) <= F(1, 8))


def test_ball_radius_covers_everything(star3):
    assert is_full(star3, ball(star3, V("c"), F(2)))


# ---------------------------------------------------------------- refinement, io


def test_refine_at_preserves_geometry(star3):
    x = star3.point(0, F(1, 4))
    D2, mp = refine_at(star3, [x])
    assert len(D2.edges) == len(star3.edges) + 1
    assert D2.total_length() == star3.total_length()
    assert mp(x).is_vertex


def test_dendrite_roundtrip(comb3):
    from dendro.metric_tree import Dendrite

    d = comb3.to_dict()
    back = Dendrite.from_dict(d)
    assert back == comb3
    assert back.to_dict() == d
