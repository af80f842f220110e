import random
from fractions import Fraction

import pytest
from oracles import plain_phi, plain_psi, scan_fold_cuts, stepwise_sawtooth

from dendro.exact_builder import _nu_lap_count
from dendro.gallery import FAMILIES, FamilyDescriptor, generate
from dendro.length_expanding import (
    BuildError,
    DenseFamily,
    Zigzag,
    build_pair,
    build_phi_on_subtree,
    check_length_expanding,
    double_cover_walk,
    fold_cuts,
    initial_lap_count,
    normalize_measure,
    reverify,
    unit_arc,
)
from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    dist,
    full_subtree,
    h1_measure,
    is_full,
    make_subtree,
    point_on_walk,
)
from dendro.tree_map import TreeMap, identity_map

F = Fraction


def V(name):
    return PointRef(vertex=name)


# ---------------------------------------------------------------- checker


def test_tent_fails_at_rho_2(tent, unit_arc):
    w = check_length_expanding(
        tent, DenseFamily("all_closed_intervals"), rho=F(2), samples=40
    )
    assert w is not None
    # deterministic sampler hits the straddling interval [1/4, 3/4]
    assert w.set_ == make_subtree(unit_arc, {0: (F(1, 4), F(3, 4))})
    assert w.image_measure == F(1, 2) and w.measure == F(1, 2)
    assert reverify(tent, w)


def test_identity_witness(unit_arc):
    w = check_length_expanding(
        identity_map(unit_arc),
        DenseFamily("all_closed_intervals"),
        rho=F(6, 5),
        samples=10,
    )
    assert w is not None
    assert w.set_ == make_subtree(unit_arc, {0: (F(0), F(1, 2))})
    assert reverify(identity_map(unit_arc), w)


def test_slope3_zigzag_passes_rho_3_2(unit_arc):
    # three monotone laps of slope 3: expansion at least 3/2 off full covers
    zig = TreeMap(
        unit_arc,
        unit_arc,
        vertex_images={"0": V("0"), "1": V("1")},
        edge_breaks={
            0: ((F(1, 3), V("1")), (F(2, 3), V("0"))),
        },
    )
    w = check_length_expanding(
        zig, DenseFamily("all_closed_intervals"), rho=F(3, 2), samples=120, seed=5
    )
    assert w is None


# ---------------------------------------------------------------- walks / zigzags


def test_double_cover_walk_star(star3):
    legs = double_cover_walk(star3, full_subtree(star3), "c")
    assert len(legs) == 6  # each arm down and back
    total = 2 * star3.total_length()
    assert sum(abs(b - a) for _e, a, b in legs) == total
    assert point_on_walk(star3, legs, F(0)) == V("c")
    assert point_on_walk(star3, legs, total) == V("c")


def _offset(arc, p):
    if p.is_vertex:
        return F(0) if p.vertex == "0" else arc.edge_length(0)
    return p.offset


def test_zigzag_tree_map_controls_match_stepwise():
    # the wave on the unit arc, as a TreeMap, has a control at every fold
    # and at both ends, whatever the start
    unit = unit_arc()
    for total in (F(1), F(2), F(1, 3), F(7, 5)):
        arc = Dendrite(["0", "1"], [("0", "1", total)])
        for laps in range(1, 13):
            for start in (F(0), total / 3, total / 2, 3 * total / 4):
                wave = Zigzag(unit, full_subtree(unit), "0", laps, arc, start)
                ctrl = [(t, _offset(arc, p)) for t, p in wave.tree_map().controls(0)]
                assert ctrl == stepwise_sawtooth(total, laps, start), (
                    total, laps, start)


def test_fold_cuts_match_scan():
    cases = [
        (F(0), F(1), F(1), 4),  # folds at 1/4, 1/2, 3/4
        (F(1), F(0), F(2), 2),  # reversed edge: one fold, mid-edge
        (F(1, 4), F(1, 2), F(1), 4),  # both ends on folds: none inside
        (F(1, 3), F(2, 5), F(3, 7), 1),  # laps 1: no fold inside (0, 1)
    ]
    rng = random.Random(5)
    for _ in range(400):
        nu, nv = (F(rng.randint(0, 24), 24) for _ in range(2))
        if nu != nv:
            cases.append((nu, nv, F(rng.randint(1, 9), rng.randint(1, 9)),
                          rng.randint(1, 12)))
    for nu, nv, length, laps in cases:
        assert fold_cuts(nu, nv, length, laps) == scan_fold_cuts(
            nu, nv, length, laps
        ), (nu, nv, length, laps)
    assert fold_cuts(F(0), F(1), F(1), 4) == [F(1, 4), F(1, 2), F(3, 4)]
    assert fold_cuts(F(1, 4), F(1, 2), F(1), 4) == []


def test_initial_lap_count():
    assert initial_lap_count(F(6, 5)) == 4
    assert initial_lap_count(F(3)) == 6
    # the sawtooth nu on a blown-up interval of a given total: laps >= 4/total
    assert _nu_lap_count(F(3, 4)) == 6
    assert _nu_lap_count(F(4)) == 2


def test_zigzag_root_outside_region_fails(star3):
    arm = make_subtree(star3, {0: (F(0), star3.edge_length(0))})
    outside = next(v for v in star3.vertices if v not in arm.vertices)
    with pytest.raises(GeometryError, match="not in its region"):
        Zigzag(star3, arm, outside, 4, unit_arc())


def test_zigzag_region_of_partial_edges_fails(star3):
    half_arm = make_subtree(star3, {0: (F(0), star3.edge_length(0) / 2)})
    with pytest.raises(GeometryError, match="whole edges"):
        Zigzag(star3, half_arm, "c", 4, unit_arc())


@pytest.mark.parametrize("family,params,base", [
    ("comb", {"depth": 4}, "A"),
    ("riemann", {"qmax": 4}, "A"),
    ("star", {}, "center"),
])
def test_zigzag_norm_reads_root_distances(family, params, base):
    # on every bush, at every vertex and at every end of a linearity piece
    # (vertices and fold points inside edges), the table gives dist / reach
    from dendro.exact_builder import decompose_bushes
    from dendro.metric_tree import geodesic

    D = generate(FamilyDescriptor(family, params))
    if base == "A":
        A = geodesic(D, D.resolve_marked("A_left"), D.resolve_marked("A_right"))
    else:
        A = D.resolve_marked(base)
    dec = decompose_bushes(D, A)
    assert dec.bushes
    # and the whole tree from its last vertex, so some edges run to the root
    regions = [(b.subtree, b.root) for b in dec.bushes]
    regions.append((full_subtree(dec.space), dec.space.vertices[-1]))
    for region, root in regions:
        for laps in (2, 6):
            z = Zigzag(dec.space, region, root, laps, unit_arc())
            points = [V(v) for v in region.vertices]
            points += [dec.space.point(e, t) for e, lo, hi in z.pieces()
                       for t in (lo, hi)]
            for x in points:
                assert z._norm(x) == dist(dec.space, V(root), x) / z.reach


# ---------------------------------------------------------------- build_pair


def test_build_pair_arc_endpoints(unit_arc):
    built = build_pair(unit_arc, V("0"), rho=F(6, 5), samples=80, seed=2)
    phi, psi = built.phi, built.psi
    assert built.laps == 4  # four monotone stretches over the doubled walk
    assert phi.apply(V("0")) == V("0")
    assert phi.apply(V("1")) == V("0")
    assert psi.apply(V("0")) == V("0")
    # surjectivity: union of edge images is the whole space
    assert is_full(built.space, phi.image(full_subtree(phi.domain)))
    assert is_full(psi.codomain, psi.image(full_subtree(built.space)))


def test_build_pair_star3(star3):
    built = build_pair(star3, V("e1"), rho=F(6, 5), samples=80, seed=3)
    assert built.retries <= 2
    assert h1_measure(full_subtree(built.space)) == 1
    assert built.phi.apply(V("0")) == V("e1")
    assert built.phi.apply(V("1")) == V("e1")
    assert built.psi.apply(V("e1")) == V("0")
    assert is_full(built.space, built.phi.image(full_subtree(built.phi.domain)))


def test_build_pair_normalizes_measure(star3):
    doubled = Dendrite(
        star3.vertices,
        [(e.u, e.v, 2 * e.length) for e in star3.edges],
        marked=dict(star3.marked),
    )
    built = build_pair(doubled, V("e1"), rho=F(6, 5), samples=40, seed=1)
    assert built.space.total_length() == 1


def test_phi_and_psi_match_plain_builders():
    # the wave composed with the walk, and the distance Zigzag as a TreeMap,
    # give the same bytes as the point-by-point loops
    for fam in FAMILIES:
        T = normalize_measure(generate(FamilyDescriptor(fam, {})))
        whole = full_subtree(T)
        for root in T.vertices[:: max(1, len(T.vertices) // 3)]:
            reach = max(dist(T, V(root), V(v)) for v in T.vertices)
            for laps in range(1, 9):
                phi = build_phi_on_subtree(T, whole, root, laps)
                assert phi.to_dict() == plain_phi(T, whole, root, laps).to_dict(), (
                    fam, root, laps)
                wave = Zigzag(T, whole, root, laps, unit_arc())
                assert wave.reach == reach
                psi = wave.tree_map()
                assert psi.to_dict() == plain_psi(T, root, laps).to_dict(), (
                    fam, root, laps)


def test_one_vertex_tree_is_degenerate():
    with pytest.raises(GeometryError, match="degenerate tree"):
        build_pair(Dendrite(["a"], []), V("a"), F(6, 5))


def test_build_failure_carries_witness(unit_arc):
    # an undersized lap count with no retry budget must fail with a witness
    with pytest.raises(BuildError) as exc:
        build_pair(
            unit_arc, V("0"), rho=F(50), samples=40, seed=1, max_retries=0,
            initial_laps=2,
        )
    assert exc.value.witness is not None
    assert exc.value.witness.rho == F(50)
    assert exc.value.witness.image_measure < 50 * exc.value.witness.measure


def test_build_retry_doubles_laps(unit_arc):
    built = build_pair(
        unit_arc, V("0"), rho=F(3), samples=60, seed=1, initial_laps=2
    )
    assert built.retries >= 1
    assert built.laps > 2


def test_checker_rejects_rho_at_most_1(tent):
    with pytest.raises(Exception):
        check_length_expanding(
            tent, DenseFamily("all_closed_intervals"), rho=F(1), samples=5
        )


def test_phi_serializes(unit_arc):
    built = build_pair(unit_arc, V("0"), rho=F(6, 5), samples=30, seed=2)
    d = built.phi.to_dict()
    back = TreeMap.from_dict(d)
    assert back.to_dict() == d


from hypothesis import given, settings
from hypothesis import strategies as st

from dendro.length_expanding import sawtooth_image, sawtooth_value


@settings(max_examples=120, deadline=None)
@given(
    total=st.fractions(min_value="1/4", max_value=3, max_denominator=16),
    laps=st.integers(min_value=1, max_value=9),
    start_num=st.integers(min_value=0, max_value=12),
    a=st.fractions(min_value=0, max_value=1, max_denominator=48),
    b=st.fractions(min_value=0, max_value=1, max_denominator=48),
)
def test_sawtooth_image_matches_pointwise_range(total, laps, start_num, a, b):
    start = total * Fraction(start_num, 12)
    lo, hi = sawtooth_image(total, laps, start, a, b)
    if a > b:
        a, b = b, a
    # sampled values stay inside the reported range...
    samples = [a + (b - a) * Fraction(i, 16) for i in range(17)]
    vals = [sawtooth_value(total, laps, start, t) for t in samples]
    assert all(lo <= v <= hi for v in vals)
    # ...and both endpoints of the range are attained somewhere on [a, b]
    attained = set(vals)
    for target in (lo, hi):
        if target in attained:
            continue
        # the extremum sits at a fold point: locate it exactly
        found = False
        speed = laps * total
        if speed == 0:
            break
        u1, u2 = start + speed * a, start + speed * b
        m = -(-u1 // total)  # ceil
        while m * total <= u2:
            t = (m * total - start) / speed
            if a <= t <= b and sawtooth_value(total, laps, start, t) == target:
                found = True
                break
            m += 1
        assert found or sawtooth_value(total, laps, start, a) == target or (
            sawtooth_value(total, laps, start, b) == target
        )
