import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro import chaos, exact_builder, gallery, length_expanding, metric_tree, tree_map
from dendro.cli import load_map
from dendro.exact_builder import (
    Zigzag,
    assign_metric,
    build_exact,
    build_gch_not_eps,
    decompose_bushes,
    plan_targets,
    verify_exact,
)
from dendro.gallery import FamilyDescriptor, build_counterexample, generate
from dendro.length_expanding import (
    DenseFamily,
    build_pair,
    build_phi_on_subtree,
    check_length_expanding,
    initial_lap_count,
    psi_lap_count,
    reverify,
    unit_arc,
)
from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    contains_point,
    dist,
    full_subtree,
    geodesic,
    h1_measure,
    make_subtree,
    point_subtree,
    subtree_contains,
    subtree_diam,
    subtree_points,
    subtrees_intersect,
    union_connected,
)
from dendro.odometer import gehman_extend
from dendro.serialize import dump_json, dumps_json
from dendro.tree_map import TreeMap
from oracles import (
    bush_ends_and_reach,
    components,
    expansion_violations,
    grid_intervals,
    plain_apply,
    plain_conjugate_gch,
    plain_conjugate_point,
    plain_cover_times,
    plain_image,
)

F = Fraction


def V(name):
    return PointRef(vertex=name)


def comb_teeth_only(n):
    """Base [0,1] with teeth of height 1/k at 1/k (no extra segment)."""
    positions = sorted({F(0), F(1)} | {F(1, k) for k in range(1, n + 1)})
    vname = {x: f"b@{x}" for x in positions}
    vertices = [vname[x] for x in positions]
    edges = []
    for x0, x1 in zip(positions, positions[1:]):
        edges.append((vname[x0], vname[x1], x1 - x0))
    for k in range(1, n + 1):
        x = F(1, k)
        vertices.append(f"t@{x}")
        edges.append((vname[x], f"t@{x}", F(1, k)))
    marked = {
        "A_left": PointRef(vertex=vname[F(0)]),
        "A_right": PointRef(vertex=vname[F(1)]),
    }
    return Dendrite(vertices, edges, marked=marked)


# ---------------------------------------------------------------- decomposition


def test_decompose_comb4(comb4):
    A = geodesic(comb4, comb4.marked["A_left"], comb4.marked["A_right"])
    dec = decompose_bushes(comb4, A)
    assert len(dec.bushes) == 5  # four teeth plus the height-1 segment
    assert {b.root for b in dec.bushes} == {"b@0", "b@1", "b@1/2", "b@1/3", "b@1/4"}
    # ordered largest to smallest
    measures = [b.measure for b in dec.bushes]
    assert measures == sorted(measures, reverse=True)


def test_decompose_star_point(star3):
    dec = decompose_bushes(star3, V("c"))
    assert dec.base_kind == "point"
    assert len(dec.bushes) == 3
    assert all(b.root == "c" for b in dec.bushes)


def test_decompose_rejects_whole_space(star3):
    with pytest.raises(GeometryError):
        decompose_bushes(star3, full_subtree(star3))


def test_decompose_rejects_branched_base(comb4):
    # the tooth at 1/2, whole or cut off at half its height: a set whose
    # end lies inside an edge must not be traded for its longest arc
    arc = geodesic(comb4, V("b@-1"), V("b@1"))
    e = next(i for i, ed in enumerate(comb4.edges) if {ed.u, ed.v} == {"b@1/2", "t@1/2"})
    for top in (V("t@1/2"), comb4.point(e, comb4.edge_length(e) / 2)):
        Y = union_connected(comb4, [arc, geodesic(comb4, V("b@1/2"), top)])
        with pytest.raises(GeometryError, match="base must be an arc"):
            decompose_bushes(comb4, Y)
        with pytest.raises(GeometryError, match="base must be an arc"):
            build_exact(comb4, Y)


# ---------------------------------------------------------------- metric


def test_assign_metric_weights(comb4):
    A = geodesic(comb4, comb4.marked["A_left"], comb4.marked["A_right"])
    dec = decompose_bushes(comb4, A)
    asg = assign_metric(dec, F(1, 2))
    assert [b.index for b in asg.bushes] == [b.index for b in dec.bushes]
    assert asg.bushes[0].measure == F(1, 4)
    assert asg.bushes[1].measure == F(1, 8)
    assert h1_measure(asg.base) == F(1, 2)
    # ordering law: smaller index = larger measure
    for b1, b2 in zip(asg.bushes, asg.bushes[1:]):
        assert b1.measure > b2.measure
    for b in asg.bushes:
        assert h1_measure(b.subtree) == b.measure
    # the finite tree misses q^(K+1) of the unit measure
    assert h1_measure(full_subtree(asg.space)) + F(1, 2) ** (len(dec.bushes) + 1) == 1


def test_assign_metric_rejects_bad_q(comb4):
    A = geodesic(comb4, comb4.marked["A_left"], comb4.marked["A_right"])
    dec = decompose_bushes(comb4, A)
    with pytest.raises(GeometryError):
        assign_metric(dec, F(3, 2))


# ---------------------------------------------------------------- targets


def test_plan_targets_four_teeth(comb4):
    D = comb_teeth_only(4)
    A = geodesic(D, D.marked["A_left"], D.marked["A_right"])
    dec = decompose_bushes(D, A)
    # bushes sorted by size: tooth@1 -> 1, tooth@1/2 -> 2, ...
    roots = [b.root for b in dec.bushes]
    assert roots == ["b@1", "b@1/2", "b@1/3", "b@1/4"]
    asg = assign_metric(dec, F(1, 2))
    plan = plan_targets(asg)
    assert plan.targets[2] == 1  # root 1/2 attaches toward root 1
    assert plan.targets[3] == 2  # |1/3-1/2| < |1/3-1|
    assert plan.targets[4] == 3
    assert all(plan.targets[k] < k for k in plan.targets)
    # the base [0, 1] is rescaled to length 1/2; positions run from b@1
    assert plan.ends == (V("b@1"), V("b@0"))
    assert plan.positions == {1: F(0), 2: F(1, 4), 3: F(1, 3), 4: F(3, 8)}
    assert plan.members == {1: [1, 2, 3, 4], 2: [1, 2], 3: [2, 3], 4: [3, 4]}
    assert plan.spans == {1: (F(0), F(1, 2)), 2: (F(0), F(1, 4)),
                          3: (F(1, 4), F(1, 3)), 4: (F(1, 3), F(3, 8))}
    # on comb4 the largest bush, at b@0, lies past four smaller roots, so
    # the base order of a region's members is not their index order
    A = geodesic(comb4, comb4.marked["A_left"], comb4.marked["A_right"])
    plan = plan_targets(assign_metric(decompose_bushes(comb4, A), F(1, 2)))
    assert plan.members == {1: [2, 3, 4, 5, 1], 2: [2, 3, 4, 5, 1],
                            3: [3, 4, 5, 1], 4: [3, 4], 5: [4, 5]}
    assert plan.spans[1] == (F(0), F(1, 2))
    assert plan.spans[3] == (F(1, 8), F(1, 4))


def test_chain_reaches_one(comb4):
    Fm = build_exact(comb4, "A", q=F(1, 2), rho=F(6, 5))
    chains = verify_exact(Fm, 1).chains
    K = len(Fm.parts)
    assert sorted(chains) == list(range(2, K + 1))
    for chain in chains.values():
        assert chain[-1] == 1
        assert len(chain) <= K
        assert all(a > b for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------- build_exact (arc)


@pytest.fixture(scope="module")
def comb4_map():
    comb4 = generate(FamilyDescriptor("comb", {"depth": 4}))
    return build_exact(comb4, "A", q=F(1, 2), rho=F(6, 5))


def test_identity_on_base(comb4_map):
    Fm = comb4_map
    D = Fm.domain
    rng = random.Random(1)
    pts = []
    for e, (a, b) in sorted(Fm.base.intervals.items()):
        for i in range(1, 8):
            pts.append(D.point(e, a + (b - a) * F(i, 8)))
    for p in pts:
        assert Fm.apply(p) == p


def test_roots_fixed(comb4_map):
    for part in comb4_map.parts:
        root = V(part.root)
        assert comb4_map.apply(root) == root


def test_first_bush_covers_everything(comb4_map):
    img = comb4_map.image(comb4_map.parts[0].region)
    assert img == full_subtree(comb4_map.domain)


def _manifest_shells(Fm):
    """(arc, teeth, region) of each shell of a glued_pieces map, read off its
    manifest: the base clipped at the shell's radius about the anchor, and
    the bushes of the base rooted at the shell's roots."""
    from dendro.serialize import parse_rat

    D = Fm.domain
    anchor = D.marked["origin"]
    ends = metric_tree.diameter_ends(D, Fm.base)
    bushes = decompose_bushes(D, Fm.base).bushes
    out = []
    for entry in Fm.manifest["pieces"]:
        radius = parse_rat(entry["arc_radius"])
        clips = [metric_tree.point_along(D, anchor, end, min(radius, dist(D, anchor, end)))
                 for end in ends]
        arc = geodesic(D, *clips)
        teeth = [b for b in bushes if b.root in entry["bush_roots"]]
        out.append((arc, teeth, union_connected(D, [arc] + [b.subtree for b in teeth])))
    return out


def test_region_images_match_manifest(comb4_map, comb_gch8_map):
    # the manifest is laid out from the plan, a region's measure as its span
    # of base plus its members' measures; each part's image of its bush has
    # that measure, and the bushes are those of the map's own space and base
    from dendro.serialize import parse_rat

    maps = [("comb4", comb4_map),
            ("comb8", build_exact(generate(FamilyDescriptor("comb", {"depth": 8})), "A")),
            ("riemann4", build_exact(generate(FamilyDescriptor("riemann", {"qmax": 4})), "A"))]
    for name, Fm in maps:
        assert Fm.kind == "glued_exact", name
        bushes = decompose_bushes(Fm.domain, Fm.base).bushes
        assert [b.subtree for b in bushes] == [part.region for part in Fm.parts], name
        assert [b.root for b in bushes] == [part.root for part in Fm.parts], name
        for part, entry in zip(Fm.parts, Fm.manifest["parts"]):
            measure = h1_measure(part.image(part.region))
            assert measure == parse_rat(entry["region_measure"]), (name, entry["bush"])
    # comb_gch 8: the parts are the shells' teeth, shell by shell, and each
    # shell's first tooth covers its region, whose measure the manifest gives
    Fm = comb_gch8_map
    shells = _manifest_shells(Fm)
    teeth = [b for _, shell_teeth, _ in shells for b in shell_teeth]
    assert [b.subtree for b in teeth] == [part.region for part in Fm.parts]
    assert [b.root for b in teeth] == [part.root for part in Fm.parts]
    for (_, shell_teeth, region), entry in zip(shells, Fm.manifest["pieces"]):
        assert Fm.image(shell_teeth[0].subtree) == region
        assert h1_measure(region) == parse_rat(entry["region_measure"]), entry["piece"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_file_subtree_connected_iff_one_flood_fill_component(data):
    # _subtree_in counts links between a set's vertices and intervals; a set
    # is kept iff it is nonempty and one component by flood fill, which for
    # a canonical set is also when it spans itself
    D = generate(FamilyDescriptor("comb", {"depth": 3}))
    ends = [F(0), F(1, 3), F(1, 2), F(1)]
    ivs = {}
    for e in data.draw(st.sets(st.integers(0, len(D.edges) - 1), max_size=4)):
        a, b = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
        ivs[e] = (a * D.edge_length(e), b * D.edge_length(e))
    verts = data.draw(st.sets(st.sampled_from(D.vertices), max_size=3))
    try:
        S = make_subtree(D, ivs, verts)
    except GeometryError:
        return
    keep = not S.is_empty() and len(components(D, S)) == 1
    assert keep == (not S.is_empty() and metric_tree.span_subtree(D, subtree_points(D, S)) == S)
    if keep:
        assert exact_builder._subtree_in(D, S.to_dict(), "set") == S
    else:
        with pytest.raises(ValueError, match="set is (empty|not connected)"):
            exact_builder._subtree_in(D, S.to_dict(), "set")


def test_verify_exact_comb4(comb4_map):
    cert = verify_exact(comb4_map, 12)
    assert cert.all_bush_pieces_covered
    assert cert.chain_ok
    assert cert.max_cover_time <= len(comb4_map.parts) + 1
    base_rows = [r for r in cert.rows if r.kind == "base"]
    assert base_rows and all(r.covered_at is None for r in base_rows)


@pytest.mark.parametrize("targets", [{2: 3, 3: 2}, {2: 7}],
                         ids=["cycle", "no_such_bush"])
def test_verify_exact_rejects_bad_manifest_chain(comb4_map, targets):
    # verify_exact reads the chain from the manifest; a map built in memory
    # with a cycle or a target that names no bush fails the chain, in
    # bounded time.  A file cannot carry such targets: the loader derives them
    d = comb4_map.to_dict()
    for entry in d["manifest"]["parts"]:
        entry["target"] = targets.get(entry["bush"], entry["target"])
    Fm = exact_builder.GluedExactMap(comb4_map.domain, comb4_map.base, comb4_map.parts,
                                     manifest=d["manifest"])
    cert = verify_exact(Fm, 1)
    assert not cert.chain_ok
    assert all(len(chain) <= len(d["parts"]) + 1 for chain in cert.chains.values())
    with pytest.raises(ValueError, match=r"manifest\.parts\[1\]\.target reads"):
        exact_builder.map_from_dict(d)


def _one_tooth_arc():
    """An arc l-m-r, A marked at its ends, with one tooth m-t."""
    return Dendrite(["l", "m", "r", "t"],
                    [("l", "m", F(1, 2)), ("m", "r", F(1, 2)), ("m", "t", F(1, 3))],
                    marked={"A_left": V("l"), "A_right": V("r")})


def test_build_exact_one_bush():
    # one tooth on an arc: K = 1, no target, region 1 rides the whole base
    Fm = build_exact(_one_tooth_arc(), "A")
    assert len(Fm.parts) == 1 and Fm.manifest["parts"][0]["target"] is None
    cert = verify_exact(Fm, 4)
    assert cert.chains == {} and cert.chain_ok
    assert cert.all_bush_pieces_covered
    assert all(r.covered_at == 1 for r in cert.rows if r.kind == "bush")
    for p in subtree_points(Fm.domain, Fm.base):
        assert Fm.apply(p) == p


def test_verify_identity_never_covers(comb4_map):
    # each edge is a piece that the identity fixes, so the piece graph
    # exists and every piece's mask repeats at its first image, whatever
    # the horizon
    from dendro.tree_map import identity_map

    D = comb4_map.domain
    idm = identity_map(D)
    idm.pieces = lambda: [
        (e, F(0), D.edge_length(e), "bush") for e in range(len(D.edges))
    ]
    assert exact_builder.markov_graph(idm) is not None
    for n_max in (4, 10**9):
        cert = verify_exact(idm, n_max)
        assert not cert.all_bush_pieces_covered
        assert all(r.covered_at is None for r in cert.rows)


def test_bush_psi_witness_reverifies(comb4):
    # psi must grow phi's images by rho in bush units; one and two laps
    # are below the fold lemma's 2 rho = 12/5 and too few on a comb4 tooth,
    # and the sampled checker's witness must re-verify as a true violation
    rho = F(6, 5)
    A = geodesic(comb4, comb4.resolve_marked("A_left"),
                 comb4.resolve_marked("A_right"))
    asg = assign_metric(decompose_bushes(comb4, A), F(1, 2))
    b = asg.bushes[0]
    phi = build_phi_on_subtree(asg.space, b.subtree, b.root, initial_lap_count(rho))
    reach = max(dist(asg.space, V(b.root), V(v)) for v in b.subtree.vertices)
    for laps in (1, 2):
        psi = Zigzag(asg.space, b.subtree, b.root, laps, unit_arc())
        assert psi.reach == reach
        w = check_length_expanding(
            psi, DenseFamily("phi_images", through=phi), rho / b.measure, 60, 0
        )
        assert w is not None and w.rho == rho / b.measure
        assert reverify(psi, w)


def _arc_with_bush(arms):
    """Arc l-c-r of two unit edges, A marked at its ends, and one bush of
    ``arms`` (u, v, length) hung at c."""
    return Dendrite(["l", "c", "r"] + [v for _, v, _ in arms],
                    [("l", "c", F(1)), ("c", "r", F(1)), *arms],
                    marked={"A_left": V("l"), "A_right": V("r")})


# bushes that are not arcs rooted at an end, and psi's laps on each at rho 6/5
OFF_ARC_BUSHES = {
    "two_teeth": ([("c", "t1", F(1, 2)), ("c", "t2", F(1, 3))], 4),
    "Y": ([("c", "y", F(1, 4)), ("y", "y1", F(1, 2)), ("y", "y2", F(1, 3)),
           ("y", "y3", F(1, 5))], 6),
    "broom": ([("c", "a", F(1))] + [("c", f"b{i}", F(1, 20)) for i in (1, 2, 3)], 10),
}


@pytest.mark.parametrize("name", sorted(OFF_ARC_BUSHES))
def test_build_exact_bush_off_an_arc(name, tmp_path):
    # psi takes the fold lemma's count: 2 rho m R / lambda for m ends
    # besides the root and reach R, rounded up to an even count of at least
    # phi's laps; every bush piece then covers, and the file round-trips
    arms, laps = OFF_ARC_BUSHES[name]
    rho = F(6, 5)
    Fm = build_exact(_arc_with_bush(arms), "A", rho=rho)
    (part,) = Fm.parts
    m, R = bush_ends_and_reach(Fm.domain, part.region, part.root)
    lemma = max(Fm.manifest["parts"][0]["phi_laps"],
                math.ceil(2 * rho * m * R / h1_measure(part.region)))
    assert part.psi.laps == lemma + lemma % 2 == laps
    assert verify_exact(Fm, 64).all_bush_pieces_covered
    path = tmp_path / "map.json"
    dump_json(Fm.to_dict(), path)
    assert dumps_json(load_map(str(path)).to_dict()) == path.read_text()


@pytest.mark.parametrize("family,params", [
    ("arc", {}), ("star", {}), ("comb", {"depth": 3}), ("riemann", {"qmax": 3}),
    ("cantor_comb", {"rank": 2}), ("omega_star", {"arms": 3}), ("gehman", {"depth": 2}),
])
def test_phi_fold_lemma_dense_scan(family, params):
    # the fold lemma for phi onto a whole-edge subtree S, here the whole
    # tree: on every interval J of I with ends on the 1/24 grid, phi(J) is
    # S or mu(phi J) >= laps |S| |J| / 2, in exact arithmetic
    assert family in gallery.FAMILIES
    D = generate(FamilyDescriptor(family, params))
    S = full_subtree(D)
    for laps in range(2, 9):
        phi = build_phi_on_subtree(D, S, sorted(D.vertices)[0], laps)
        ratio = laps * h1_measure(S) / 2
        assert expansion_violations(phi, grid_intervals(phi.domain), ratio, S) == [], laps


def _lemma_bushes():
    """(name, assigned space, bush) for the comb 4 bushes and for the
    bushes that are not arcs rooted at an end."""
    out = []
    trees = [("comb4", generate(FamilyDescriptor("comb", {"depth": 4})))]
    trees += [(name, _arc_with_bush(arms)) for name, (arms, _) in OFF_ARC_BUSHES.items()]
    for name, D in trees:
        A = geodesic(D, D.resolve_marked("A_left"), D.resolve_marked("A_right"))
        asg = assign_metric(decompose_bushes(D, A), F(1, 2))
        out += [(f"{name}/{b.index}", asg.space, b) for b in asg.bushes]
    return out


def test_psi_fold_lemma_dense_scan():
    # the fold lemma for psi over the images C of the 1/24-grid intervals
    # under the bush's phi: psi(C) is [0, 1] or mu(psi C) >= laps mu(C) /
    # (2 m R), for m ends besides the root and reach R; at psi_lap_count's
    # laps that is at least rho / lambda.  phi keeps its own bound there
    rho = F(6, 5)
    unit = unit_arc()
    whole = full_subtree(unit)
    phi_laps = initial_lap_count(rho)
    for name, space, b in _lemma_bushes():
        phi = build_phi_on_subtree(space, b.subtree, b.root, phi_laps)
        grid = grid_intervals(phi.domain)
        assert expansion_violations(phi, grid, phi_laps * b.measure / 2, b.subtree) == []
        images = [C for C in (phi.image(J) for J in grid) if not C.is_degenerate()]
        m, R = bush_ends_and_reach(space, b.subtree, b.root)
        for laps in range(2, 9):
            psi = Zigzag(space, b.subtree, b.root, laps, unit)
            assert expansion_violations(psi, images, laps / (2 * m * R), whole) == [], \
                (name, laps)
        psi = Zigzag(space, b.subtree, b.root, phi_laps, unit)
        psi.laps = psi_lap_count(psi, rho, phi_laps)
        assert expansion_violations(psi, images, rho / b.measure, whole) == [], name


# ---------------------------------------------------------------- build_exact (point)


def test_build_exact_star_point(star3):
    Fm = build_exact(star3, V("c"))
    assert Fm.apply(V("c")) == V("c")
    # every arm maps onto itself (fold), c and tips fixed or sent to c
    for i in range(3):
        arm = make_subtree(star3, {i: (F(0), star3.edge_length(i))})
        assert Fm.image(arm) == arm
    cert_sets = [Fm.apply(V(f"e{i+1}")) for i in range(3)]
    assert all(p == V("c") for p in cert_sets)


@pytest.fixture(scope="module")
def branched_point_map():
    # a branched bush forces the composed-pair construction
    D = Dendrite(
        ["a", "m", "x", "y"],
        [("a", "m", F(1, 2)), ("m", "x", F(1, 4)), ("m", "y", F(1, 4))],
    )
    return build_exact(D, V("a"))


def test_build_exact_point_general_branch(branched_point_map):
    Fm = branched_point_map
    D = Fm.domain
    assert Fm.apply(V("a")) == V("a")
    img = Fm.image(full_subtree(D))
    assert img == full_subtree(D)


def test_verify_exact_tent_doubling(unit_arc):
    # a piece of length 2^-m covers at step m exactly under the fold
    from dendro.tree_map import TreeMap

    local_tent = TreeMap(
        unit_arc,
        unit_arc,
        vertex_images={"0": V("0"), "1": V("0")},
        edge_breaks={0: ((F(1, 2), V("1")),)},
    )
    local_tent.pieces = lambda: [(0, F(0), F(1, 32), "bush")]
    cert = verify_exact(local_tent, 8)
    assert cert.rows[0].covered_at == 5


# ---------------------------------------------------------------- Markov graph


@pytest.fixture(scope="module")
def markov_maps(comb4_map, comb_gch8_map, tmp_path_factory):
    """(name, map) for every built map of the suite: the comb 4 and comb 8
    glued_exact maps, built and loaded from their files, riemann qmax 4,
    comb_gch 8 (glued_pieces) and the one-bush map."""
    path = tmp_path_factory.mktemp("markov")
    comb8 = build_exact(generate(FamilyDescriptor("comb", {"depth": 8})), "A")
    out = []
    for name, Fm in [("comb4", comb4_map), ("comb8", comb8)]:
        dump_json(Fm.to_dict(), path / f"{name}.json")
        out += [(name, Fm), (f"{name}_loaded", load_map(str(path / f"{name}.json")))]
    riemann4 = generate(FamilyDescriptor("riemann", {"qmax": 4}))
    return out + [("riemann4", build_exact(riemann4, "A")), ("comb_gch8", comb_gch8_map),
                  ("one_bush", build_exact(_one_tooth_arc(), "A"))]


def test_graph_cover_times_match_the_horizon_loop(markov_maps):
    # every built map is Markov on its certification pieces, and the cover
    # times read off its piece graph are the plain horizon loop's
    for name, Fm in markov_maps:
        assert exact_builder.markov_graph(Fm) is not None, name
        for n_max in (1, len(Fm.parts) + 1, 64):
            rows = verify_exact(Fm, n_max).rows
            assert [r.covered_at for r in rows] == plain_cover_times(Fm, n_max), (name, n_max)


def _assert_masks_rebuild_images(name, Fm):
    """The pieces in each piece's successor mask make up exactly its image."""
    D = Fm.domain
    pieces = [make_subtree(D, {e: (a, b)}) for e, a, b, _ in Fm.pieces()]
    for P, mask in zip(pieces, exact_builder.markov_graph(Fm)):
        inside = [Q for j, Q in enumerate(pieces) if mask >> j & 1]
        assert union_connected(D, inside) == Fm.image(P), (name, P)


def test_markov_graph_masks_rebuild_piece_images(markov_maps):
    for name, Fm in markov_maps:
        _assert_masks_rebuild_images(name, Fm)


def _unit_arc_map(unit_arc, peak, pieces):
    """The map 0 -> 0, peak -> 1, 1 -> 0 on the unit arc, with ``pieces``
    (lo, hi) as its bush pieces."""
    Fm = TreeMap(unit_arc, unit_arc, {"0": V("0"), "1": V("0")}, {0: ((peak, V("1")),)})
    Fm.pieces = lambda: [(0, F(a), F(b), "bush") for a, b in pieces]
    return Fm


def test_verify_exact_falls_back_to_the_horizon_loop(unit_arc, comb4_map, monkeypatch):
    # no piece graph for the tent with a partial piece list, for a peak at
    # 1/3 whose right piece's image [0, 3/4] ends off a cut, nor for the
    # identity on half the arc, where "every piece" is not the whole space:
    # their cover times are imaged step by step.  The tent on quarters has
    # a graph, the image [1/2, 1] of [1/4, 1/2] starting inside the edge;
    # so does the identity on whole-edge pieces, each piece its own
    # successor, and its first repeat says never.  Each certificate is the
    # one the loop alone writes
    half = F(1, 2)
    D = comb4_map.domain
    identity = tree_map.identity_map(D)
    identity.pieces = lambda: [(e, F(0), D.edge_length(e), "bush")
                               for e in range(len(D.edges))]
    half_identity = tree_map.identity_map(unit_arc)
    half_identity.pieces = lambda: [(0, F(0), half, "bush")]
    quarters = [(F(k, 4), F(k + 1, 4)) for k in range(4)]
    cases = [("tent", _unit_arc_map(unit_arc, half, [(0, F(1, 32))]), [5], False),
             ("peak", _unit_arc_map(unit_arc, F(1, 3), [(0, half), (half, 1)]), [1, 2], False),
             ("half_identity", half_identity, [None], False),
             ("quarters", _unit_arc_map(unit_arc, half, quarters), [2] * 4, True),
             ("identity", identity, [None] * len(D.edges), True)]
    certs = {}
    for name, Fm, times, markov in cases:
        assert (exact_builder.markov_graph(Fm) is not None) == markov, name
        if markov:
            _assert_masks_rebuild_images(name, Fm)
        cert = verify_exact(Fm, 8)
        assert [r.covered_at for r in cert.rows] == times == plain_cover_times(Fm, 8), name
        certs[name] = cert.to_dict()
    monkeypatch.setattr(exact_builder, "_markov_graph", lambda F, pieces: None)
    for name, Fm, _, _ in cases:
        assert verify_exact(Fm, 8).to_dict() == certs[name], name


def test_verify_exact_stops_at_a_repeated_set(unit_arc):
    # the identity on the piece [0, 1/2] images it to itself: the first
    # repeat says it never covers, whatever the horizon
    calls = []
    half_identity = tree_map.identity_map(unit_arc)
    half_identity.pieces = lambda: [(0, F(0), F(1, 2), "bush")]
    image = half_identity.image
    half_identity.image = lambda S: calls.append(S) or image(S)
    assert [r.covered_at for r in verify_exact(half_identity, 1000).rows] == [None]
    assert 1 <= len(calls) <= 2


def test_verify_exact_reads_tree_map_pieces_as_bush_pieces(star3, monkeypatch):
    # the point form at the star's centre is a TreeMap, whose (edge, lo, hi)
    # pieces carry no kind; with no fixed base each is a bush piece.  Each
    # arm maps onto itself, so no piece's orbit ever covers the star, by
    # the piece graph and by the horizon loop alike
    Fm = build_exact(star3, PointRef(vertex="c"))
    assert isinstance(Fm, TreeMap)
    cert = verify_exact(Fm, 4)
    assert [(r.edge, r.lo, r.hi) for r in cert.rows] == Fm.pieces()
    assert [r.kind for r in cert.rows] == ["bush"] * len(Fm.pieces())
    assert [r.covered_at for r in cert.rows] == [None] * len(Fm.pieces())
    assert exact_builder.markov_graph(Fm) is not None
    monkeypatch.setattr(exact_builder, "_markov_graph", lambda F, pieces: None)
    assert verify_exact(Fm, 4).to_dict() == cert.to_dict()


@pytest.mark.parametrize("length", [F(1, 2), F(1)], ids=["half_arc", "unit_arc"])
def test_verify_exact_refuses_a_map_onto_another_tree(star3, length):
    # star3 onto a one-edge arc: its pieces' images are sets of the arc, so
    # they have no orbits.  Onto the arc of length 1/2 they used to be
    # imaged again as sets of the star, three rows that never cover; onto
    # the unit arc that failed with "interval [0, 1] outside edge 0"
    arc = Dendrite(["0", "1"], [("0", "1", length)])
    Fm = TreeMap(star3, arc, {v: V("0" if v == "c" else "1") for v in star3.vertices})
    with pytest.raises(GeometryError, match="^piece orbits need a selfmap: codomain differs"):
        verify_exact(Fm, 5)


# ---------------------------------------------------------------- counterexamples


def test_omega_star_gch_arm_invariance():
    D, Fm = build_counterexample("omega_star_gch", arms=6, q=F(1, 2))
    for i, e in enumerate(D.edges):
        arm = make_subtree(D, {i: (F(0), e.length)})
        assert Fm.image(arm) == arm
    assert Fm.apply(D.marked["center"]) == D.marked["center"]


def test_omega_star_gch_rejects_finite_order_point(star3):
    with pytest.raises(GeometryError):
        build_gch_not_eps(star3, V("c"))


def test_comb_gch_pieces(comb_gch8_map):
    Fm = comb_gch8_map
    regions = [region for _, _, region in _manifest_shells(Fm)]
    assert len(regions) >= 3
    for region in regions:
        img = Fm.image(region)
        assert subtree_contains(region, img)
    diams = [subtree_diam(Fm.domain, r) for r in regions]
    assert all(a > b for a, b in zip(diams, diams[1:]))
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            assert subtrees_intersect(regions[i], regions[j])
    # the common anchor stays fixed
    anchor = Fm.domain.marked["origin"]
    assert Fm.apply(anchor) == anchor


def test_comb_gch_vertex_images(comb_gch8_map):
    # off-base vertices used to vanish from their own image
    D = comb_gch8_map.domain
    for v in sorted(D.vertices):
        img = comb_gch8_map.image(point_subtree(D, V(v)))
        assert img == point_subtree(D, comb_gch8_map.apply(V(v))), v


def _probe_geodesics(D):
    """Geodesics between every two of the vertices and edge third-points."""
    ends = [V(v) for v in sorted(D.vertices)]
    ends += [D.point(e, D.edge_length(e) / 3) for e in range(len(D.edges))]
    for i, x in enumerate(ends):
        for y in ends[i + 1:]:
            yield geodesic(D, x, y)


def test_comb_gch_set_images_contain_point_images(comb_gch8_map):
    # oracle for the glued image: the image of a set holds the image of
    # every point of a 1/8 refinement of it
    Fm = comb_gch8_map
    D = Fm.domain
    images = {}
    sets = 0
    for S in _probe_geodesics(D):
        img = Fm.image(S)
        pts = [V(v) for v in S.vertices]
        for e, (a, b) in S.intervals.items():
            pts += [D.point(e, a + (b - a) * F(k, 8)) for k in range(9)]
        for p in pts:
            if p not in images:
                images[p] = Fm.apply(p)
            assert contains_point(D, img, images[p]), (S, p)
        sets += 1
    assert sets == 903


def test_comb_gch_parts_map_connected_sets(monkeypatch):
    # each part gets a set's whole overlap with its region, base included,
    # even where it runs along the base between two teeth; two subtrees
    # meet in a connected set, so each call must see and return one
    # connected set.  A map of its own: the shared fixture's image
    # memos are already warm, so no part call would be observed there
    Fm = build_counterexample("comb_gch", depth=8)[1]
    D = Fm.domain
    seen = []
    for part in Fm.parts:
        def image(S, _orig=part.image):
            assert len(components(D, S)) == 1, S
            out = _orig(S)
            seen.append(out)
            return out
        monkeypatch.setattr(part, "image", image)
    sets = 0
    for S in _probe_geodesics(D):
        Fm.image(S)
        sets += 1
    assert sets == 903 and seen
    for out in seen:
        assert len(components(D, out)) == 1, out


def _branched_pair_bushes():
    """A point with two branched bushes, as the CLI and file tests use."""
    return Dendrite(
        ["c", "m1", "x1", "y1", "m2", "x2", "y2"],
        [("c", "m1", F(1, 4)), ("m1", "x1", F(1, 8)), ("m1", "y1", F(1, 8)),
         ("c", "m2", F(1, 4)), ("m2", "x2", F(1, 8)), ("m2", "y2", F(1, 8))])


def test_glued_in_place_equals_the_conjugate_construction(comb_gch8_map, branched_point_map):
    # oracle for gluing in place: every glued_pieces and glued_point map
    # equals the construction on rescaled standalone copies carried back
    # through edgewise charts, on the probe geodesics and on the vertices,
    # the edge third-points and 2/7-points, and so does a comb_gch verdict
    rho = F(6, 5)
    cases = []
    for depth in (4, 8):
        D = generate(FamilyDescriptor("comb", {"depth": depth}))
        Fm = comb_gch8_map if depth == 8 else build_counterexample("comb_gch", depth=4)[1]
        cases.append((f"comb_gch{depth}", Fm, plain_conjugate_gch(D, "A", F(1, 2), rho)))
    points = [(f"gehman{d}", generate(FamilyDescriptor("gehman", {"depth": d})), V("g"))
              for d in (2, 3)]
    points += [("branched_a", branched_point_map.domain, V("a")),
               ("branched_c", _branched_pair_bushes(), V("c"))]
    for name, D, x in points:
        Fm = branched_point_map if name == "branched_a" else build_exact(D, x, rho=rho)
        cases.append((name, Fm, plain_conjugate_point(D, x, rho)))
    counts = []
    for name, Fm, plain in cases:
        D = Fm.domain
        assert Fm.kind == ("glued_pieces" if name.startswith("comb") else "glued_point"), name
        assert plain.domain == D and plain.base == Fm.base, name
        sets = list(_probe_geodesics(D))
        for S in sets:
            assert Fm.image(S) == plain.image(S), (name, S)
        pts = [V(v) for v in sorted(D.vertices)]
        pts += [D.point(e, D.edge_length(e) * t) for e in range(len(D.edges))
                for t in (F(1, 3), F(2, 7))]
        for x in pts:
            assert Fm.apply(x) == plain.apply(x), (name, x)
        counts.append((len(sets), len(pts)))
    assert counts == [(300, 37), (903, 64), (78, 19), (406, 43), (21, 10), (78, 19)]
    family = chaos.SetFamily("free_arcs", radii_levels=5)
    assert (chaos.verdict(comb_gch8_map, family, N=8).to_dict()
            == chaos.verdict(cases[1][2], family, N=8).to_dict())


def _memo_cases():
    """(name, builder of a fresh map, probe sets) for the image-memo oracles:
    comb_gch(8) on the 903 probe geodesics, the comb(8) ``build_exact`` map
    on its certification pieces, the star3 ``build_pair`` maps, phi on
    the intervals of the unit arc with ends in 1/24 Z and psi on the probe
    geodesics of the star, and the walk surjection phi of each comb(8) bush
    on the same intervals."""
    comb8 = generate(FamilyDescriptor("comb", {"depth": 8}))
    star3 = generate(FamilyDescriptor(
        "star", {"arm_lengths": (F(1, 2), F(1, 3), F(1, 6))}))

    def comb_gch8():
        return build_counterexample("comb_gch", depth=8)[1]

    def comb8_exact():
        return build_exact(comb8, "A", q=F(1, 2), rho=F(6, 5))

    def pair():
        return build_pair(star3, V("e1"), rho=F(6, 5), samples=80, seed=3)

    def bush_phi(b):
        return lambda: build_phi_on_subtree(asg.space, b.subtree, b.root,
                                            initial_lap_count(F(6, 5)))

    exact = comb8_exact()
    built = pair()
    unit = built.phi.domain
    grid = [make_subtree(unit, {0: (F(i, 24), F(j, 24))})
            for i in range(25) for j in range(i, 25)]
    A = geodesic(comb8, comb8.resolve_marked("A_left"), comb8.resolve_marked("A_right"))
    asg = assign_metric(decompose_bushes(comb8, A), F(1, 2))
    return [
        ("comb_gch8", comb_gch8, list(_probe_geodesics(comb_gch8().domain))),
        ("comb8_exact", comb8_exact,
         [make_subtree(exact.domain, {e: (a, b)}) for e, a, b, _ in exact.pieces()]),
        ("star3_phi", lambda: pair().phi, grid),
        ("star3_psi", lambda: pair().psi, list(_probe_geodesics(built.space))),
    ] + [(f"comb8_phi{b.index}", bush_phi(b), grid) for b in asg.bushes]


def test_image_memo_matches_a_fresh_map(monkeypatch):
    # oracle for the per-map image memo: a second pass over the same sets is
    # answered from the memo and must equal the first; a freshly built map,
    # whose memos start empty, must compute the same images when asked in
    # the reverse order; and so must a map with every memo bypassed
    cases = _memo_cases()
    assert [len(sets) for _, _, sets in cases] == [903, 45, 325, 21] + [325] * 9
    images = {}
    for name, build, sets in cases:
        Fm = build()
        images[name] = [Fm.image(S) for S in sets]
        assert [Fm.image(S) for S in sets] == images[name], name
        fresh = build()
        assert [fresh.image(S) for S in reversed(sets)] == images[name][::-1], name
    for mod in (tree_map, exact_builder):
        monkeypatch.setattr(mod, "_memo_image", lambda memo, image, S: image(S))
    for name, build, sets in cases:
        plain = build()
        assert [plain.image(S) for S in sets] == images[name], name


def test_geodesics_and_unions_are_canonical(monkeypatch):
    # merge_walks, geodesic and union_subtrees build their results without
    # make_subtree; renormalizing any of them through make_subtree must
    # change nothing
    seen = []

    def recording(fn):
        def wrapper(D, *args):
            out = fn(D, *args)
            for S in out if isinstance(out, list) else [out]:
                seen.append((D, S))
            return out
        return wrapper

    for fn_name in ("merge_walks", "geodesic", "union_subtrees"):
        wrapper = recording(getattr(metric_tree, fn_name))
        for mod in (metric_tree, tree_map, exact_builder, length_expanding, gallery):
            if hasattr(mod, fn_name):
                monkeypatch.setattr(mod, fn_name, wrapper)
    cases = [(build(), sets) for _, build, sets in _memo_cases()]
    # the comb(8) build_exact map on the probe geodesics as well
    comb8 = generate(FamilyDescriptor("comb", {"depth": 8}))
    exact = build_exact(comb8, "A", q=F(1, 2), rho=F(6, 5))
    cases.append((exact, list(_probe_geodesics(exact.domain))))
    for Fm, sets in cases:
        for S in sets:  # the probes are geodesics or pieces themselves
            seen.append((Fm.domain, S))
            Fm.image(S)
    assert len(seen) > 10000
    for D, S in seen:
        assert make_subtree(D, S.intervals, S.vertices) == S, S


def _control_probes(Fm):
    """(points on every control time, points at every piece midpoint, sets):
    the sets are each edge's intervals between any two such ends at most
    four apart (lone points, ends on controls, ends inside pieces, one or
    two full pieces) and every whole edge."""
    D = Fm.domain
    on_controls, inside, sets = [], [], []
    for e in range(len(D.edges)):
        ts = [t for t, _ in Fm.controls(e)]
        mids = [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])]
        on_controls += [D.point(e, t) for t in ts]
        inside += [D.point(e, t) for t in mids]
        ends = sorted(ts + mids)
        for i, a in enumerate(ends):
            for b in ends[i:i + 5]:
                sets.append(make_subtree(D, {e: (a, b)}))
        sets.append(make_subtree(D, {e: (ts[0], ts[-1])}))
    return on_controls, inside, sets


def _plain_scan_cases():
    """(name, map, extra probe sets) for the control-lookup oracle."""
    comb8 = generate(FamilyDescriptor("comb", {"depth": 8}))
    exact = build_exact(comb8, "A", q=F(1, 2), rho=F(6, 5))
    cases = []
    for k, part in enumerate(exact.parts):
        # the intervals the certification pieces hand to g
        ivs = [part.nu.image(part.psi.image(make_subtree(exact.domain, {e: (a, b)})))
               for e, a, b in part.pieces()]
        cases.append((f"comb8_g{k}", part.g, ivs))
    star3 = generate(FamilyDescriptor(
        "star", {"arm_lengths": (F(1, 2), F(1, 3), F(1, 6))}))
    built = build_pair(star3, V("e1"), rho=F(6, 5), samples=80, seed=3)
    unit = built.phi.domain
    cases.append(("star3_phi", built.phi,
                  [make_subtree(unit, {0: (F(i, 24), F(j, 24))})
                   for i in range(25) for j in range(i, 25)]))
    cases.append(("star3_psi", built.psi, list(_probe_geodesics(star3))))
    gehman, G = gehman_extend(6)
    cases.append(("gehman6", G,
                  [geodesic(gehman, V("g"), V(v)) for v in gehman.vertices]))
    # constant pieces: [1/4, 1/2] stays at the center, [5/8, 3/4] at a point
    # inside the arm c-e1
    mid = star3.point(0, F(1, 4))
    flat = TreeMap(unit, star3, {"0": V("e2"), "1": V("e3")}, {0: (
        (F(1, 4), V("c")), (F(1, 2), V("c")), (F(5, 8), mid), (F(3, 4), mid))})
    cases.append(("constant_pieces", flat, []))
    return cases


def test_tree_map_matches_the_plain_control_scan(monkeypatch):
    # oracle for the bisected control lookup and the per-piece walk cache:
    # apply and image equal a linear control scan that walks every piece
    # afresh; a point on a control time is that control, read without a walk
    walks = []
    real_walk = tree_map.geodesic_walk

    def counting_walk(D, x, y):
        walks.append((x, y))
        return real_walk(D, x, y)

    monkeypatch.setattr(tree_map, "geodesic_walk", counting_walk)
    for name, built, extra in _plain_scan_cases():
        Fm = TreeMap(built.domain, built.codomain, built.vertex_images,
                     built.edge_breaks)  # fresh, nothing walked yet
        on_controls, inside, sets = _control_probes(Fm)
        walks.clear()
        for x in on_controls:
            assert Fm.apply(x) == plain_apply(Fm, x), (name, x)
        assert walks == [], name
        for x in inside:
            assert Fm.apply(x) == plain_apply(Fm, x), (name, x)
        for S in sets + extra:
            assert Fm.image(S) == plain_image(Fm, S), (name, S)


@pytest.mark.parametrize("fixture,kind", [
    ("comb4_map", "glued_exact"),
    ("comb_gch8_map", "glued_pieces"),
    ("branched_point_map", "glued_point"),
], ids=["glued_exact", "glued_pieces", "glued_point"])
def test_map_file_roundtrip(fixture, kind, request, tmp_path):
    Fm = request.getfixturevalue(fixture)
    assert Fm.kind == kind
    path = tmp_path / "map.json"
    dump_json(Fm.to_dict(), path)
    back = load_map(str(path))
    assert type(back) is type(Fm)
    assert dumps_json(back.to_dict()) == path.read_text()
    D = back.domain
    if kind == "glued_exact":  # each part's g maps into the loaded space itself
        assert all(part.g.codomain is D for part in back.parts)
    for e in range(len(D.edges)):
        L = D.edge_length(e)
        S = make_subtree(D, {e: (L / 4, 3 * L / 4)})
        assert back.image(S) == Fm.image(S)
    for part in back.parts:
        (e, (a, b)) = sorted(part.region.intervals.items())[0]
        x = D.point(e, a + (b - a) / 3)
        assert back.apply(x) == Fm.apply(x)
    n = len(Fm.parts) + 1
    assert verify_exact(back, n).to_dict() == verify_exact(Fm, n).to_dict()


def test_decompose_interior_point(comb3):
    # a cut point in the middle of a base edge splits into two bushes
    e = next(
        i for i, ed in enumerate(comb3.edges) if ed.u == "b@-1" or ed.v == "b@-1"
    )
    x = comb3.point(e, comb3.edge_length(e) / 2)
    dec = decompose_bushes(comb3, x)
    assert dec.base_kind == "point"
    assert len(dec.bushes) == 2
    total = sum(b.measure for b in dec.bushes)
    assert total == dec.space.total_length()


@pytest.mark.parametrize("family,params", [
    ("riemann", {"qmax": 3}),
    ("cantor_comb", {"rank": 2}),
    ("comb", {"depth": 5}),
])
def test_build_exact_across_families(family, params):
    D = generate(FamilyDescriptor(family, params))
    Fm = build_exact(D, "A", q=F(1, 2), rho=F(6, 5))
    cert = verify_exact(Fm, len(Fm.parts) + 1)
    assert cert.all_bush_pieces_covered
    assert cert.chain_ok
    for p in subtree_points(Fm.domain, Fm.base):
        assert Fm.apply(p) == p


def test_build_exact_deterministic(comb4):
    a = build_exact(comb4, "A", q=F(1, 2), rho=F(6, 5), seed=5)
    b = build_exact(comb4, "A", q=F(1, 2), rho=F(6, 5), seed=5)
    assert a.to_dict() == b.to_dict()
