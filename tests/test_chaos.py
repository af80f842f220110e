from fractions import Fraction
from math import lcm

import pytest

from dendro.chaos import (
    SetFamily,
    ly_sample,
    prox_record,
    sens_record,
    verdict,
)
from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    make_subtree,
)
from dendro.odometer import gehman_extend
from dendro.tree_map import TreeMap, identity_map, set_orbit
from oracles import (
    first_repeat,
    plain_diam_steps,
    plain_dist_steps,
    plain_ly_sample,
    plain_orbit,
    tent_iterate_interval,
)

F = Fraction


def interval(D, lo, hi):
    return make_subtree(D, {0: (F(lo), F(hi))})


# ---------------------------------------------------------------- prox


def test_prox_tent_opposite_ends(tent, unit_arc):
    S1 = interval(unit_arc, 0, F(1, 8))
    S2 = interval(unit_arc, F(7, 8), 1)
    assert prox_record(tent, S1, S2, 10) == 0
    # oracle: both reach [0,1] within 3 steps
    assert tent_iterate_interval(F(0), F(1, 8), 3) == (F(0), F(1))


def test_prox_identity_constant(unit_arc):
    idm = identity_map(unit_arc)
    S1 = interval(unit_arc, 0, F(1, 8))
    S2 = interval(unit_arc, F(7, 8), 1)
    assert prox_record(idm, S1, S2, 12) == F(3, 4)


def test_prox_refuses_a_negative_horizon(unit_arc):
    # an empty window has no minimum; N = 0 reads the sets themselves
    idm = identity_map(unit_arc)
    S1 = interval(unit_arc, 0, F(1, 8))
    S2 = interval(unit_arc, F(7, 8), 1)
    with pytest.raises(GeometryError, match="N >= 0"):
        prox_record(idm, S1, S2, -1)
    assert prox_record(idm, S1, S2, 0) == F(3, 4)


def test_prox_monotone_in_horizon(tent, unit_arc):
    S1 = interval(unit_arc, 0, F(1, 64))
    S2 = interval(unit_arc, F(31, 32), 1)
    records = [prox_record(tent, S1, S2, N) for N in range(0, 8)]
    for a, b in zip(records, records[1:]):
        assert b <= a


# ---------------------------------------------------------------- sens


def test_sens_tent_doubling(tent, unit_arc):
    S = interval(unit_arc, 0, F(1, 32))
    assert sens_record(tent, S, 0, 10) == 1
    assert sens_record(tent, S, 0, 4) == F(1, 2)  # first full at n = 5
    assert sens_record(tent, S, 5, 10) == 1


def test_sens_identity(unit_arc):
    idm = identity_map(unit_arc)
    S = interval(unit_arc, F(1, 4), F(5, 8))
    assert sens_record(idm, S, 0, 7) == F(3, 8)


def test_sens_monotone_in_horizon(tent, unit_arc):
    S = interval(unit_arc, F(1, 3), F(5, 12))
    records = [sens_record(tent, S, 0, N) for N in range(0, 8)]
    for a, b in zip(records, records[1:]):
        assert b >= a


# ---------------------------------------------------------------- ly_sample


def test_ly_sample_identity_counts_nothing(unit_arc):
    # every point is fixed, so each point orbit repeats at its first image
    # and a huge horizon costs no more than a short one
    idm = identity_map(unit_arc)
    calls = []
    apply = idm.apply
    idm.apply = lambda x: calls.append(x) or apply(x)
    for N in (20, 10**9):
        calls.clear()
        rep = ly_sample(idm, 50, N, F(1, 1000), F(1, 2), seed=4)
        assert rep.scrambling_evidence == 0
        assert len(calls) <= 2 * 2 * 50, N


@pytest.mark.parametrize("N,pair_count", [(-1, 3), (3, -2), (-1, -1)])
def test_ly_sample_refuses_a_negative_horizon_or_count(unit_arc, N, pair_count):
    # as prox_record does: an empty window has no minimum, and N = 0 with
    # no pairs is still a report
    idm = identity_map(unit_arc)
    with pytest.raises(GeometryError, match="need N >= 0 and pair_count >= 0"):
        ly_sample(idm, pair_count, N, F(1, 10), F(1, 10), 0)
    assert ly_sample(idm, 0, 0, F(1, 10), F(1, 10), 0).to_dict()["horizon"] == 0


LY_MAPS = ["tent", "flip", "identity", "contraction", "gehman4"]


@pytest.fixture(scope="module")
def ly_maps(unit_arc, tent, flip, contraction):
    return {
        "tent": tent,
        "flip": flip,
        "identity": identity_map(unit_arc),
        "contraction": contraction,
        "gehman4": gehman_extend(4)[1],
    }


@pytest.mark.parametrize("N", [0, 1, 7, 100])
@pytest.mark.parametrize("name", LY_MAPS)
def test_ly_sample_matches_plain_horizon_loop(ly_maps, name, N):
    # ly_sample stops each pair at the first repeat of its joint state; the
    # plain loop maps both points N times
    Fm = ly_maps[name]
    for seed in range(5):
        rep = ly_sample(Fm, 6, N, F(1, 16), F(1, 4), seed)
        assert rep == plain_ly_sample(Fm, 6, N, F(1, 16), F(1, 4), seed), seed


def test_ly_sample_deterministic(tent):
    r1 = ly_sample(tent, 30, 50, F(1, 1000), F(1, 2), seed=9)
    r2 = ly_sample(tent, 30, 50, F(1, 1000), F(1, 2), seed=9)
    assert r1 == r2


def test_ly_sample_rejects_a_map_onto_another_tree(star3, unit_arc):
    images = {v: PointRef(vertex="0" if v == "c" else "1") for v in star3.vertices}
    onto_arc = TreeMap(star3, unit_arc, images)
    with pytest.raises(GeometryError, match="point orbits need a selfmap"):
        ly_sample(onto_arc, 3, 4, F(1, 10), F(1, 10), 0)


def test_ly_sample_tent_mostly_scrambling(tent):
    rep = ly_sample(tent, 100, 200, F(1, 1000), F(1, 2), seed=1)
    assert rep.scrambling_evidence >= 95


# ---------------------------------------------------------------- verdict


def test_verdict_tent_balls(tent):
    rep = verdict(tent, SetFamily("balls", radii_levels=4), N=64)
    assert rep.prox_pass
    assert rep.sens0_pass
    assert rep.eta_estimate == 1
    assert rep.generic_chaos_evidence


def test_verdict_identity_inconclusive(unit_arc):
    idm = identity_map(unit_arc)
    rep = verdict(idm, SetFamily("balls", radii_levels=3), N=16)
    # image sets never move: prox evidence fails, diameters stay positive
    assert not rep.prox_pass
    assert rep.sens0_pass
    assert not rep.generic_chaos_evidence
    assert rep.eta_estimate > 0


def test_verdict_deterministic(tent):
    r1 = verdict(tent, SetFamily("subdendrites", seed=3), N=20)
    r2 = verdict(tent, SetFamily("subdendrites", seed=3), N=20)
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("kind", ["balls", "free_arcs", "subdendrites"])
@pytest.mark.parametrize("levels", [0, -3])
def test_a_family_refuses_radii_levels_below_one(kind, levels):
    # every kind refuses it, not only balls, the one kind that reads the levels
    with pytest.raises(GeometryError, match="radii_levels must be >= 1"):
        SetFamily(kind, radii_levels=levels)


def test_verdict_exactness_recompute(tent):
    fam = SetFamily("free_arcs")
    rep = verdict(tent, fam, N=12)
    members = fam.generate(tent.domain)
    for (i, j), r in rep.prox_records:
        assert prox_record(tent, members[i], members[j], 12) == r
    for i, r in rep.sens_records:
        assert sens_record(tent, members[i], 0, 12) == r


@pytest.fixture(scope="module")
def identity_arc(unit_arc):
    return identity_map(unit_arc)


@pytest.fixture(scope="module")
def rotation():
    """Arms of a star permuted as (a b)(x y z), each arm stretched linearly.

    Free arcs come nearest the center on the short arms b and z, so the
    arcs of arms a and x first come nearest at step 5, the sixth joint
    phase of periods 2 and 3.
    """
    lengths = {"a": F(1), "b": F(1, 2), "x": F(1), "y": F(3, 4), "z": F(1, 2)}
    D = Dendrite(["c", *lengths], [("c", v, L) for v, L in lengths.items()])
    turn = {"c": "c", "a": "b", "b": "a", "x": "y", "y": "z", "z": "x"}
    return TreeMap(D, D, {v: PointRef(vertex=w) for v, w in turn.items()})


# map fixture, family, the first repeats the family's orbits must show
# ("eventual": some m > 0; "fixed": all m = 0, p = 1; "period2": lcm of
# the periods 2; "period6": lcm 6 from periods 2 and 3; "none": no repeat)
CUT_CASES = [
    ("omega12_map", SetFamily("balls", radii_levels=1), "eventual"),
    ("comb_gch8_map", SetFamily("free_arcs"), "eventual"),
    ("tent", SetFamily("balls", radii_levels=3), "eventual"),
    ("identity_arc", SetFamily("balls", radii_levels=3), "fixed"),
    ("flip", SetFamily("balls", radii_levels=3), "period2"),
    ("rotation", SetFamily("free_arcs"), "period6"),
    ("contraction", SetFamily("balls", radii_levels=3), "none"),
]


@pytest.mark.parametrize(
    "fixture,family,shape", CUT_CASES, ids=[c[0] for c in CUT_CASES]
)
def test_verdict_matches_plain_horizon_loop(fixture, family, shape, request):
    # verdict stops each record at the first exact repeat of its orbits; the
    # plain loop computes every image up to the horizon
    Fm = request.getfixturevalue(fixture)
    members = family.generate(Fm.domain)
    orbits = [plain_orbit(Fm, S, 50) for S in members]
    cycles = [first_repeat(A) for A in orbits]
    if shape == "none":
        assert not any(cycles)
        Ns, N0s = [0, 1, 50], [0, 1, 3]
    else:
        assert all(cycles)
        m = max(c[0] for c in cycles)
        p = lcm(*(c[1] for c in cycles))
        if shape == "fixed":
            assert (m, p) == (0, 1)
        elif shape == "period2":
            assert p == 2
        elif shape == "period6":
            assert (m, p) == (0, 6)
        else:
            assert m > 0
        # N0 past a whole cycle makes the sensitivity window start late
        Ns, N0s = sorted({0, 1, m, m + p, 50}), sorted({0, 1, m + 1, m + p + 1})
    pairs = [(i, j) for i in range(len(members)) for j in range(i + 1, len(members))]
    dists = {(i, j): plain_dist_steps(Fm, orbits[i], orbits[j]) for i, j in pairs}
    diams = [plain_diam_steps(Fm, A) for A in orbits]
    for N in Ns:
        for N0 in N0s:
            if N0 > N:
                continue
            rep = verdict(Fm, family, N=N, N0=N0)
            assert rep.prox_records == [
                ((i, j), min(dists[i, j][: N + 1])) for i, j in pairs
            ], (N, N0)
            assert rep.sens_records == [
                (i, max(d[N0 : N + 1])) for i, d in enumerate(diams)
            ], (N, N0)


def test_verdict_image_calls_stop_at_the_cycle(omega12_map, monkeypatch):
    # every omega12 ball orbit is fixed within a few steps, so a longer
    # horizon costs no further image
    calls = []
    image = omega12_map.image

    def counted(S):
        calls.append(S)
        return image(S)

    monkeypatch.setattr(omega12_map, "image", counted)
    counts = []
    for N in (50, 200):
        calls.clear()
        verdict(omega12_map, SetFamily("balls", radii_levels=2), N=N)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_records_accept_set_orbits(flip, sym_arc, tent):
    S1 = make_subtree(sym_arc, {0: (F(1, 4), F(1, 2))})
    S2 = make_subtree(sym_arc, {1: (F(1, 4), F(1, 2))})
    A, B = set_orbit(flip, S1), set_orbit(flip, S2)
    for N in range(6):
        assert prox_record(flip, A, B, N) == prox_record(flip, S1, S2, N)
        for N0 in range(N + 1):
            assert sens_record(flip, A, N0, N) == sens_record(flip, S1, N0, N)
    assert (A.preperiod, A.period) == (0, 2)
    with pytest.raises(GeometryError):
        sens_record(tent, A, 0, 3)
    point = set_orbit(flip, make_subtree(sym_arc, {0: (F(1, 2), F(1, 2))}))
    with pytest.raises(GeometryError):
        prox_record(flip, point, B, 3)


def test_constant_map_fails_sens0(unit_arc):
    # all mass collapses to a point: sensitivity records vanish and the
    # verdict never flags generic-chaos evidence
    from dendro.metric_tree import PointRef
    from dendro.tree_map import TreeMap

    const = TreeMap(
        unit_arc,
        unit_arc,
        vertex_images={"0": PointRef(vertex="0"), "1": PointRef(vertex="0")},
    )
    rep = verdict(const, SetFamily("balls", radii_levels=3), N=8)
    assert not rep.sens0_pass
    assert not rep.generic_chaos_evidence
    assert rep.eta_estimate == 0
