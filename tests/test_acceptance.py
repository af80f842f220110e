"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Expected values marked as derived below were computed by the independent
oracles in this file (digit scans, interval-doubling arithmetic, brute-force
enumeration) and frozen; every comparison is exact rational equality unless a
bound is stated.
"""

import random
import time
from fractions import Fraction

from dendro.chaos import SetFamily, verdict
from dendro.exact_builder import build_exact, verify_exact
from dendro.gallery import FamilyDescriptor, build_counterexample, generate
from dendro.length_expanding import (
    DenseFamily,
    build_pair,
    check_length_expanding,
    reverify,
)
from dendro.metric_tree import (
    PointRef,
    ball,
    dist,
    intersect_subtrees,
    make_subtree,
    point_along,
    span_subtree,
    subtrees_intersect,
    union_subtrees,
)
from dendro.odometer import (
    Address,
    add,
    ell,
    embed_x,
    eps_scrambled_max,
    fiber_diam_traj,
)
from dendro.tree_map import TreeMap, orbit_decomposition
from oracles import plain_orbit

F = Fraction
ONES = Address.ones()


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. odometer window maximum


def test_criterion_1_odometer_limsup_value():
    t0 = time.perf_counter()
    traj = fiber_diam_traj(ONES, 3**7)
    window = traj[1:]
    ok = max(window) == F(1, 3)
    attained = all(traj[3**j] == F(1, 3) for j in range(7))
    elapsed = time.perf_counter() - t0
    report(
        "1 odometer window max = 1/3 attained at n = 3^j",
        ok and attained and elapsed < 1.0,
        f"max={max(window)}, elapsed={elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 2. odometer window minimum


def test_criterion_2_odometer_window_minimum():
    t0 = time.perf_counter()
    # oracle: exhaustive digit scan of ell over the window (recomputed here)
    best = max(ell(add(ONES, n)) for n in range(1, 3**7 + 1))
    pinned = F(1, 3**8)  # frozen from the digit-scan oracle (best = 8)
    traj = fiber_diam_traj(ONES, 3**7)
    got = min(traj[1:])
    elapsed = time.perf_counter() - t0
    report(
        "2 odometer window min equals oracle value <= 3^-6",
        best == 8 and got == pinned and got <= F(1, 3**6) and elapsed < 1.0,
        f"min={got}, elapsed={elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 3. epsilon-scrambled cardinalities


def test_criterion_3_eps_scrambled_cardinalities():
    t0 = time.perf_counter()
    r10 = eps_scrambled_max(ONES, F(1, 10), grid=1000)
    r4 = eps_scrambled_max(ONES, F(1, 4), grid=1000)
    r3 = eps_scrambled_max(ONES, F(1, 3), grid=1000)
    ok = (
        r10.size == 4
        and r4.size == 2
        and r3.size == 1
        and r10.analytic_bound == 4
        and r4.analytic_bound == 2
    )
    elapsed = time.perf_counter() - t0
    report(
        "3 eps-scrambled sizes 4/2/1 at eps=1/10,1/4,1/3",
        ok and elapsed < 10.0,
        f"sizes=({r10.size},{r4.size},{r3.size}), elapsed={elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 4. cross-fiber distality


def _first_difference(a: Address, b: Address) -> int:
    top = 0
    for p, _ in a.digits + b.digits:
        top = max(top, p)
    for i in range(top + 2):
        if a.digit(i) != b.digit(i):
            return i
    raise AssertionError("equal addresses")


def test_criterion_4_cross_fiber_distality():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 500:
        a = add(ONES, rng.randint(0, 3**6))
        b = add(ONES, rng.randint(0, 3**6))
        if a == b:
            continue
        v = _first_difference(a, b)
        if v <= 5:
            pairs.append((a, b, v))
    violation = None  # (a, b, v, step) of the first gap below its bound
    for a, b, v in pairs:
        bound = F(1, 5 ** (v + 1))
        an, bn = a, b
        for n in range(1001):
            if abs(embed_x(an) - embed_x(bn)) < bound:
                violation = (a, b, v, n)
                break
            an, bn = add(an, 1), add(bn, 1)
        if violation:
            break
    elapsed = time.perf_counter() - t0
    ok = violation is None
    if ok:
        detail = f"elapsed={elapsed:.1f}s, bound 30.0s"
    else:
        a, b, v, n = violation
        detail = f"gap below 5^-{v + 1} for pair {a}, {b} at step {n}"
    report(
        "4 horizontal gap never below 5^-(v+1) over 500 pairs x 1000 steps",
        ok and elapsed < 30.0,
        detail,
    )


# -------------------------------------------------------------------------
# 5. exact-map builder on comb(8)


def test_criterion_5_exact_builder_comb8():
    t0 = time.perf_counter()
    comb8 = generate(FamilyDescriptor("comb", {"depth": 8}))
    Fm = build_exact(comb8, "A", q=F(1, 2), rho=F(6, 5))
    K = len(Fm.parts)
    chain_bound = K + 1  # strictly decreasing targets reach bush 1, then cover
    cert = verify_exact(Fm, chain_bound)
    pinned_max = 8  # frozen from the first full run; must stay within bound
    covered = cert.all_bush_pieces_covered
    within = cert.max_cover_time is not None and cert.max_cover_time <= chain_bound
    stable = cert.max_cover_time == pinned_max
    # exact identity on 100 sampled base points
    D2 = Fm.domain
    pts = []
    for e, (a, b) in sorted(Fm.base.intervals.items()):
        for i in range(1, 13):
            pts.append(D2.point(e, a + (b - a) * F(i, 13)))
    pts = pts[:100]
    identity_ok = len(pts) == 100 and all(Fm.apply(p) == p for p in pts)
    elapsed = time.perf_counter() - t0
    report(
        "5 comb(8) exact build: pieces cover within bound, identity on base",
        covered and within and stable and identity_ok
        and cert.chain_ok and elapsed < 120.0,
        f"max_n={cert.max_cover_time}, bound={chain_bound}, elapsed={elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 6. omega-star counterexample behavior


def _omega_ball_family(D):
    members = []
    for i, e in enumerate(D.edges):
        mid = D.point(i, e.length / 2)
        members.append(ball(D, mid, e.length / 4))
    return members


def test_criterion_6_omega_star_counterexample():
    t0 = time.perf_counter()
    etas = {}
    for arms in (4, 8, 12):
        D, Fm = build_counterexample("omega_star_gch", arms=arms, q=F(1, 2))
        members = _omega_ball_family(D)
        fam = SetFamily("explicit", members=tuple(members))
        rep = verdict(Fm, fam, N=200)
        assert rep.prox_pass, f"prox failed for {arms} arms"
        # sens records stay within the owning arm's length
        for i, r in rep.sens_records:
            arm_len = D.edge_length(i)
            assert r <= arm_len
        etas[arms] = rep.eta_estimate
    decreasing = etas[4] > etas[8] > etas[12]
    elapsed = time.perf_counter() - t0
    report(
        "6 omega-star: prox 0 on all ball pairs, eta shrinks as arms grow",
        decreasing and elapsed < 120.0,
        f"etas={[str(etas[k]) for k in (4, 8, 12)]}, elapsed={elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 7. generic-chaos evidence for the fold on an interval


def test_criterion_7_tent_verdict():
    t0 = time.perf_counter()
    arc = generate(FamilyDescriptor("arc", {}))
    tent = TreeMap(
        arc,
        arc,
        vertex_images={"0": PointRef(vertex="0"), "1": PointRef(vertex="0")},
        edge_breaks={0: ((F(1, 2), PointRef(vertex="1")),)},
    )
    rep = verdict(tent, SetFamily("balls", radii_levels=5), N=64)
    elapsed = time.perf_counter() - t0
    report(
        "7 interval fold: prox passes and eta_estimate = 1 within N = 64",
        rep.prox_pass and rep.eta_estimate == 1 and elapsed < 10.0,
        f"eta={rep.eta_estimate}, elapsed={elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 8. metric-tree exactness suite


def test_criterion_8_metric_exactness():
    t0 = time.perf_counter()
    spaces = [
        generate(FamilyDescriptor("star", {})),
        generate(FamilyDescriptor("comb", {"depth": 3})),
        generate(FamilyDescriptor("riemann", {"qmax": 3})),
    ]
    rng = random.Random(88)

    def rand_point(D):
        e = rng.randrange(len(D.edges))
        return D.point(e, D.edge_length(e) * F(rng.randint(0, 16), 16))

    convex_ok = True
    for i in range(1000):
        D = spaces[i % 3]
        x, y = rand_point(D), rand_point(D)
        d = dist(D, x, y)
        z = point_along(D, x, y, d * F(rng.randint(0, 8), 8))
        if dist(D, x, z) + dist(D, z, y) != d:
            convex_ok = False
            break
    helly_ok = True
    D = spaces[1]
    done = 0
    while done < 200:
        subs = [
            span_subtree(D, [rand_point(D), rand_point(D)]) for _ in range(3)
        ]
        if all(
            subtrees_intersect(subs[i], subs[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ):
            total = intersect_subtrees(
                D, intersect_subtrees(D, subs[0], subs[1]), subs[2]
            )
            if total.is_empty():
                helly_ok = False
                break
            done += 1
    elapsed = time.perf_counter() - t0
    report(
        "8 exact convexity on 1000 triples, intersection property on 200",
        convex_ok and helly_ok and elapsed < 10.0,
        f"elapsed={elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 9. orbit decomposition vs brute force


def _brute_orbit_decomposition(Fm, E, horizon):
    """Literal enumeration: scan all (n0, k), union images term by term,
    split the orbit into components by repeated pairwise merging."""
    imgs = plain_orbit(Fm, E, horizon)
    found = None
    for n0 in range(horizon):
        ks = [
            k
            for k in range(1, horizon - n0 + 1)
            if subtrees_intersect(imgs[n0], imgs[n0 + k])
        ]
        if ks:
            found = (n0, min(ks))
            break
    if not found:
        return None
    n0, k = found
    D = Fm.codomain
    K_sets = []
    for i in range(k):
        terms = [imgs[n] for n in range(n0 + i, horizon + 1, k)]
        acc = terms[0]
        for t in terms[1:]:
            acc = union_subtrees(D, [acc, t])[0]
        K_sets.append(acc)
    comps = union_subtrees(D, K_sets)
    return n0, k, len(comps), comps


def _random_tree(rng, edges):
    vertices = ["v0"]
    eds = []
    for i in range(1, edges + 1):
        parent = rng.choice(vertices)
        vertices.append(f"v{i}")
        eds.append((parent, f"v{i}", F(rng.randint(1, 5), rng.randint(1, 3))))
    from dendro.metric_tree import Dendrite

    return Dendrite(vertices, eds)


def test_criterion_9_orbit_decomposition_oracle():
    t0 = time.perf_counter()
    rng = random.Random(909)
    checked = 0
    ok = True
    while checked < 20:
        D = _random_tree(rng, rng.randint(2, 6))
        vi = {}
        for v in D.vertices:
            e = rng.randrange(len(D.edges))
            vi[v] = D.point(e, D.edge_length(e) * F(rng.randint(0, 4), 4))
        Fm = TreeMap(D, D, vi)
        e = rng.randrange(len(D.edges))
        L = D.edge_length(e)
        E = make_subtree(D, {e: (L / 4, 3 * L / 4)})
        horizon = 9
        brute = _brute_orbit_decomposition(Fm, E, horizon)
        dec = orbit_decomposition(Fm, E, horizon)
        if brute is None:
            ok = ok and not dec.conclusive
        else:
            n0, k, r, comps = brute
            ok = ok and dec.conclusive and (dec.n0, dec.k, dec.r) == (n0, k, r)
            canon = lambda cs: sorted(
                str(sorted(c.to_dict()["intervals"].items())) for c in cs
            )
            ok = ok and canon(comps) == canon(dec.L_sets)
        if not ok:
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "9 orbit decomposition equals brute-force enumeration on 20 maps",
        ok and elapsed < 60.0,
        f"elapsed={elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 10. length-expansion checker soundness


def test_criterion_10_length_expansion_soundness():
    t0 = time.perf_counter()
    arc = generate(FamilyDescriptor("arc", {}))
    tent = TreeMap(
        arc,
        arc,
        vertex_images={"0": PointRef(vertex="0"), "1": PointRef(vertex="0")},
        edge_breaks={0: ((F(1, 2), PointRef(vertex="1")),)},
    )
    from dendro.tree_map import identity_map

    witness_ok = True
    w1 = check_length_expanding(
        tent, DenseFamily("all_closed_intervals"), F(2), samples=60, seed=1
    )
    witness_ok &= w1 is not None and reverify(tent, w1)
    w2 = check_length_expanding(
        identity_map(arc), DenseFamily("all_closed_intervals"), F(6, 5),
        samples=30, seed=2,
    )
    witness_ok &= w2 is not None and reverify(identity_map(arc), w2)

    star3 = generate(
        FamilyDescriptor("star", {"arm_lengths": (F(1, 2), F(1, 3), F(1, 6))})
    )
    built_ok = True
    for T, base in ((arc, "0"), (star3, "e1")):
        built = build_pair(T, PointRef(vertex=base), F(6, 5), samples=120, seed=3)
        wphi = check_length_expanding(
            built.phi, DenseFamily("all_closed_intervals"), F(6, 5),
            samples=500, seed=11,
        )
        wpsi = check_length_expanding(
            built.psi, DenseFamily("phi_images", through=built.phi), F(6, 5),
            samples=500, seed=12,
        )
        built_ok &= wphi is None and wpsi is None
    elapsed = time.perf_counter() - t0
    report(
        "10 expansion witnesses re-verify; built pairs pass at rho=6/5",
        witness_ok and built_ok and elapsed < 60.0,
        f"elapsed={elapsed:.1f}s",
    )
