"""Independent reference computations used to pin expected test values.

Everything here works from raw descriptor dictionaries and elementary
shortest-path / flood-fill code, deliberately sharing no logic with the
package implementations it checks.
"""

import re
from fractions import Fraction
from heapq import heappop, heappush


def dijkstra_dists(dend_dict, src_name):
    """Distances from src_name to every vertex of a raw dendrite dict via Dijkstra."""
    adj = {}
    for e in dend_dict["edges"]:
        ln = e["len"]
        if isinstance(ln, str):
            num, _, den = ln.partition("/")
            ln = Fraction(int(num), int(den or 1))
        adj.setdefault(e["u"], []).append((e["v"], ln))
        adj.setdefault(e["v"], []).append((e["u"], ln))
    dist = {src_name: Fraction(0)}
    heap = [(Fraction(0), src_name)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for w, ln in adj.get(v, []):
            nd = d + ln
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
    return dist


def dijkstra_dist(dend_dict, src_name, dst_name):
    """Vertex-to-vertex distance from a raw dendrite dict via Dijkstra."""
    return dijkstra_dists(dend_dict, src_name)[dst_name]


def _plain_exits(D, p):
    """(vertex, distance from p): the vertex p, or both ends of p's edge."""
    if p.is_vertex:
        return [(p.vertex, Fraction(0))]
    e = D.edges[p.edge]
    return [(e.u, p.offset), (e.v, e.length - p.offset)]


def _plain_route(D, x, y):
    """(length, u, w, Dijkstra table from u): the least of the exit-to-exit
    sums, one per exit u of x and w of y."""
    raw = D.to_dict()
    best = None
    for u, cu in _plain_exits(D, x):
        table = dijkstra_dists(raw, u)
        for w, cw in _plain_exits(D, y):
            d = cu + table[w] + cw
            if best is None or d < best[0]:
                best = (d, u, w, table)
    return best


def plain_dist(D, x, y):
    """The distance of two points: along the edge when they share one, else
    the four-exit minimum over Dijkstra distances."""
    if x == y:
        return Fraction(0)
    if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
        return abs(x.offset - y.offset)
    return _plain_route(D, x, y)[0]


def plain_geodesic_legs(D, x, y):
    """The arc from x to y as legs (edge, t_from, t_to), by the four-exit
    minimum: x's leg to its exit u, the vertex path from u to the exit w
    of y traced back from w down the Dijkstra table of u, and y's leg."""
    if x == y:
        return []
    if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
        return [(x.edge, x.offset, y.offset)]
    _, u, w, table = _plain_route(D, x, y)
    path, cur = [], w
    while cur != u:
        for i, e in enumerate(D.edges):
            prev = e.u if cur == e.v else e.v if cur == e.u else None
            if prev is not None and table[prev] + e.length == table[cur]:
                break
        path.append((i, Fraction(0), e.length) if prev == e.u
                    else (i, e.length, Fraction(0)))
        cur = prev
    legs = []
    if not x.is_vertex:
        e = D.edges[x.edge]
        legs.append((x.edge, x.offset, Fraction(0) if e.u == u else e.length))
    legs += path[::-1]
    if not y.is_vertex:
        e = D.edges[y.edge]
        legs.append((y.edge, Fraction(0) if e.u == w else e.length, y.offset))
    return legs


def plain_subtree_dist(D, S1, S2):
    """The distance of two connected sets, from their vertices and interval
    ends.  The sets meet iff one holds such a point of the other (a vertex
    or an end of their overlap is one); otherwise the bridge between them
    ends at such points, so the distance is the least ``plain_dist``."""
    from dendro.metric_tree import PointRef

    def ends(S):
        pts = [PointRef(vertex=v) for v in S.vertices]
        for e, (a, b) in S.intervals.items():
            pts += [D.point(e, a), D.point(e, b)]
        return pts

    def holds(S, p):
        if p.is_vertex:
            return p.vertex in S.vertices
        iv = S.intervals.get(p.edge)
        return iv is not None and iv[0] <= p.offset <= iv[1]

    P1, P2 = ends(S1), ends(S2)
    if any(holds(S2, p) for p in P1) or any(holds(S1, q) for q in P2):
        return Fraction(0)
    return min(plain_dist(D, p, q) for p in P1 for q in P2)


def grid_points(D, E, steps=8):
    """Rational sample grid over a subtree (interval subdivisions + vertices)."""
    from dendro.metric_tree import PointRef

    pts = [PointRef(vertex=v) for v in sorted(E.vertices)]
    for e, (a, b) in sorted(E.intervals.items()):
        for i in range(steps + 1):
            t = a + (b - a) * Fraction(i, steps)
            pts.append(D.point(e, t))
    seen, out = set(), []
    for p in pts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def tent_interval_image(lo, hi):
    """Exact image of [lo, hi] under the slope-2 tent fixing 0."""
    half = Fraction(1, 2)

    def tent(x):
        return 2 * x if x <= half else 2 - 2 * x

    vals = [tent(lo), tent(hi)]
    if lo <= half <= hi:
        vals.append(Fraction(1))
    return min(vals), max(vals)


def tent_iterate_interval(lo, hi, n):
    for _ in range(n):
        lo, hi = tent_interval_image(lo, hi)
    return lo, hi


def totient(n):
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def farey_count(qmax):
    """Number of reduced fractions p/q in [0,1] with q <= qmax."""
    return 1 + sum(totient(q) for q in range(1, qmax + 1))


def odometer_embed(digits):
    """Horizontal coordinate 1/2 + sum 2*(d-1)/5^(i+1), one term per digit.

    ``digits`` maps position -> digit for the digits different from 1.
    """
    x = Fraction(1, 2)
    for i, d in digits.items():
        x += Fraction(2 * (d - 1), 5 ** (i + 1))
    return x


def odometer_add(digits, n):
    """3-adic sum alpha + n by schoolbook digit carry on a dense digit dict.

    ``digits`` maps position -> digit for the digits of alpha different from
    1 (every other digit is 1); the result uses the same convention.  The
    signed carry (floor division) doubles as the borrow when n < 0.
    """
    sign, m = (1, n) if n >= 0 else (-1, -n)
    width = max(max(digits, default=0), m.bit_length()) + 2
    dense = {i: digits.get(i, 1) for i in range(width)}
    carry = 0
    for i in range(width):
        s = dense[i] + sign * (m % 3) + carry
        m //= 3
        dense[i] = s % 3
        carry = s // 3
    assert m == 0 and carry == 0
    return {i: d for i, d in dense.items() if d != 1}


def span_by_geodesics(D, points):
    """The span of the points: {points[0]} united with the arcs from it to
    every other point, merged by ``union_connected``."""
    from dendro.metric_tree import geodesic, point_subtree, union_connected

    base = points[0]
    parts = [point_subtree(D, base)] + [geodesic(D, base, p) for p in points[1:]]
    return union_connected(D, parts)


def plain_diameter_ends(D, S):
    """The double sweep with one ``dist`` call per candidate: the first
    interval end or vertex of S farthest from the first one, then the first
    farthest from that."""
    from dendro.metric_tree import dist, subtree_points

    pts = subtree_points(D, S)
    p1 = max(pts, key=lambda p: dist(D, pts[0], p))
    p2 = max(pts, key=lambda p: dist(D, p1, p))
    return p1, p2


def plain_ball(D, x, radius):
    """The closed ball by edge clipping, with one ``dist`` call per vertex."""
    from dendro.metric_tree import PointRef, dist, make_subtree

    near = {v: dist(D, x, PointRef(vertex=v)) for v in D.vertices}
    ivs = {}
    for ei, e in enumerate(D.edges):
        if not x.is_vertex and x.edge == ei:
            ivs[ei] = (max(Fraction(0), x.offset - radius),
                       min(e.length, x.offset + radius))
            continue
        du, dv = near[e.u], near[e.v]
        left = radius - min(du, dv)
        if left > 0:
            ivs[ei] = ((Fraction(0), min(e.length, left)) if du < dv
                       else (max(Fraction(0), e.length - left), e.length))
    return make_subtree(D, ivs, {v for v, d in near.items() if d <= radius})


def plain_orbit(F, S, N):
    """[S, f(S), ..., f^N(S)] with every image computed: no cycle detection."""
    out = [S]
    for _ in range(N):
        out.append(F.image(out[-1]))
    return out


def plain_ly_sample(F, pair_count, N, delta, epsilon, seed):
    """ly_sample's report by the horizon loop: every pair's points are
    mapped N times, with no cycle cut."""
    import random

    from dendro.chaos import LySampleReport, _random_point
    from dendro.metric_tree import dist

    delta, epsilon = Fraction(delta), Fraction(epsilon)
    rng = random.Random(seed)
    D = F.domain
    both = prox_only = sep_only = neither = 0
    for _ in range(pair_count):
        x, y = _random_point(rng, D), _random_point(rng, D)
        lo = hi = dist(D, x, y)
        for _n in range(N):
            x, y = F.apply(x), F.apply(y)
            d = dist(F.codomain, x, y)
            lo = min(lo, d)
            hi = max(hi, d)
        prox = lo <= delta
        sep = hi > epsilon
        if prox and sep:
            both += 1
        elif prox:
            prox_only += 1
        elif sep:
            sep_only += 1
        else:
            neither += 1
    return LySampleReport(
        pair_count=pair_count,
        horizon=N,
        delta=delta,
        epsilon=epsilon,
        seed=seed,
        scrambling_evidence=both,
        proximal_only=prox_only,
        separated_only=sep_only,
        neither=neither,
    )


def plain_cover_times(F, n_max):
    """covered_at of each certification piece of F by the horizon loop: a
    bush piece's orbit is imaged step by step, up to n_max, until it is the
    whole space; a base piece is never tried."""
    from dendro.metric_tree import full_subtree, make_subtree

    D = F.domain
    whole = full_subtree(D)
    out = []
    for e, a, b, kind in F.pieces():
        covered = None
        if kind == "bush":
            cur = make_subtree(D, {e: (a, b)})
            for n in range(1, n_max + 1):
                cur = F.image(cur)
                if cur == whole:
                    covered = n
                    break
        out.append(covered)
    return out


def first_repeat(orbit):
    """(m, p) of the first n = m + p with orbit[n] == orbit[m], m < n, or None."""
    for n, S in enumerate(orbit):
        for m in range(n):
            if orbit[m] == S:
                return m, n - m
    return None


def plain_dist_steps(F, A, B):
    """dist(A[n], B[n]) at every step n of two plain orbits, up to the first 0.

    The proximality record at horizon N is the min of the first N + 1 values.
    """
    from dendro.metric_tree import subtree_dist

    out = []
    for n, (S1, S2) in enumerate(zip(A, B)):
        out.append(subtree_dist(F.codomain if n else F.domain, S1, S2))
        if out[-1] == 0:
            break
    return out


def plain_diam_steps(F, A):
    """diam A[n] at every step n of a plain orbit.

    The sensitivity record for N0 <= n <= N is the max of values N0 to N.
    """
    from dendro.metric_tree import subtree_diam

    return [subtree_diam(F.codomain if n else F.domain, S) for n, S in enumerate(A)]


def stepwise_sawtooth(total, laps, start):
    """Control points of a triangle wave onto [0, total], one fold at a time.

    The wave starts at ``start``, rises first, travels laps * total in unit
    time and reflects at 0 and total; each step runs to the next wall (or
    to time 1) and records (time, value).
    """
    speed = laps * total
    pts = [(Fraction(0), start)]
    t, pos, direction = Fraction(0), start, 1
    while t < 1:
        target = total if direction > 0 else Fraction(0)
        dt = (target - pos) / speed * direction
        if dt == 0:
            direction = -direction
            continue
        if t + dt >= 1:
            pts.append((Fraction(1), pos + direction * speed * (1 - t)))
            break
        t += dt
        pos = target
        pts.append((t, pos))
        direction = -direction
    return pts


def scan_fold_cuts(nu, nv, length, laps):
    """Offsets on an edge where the distance nu -> nv crosses some j/laps.

    Scans every j = 0..laps and keeps the crossings strictly inside the edge.
    """
    out = []
    for j in range(laps + 1):
        x = Fraction(j, laps)
        s = (x - nu) / (nv - nu)
        if 0 < s < 1:
            out.append(s * length)
    return sorted(out)


def _plain_controls(F, e):
    """(time, image) control points of edge e, from the map's raw data."""
    ed = F.domain.edges[e]
    return [(Fraction(0), F.vertex_images[ed.u]),
            *F.edge_breaks.get(e, ()),
            (ed.length, F.vertex_images[ed.v])]


def plain_apply(F, x):
    """F(x) by a linear scan of the controls, then dist and point_along."""
    from dendro.metric_tree import dist, point_along

    if x.is_vertex:
        return F.vertex_images[x.vertex]
    ctrl = _plain_controls(F, x.edge)
    for (t0, p0), (t1, p1) in zip(ctrl, ctrl[1:]):
        if t0 <= x.offset <= t1:
            d = dist(F.codomain, p0, p1)
            return point_along(F.codomain, p0, p1, d * (x.offset - t0) / (t1 - t0))
    raise AssertionError("offset not covered by the controls")


def plain_image(F, S):
    """F(S): one geodesic per consecutive control pair, then union_subtrees.

    Each interval [a, b] contributes the geodesics through F(a), the
    controls strictly inside it and F(b); each vertex its image point.
    """
    from dendro.metric_tree import geodesic, point_subtree, union_subtrees

    D = F.codomain
    parts = [point_subtree(D, F.vertex_images[v]) for v in sorted(S.vertices)]
    for e, (a, b) in sorted(S.intervals.items()):
        pts = [plain_apply(F, F.domain.point(e, a))]
        pts += [p for t, p in F.edge_breaks.get(e, ()) if a < t < b]
        pts.append(plain_apply(F, F.domain.point(e, b)))
        parts += [geodesic(D, p0, p1) for p0, p1 in zip(pts, pts[1:])]
    comps = union_subtrees(D, parts)
    assert len(comps) == 1, comps
    return comps[0]


def plain_phi(T, S, root, laps):
    """Walk zigzag I -> S built point by point: within each monotone stretch
    of the wave onto [0, 2|S|], the walk's leg boundaries are pulled back and
    every control is placed on the walk; then sorted and deduplicated."""
    from dendro.length_expanding import double_cover_walk, unit_arc
    from dendro.metric_tree import h1_measure, point_on_walk
    from dendro.tree_map import TreeMap

    legs = double_cover_walk(T, S, root)
    total = 2 * h1_measure(S)
    starts, clock = [], Fraction(0)
    for _e, a, b in legs:
        starts.append(clock)
        clock += abs(b - a)
    controls = []
    zig = stepwise_sawtooth(total, laps, Fraction(0))
    for (t0, s0), (t1, s1) in zip(zig, zig[1:]):
        lo, hi = (s0, s1) if s0 <= s1 else (s1, s0)
        cuts = [s0, s1]
        cuts.extend(start for start in starts if lo < start < hi)
        cuts = sorted(set(cuts), reverse=s0 > s1)
        for s in cuts:
            t = t0 + (t1 - t0) * (s - s0) / (s1 - s0)
            controls.append((t, point_on_walk(T, legs, s)))
    controls.sort(key=lambda tp: tp[0])
    vertex_images = {"0": controls[0][1], "1": controls[-1][1]}
    breaks, seen = [], set()
    for t, p in controls:
        if 0 < t < 1 and t not in seen:
            seen.add(t)
            breaks.append((t, p))
    return TreeMap(unit_arc(), T, vertex_images, {0: tuple(breaks)})


def plain_psi(T, root, laps):
    """Zigzag T -> [0, 1] of the normalized distance to a root vertex, built
    edge by edge: vertex images, then the scanned fold crossings."""
    from dendro.length_expanding import unit_arc
    from dendro.metric_tree import PointRef, dist
    from dendro.tree_map import TreeMap

    reach = {v: dist(T, PointRef(vertex=root), PointRef(vertex=v))
             for v in T.vertices}
    radius = max(reach.values())
    norm = {v: d / radius for v, d in reach.items()}
    unit = unit_arc()

    def wave(n):
        r = (laps * n) % 2
        return unit.point(0, r if r <= 1 else 2 - r)

    edge_breaks = {}
    for e, ed in enumerate(T.edges):
        nu, nv = norm[ed.u], norm[ed.v]
        edge_breaks[e] = tuple(
            (t, wave(nu + (nv - nu) * t / ed.length))
            for t in scan_fold_cuts(nu, nv, ed.length, laps)
        )
    return TreeMap(T, unit, {v: wave(n) for v, n in norm.items()}, edge_breaks)


def components(D, S):
    """Connected components of a closed set of edge intervals and vertices,
    by flood fill: an interval touches an end vertex it reaches."""
    nodes = [("v", v) for v in S.vertices] + [("e", e) for e in S.intervals]
    adj = {n: [] for n in nodes}
    for e, (a, b) in S.intervals.items():
        ed = D.edges[e]
        for end, at in ((ed.u, a == 0), (ed.v, b == ed.length)):
            if at and ("v", end) in adj:
                adj[("e", e)].append(("v", end))
                adj[("v", end)].append(("e", e))
    out, seen = [], set()
    for n in nodes:
        if n in seen:
            continue
        comp, stack = set(), [n]
        while stack:
            m = stack.pop()
            if m not in comp:
                comp.add(m)
                stack.extend(adj[m])
        seen |= comp
        out.append(comp)
    return out


def grid_intervals(D, den=24):
    """Every interval of positive length on the one-edge arc D whose ends
    lie on the 1/den grid of the edge."""
    from dendro.metric_tree import make_subtree

    L = D.edge_length(0)
    return [make_subtree(D, {0: (L * Fraction(i, den), L * Fraction(j, den))})
            for i in range(den) for j in range(i + 1, den + 1)]


def expansion_violations(F, sets, ratio, whole):
    """Dense-scan oracle of the expansion dichotomy, in exact arithmetic:
    the sets whose image is not ``whole`` and is shorter than ``ratio``
    times the set itself."""
    from dendro.metric_tree import h1_measure

    out = []
    for S in sets:
        img = F.image(S)
        if img != whole and h1_measure(img) < ratio * h1_measure(S):
            out.append(S)
    return out


def bush_ends_and_reach(D, S, root):
    """(m, R) of a whole-edge subtree S about a root vertex: its ends other
    than the root, counted from the edges at each vertex, and the largest
    Dijkstra distance from the root to a vertex of S."""
    touches = {}
    for e in S.intervals:
        for v in (D.edges[e].u, D.edges[e].v):
            touches[v] = touches.get(v, 0) + 1
    ends = sum(1 for v, n in touches.items() if n == 1 and v != root)
    dists = dijkstra_dists(D.to_dict(), root)
    return ends, max(dists[v] for v in S.vertices)


def file_matches(wrote, read):
    """Whether a file's JSON ``read`` matches ``wrote``, what the object
    loaded from it writes back: the same keys and list lengths, leaves equal
    with one JSON type or rationals ("p/q" or an integer) of one value where
    ``wrote`` holds a string, and a key the file omits only where ``wrote``
    holds an empty object or array, or a map kind "piecewise"."""
    if isinstance(wrote, dict):
        return isinstance(read, dict) and set(read) <= set(wrote) and all(
            file_matches(w, read[k]) if k in read
            else w in ({}, []) or (k, w) == ("kind", "piecewise")
            for k, w in wrote.items())
    if isinstance(wrote, list):
        return (isinstance(read, list) and len(read) == len(wrote)
                and all(file_matches(w, r) for w, r in zip(wrote, read)))
    if type(read) is type(wrote) and read == wrote:
        return True
    return type(wrote) is str and None is not _plain_rat(wrote) == _plain_rat(read)


def _plain_rat(x):
    """The value of an integer or of a "p/q" or "n" string, else None."""
    if type(x) is int:
        return Fraction(x)
    m = re.fullmatch(r"\s*(-?\d+)(?:/(\d+))?\s*", x) if type(x) is str else None
    if m is None or m.group(2) is not None and int(m.group(2)) == 0:
        return None
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


class PlainConjugateGlued:
    """The identity on ``base`` and on each region the map ``inner`` of a
    rescaled standalone copy of it, carried there and back edge by edge:
    the conjugation layout the glued builders used before gluing in place.
    Every overlap, inside the base or not, goes through its region's map."""

    def __init__(self, D, base, parts):
        self.domain = self.codomain = D
        self.base = base
        self.parts = []  # (region, chart onto the copy, chart back, inner map)
        for region, inner in parts:
            copy = inner.domain
            there = {e: (i, copy.edges[i].length / D.edges[e].length)
                     for i, e in enumerate(sorted(region.intervals))}
            back = {i: (e, 1 / s) for e, (i, s) in there.items()}
            self.parts.append((region, (copy, there), (D, back), inner))

    def apply(self, x):
        from dendro.metric_tree import contains_point

        if contains_point(self.domain, self.base, x):
            return x
        for region, there, back, inner in self.parts:
            if contains_point(self.domain, region, x):
                return _carry_point(back, inner.apply(_carry_point(there, x)))
        raise AssertionError(x)

    def image(self, S):
        from dendro.metric_tree import intersect_subtrees, union_subtrees

        D = self.domain
        out = [intersect_subtrees(D, S, self.base)]
        for region, there, back, inner in self.parts:
            C = intersect_subtrees(D, S, region)
            if not C.is_empty():
                out.append(_carry_set(back, inner.image(_carry_set(there, C))))
        comps = union_subtrees(D, out)
        assert len(comps) == 1, comps
        return comps[0]


def _carry_point(chart, p):
    T, edges = chart
    if p.is_vertex:
        return p
    e, s = edges[p.edge]
    return T.point(e, p.offset * s)


def _carry_set(chart, S):
    from dendro.metric_tree import make_subtree

    T, edges = chart
    ivs = {edges[e][0]: (a * edges[e][1], b * edges[e][1]) for e, (a, b) in S.intervals.items()}
    return make_subtree(T, ivs, S.vertices)


def _standalone_copy(D, S):
    """A new dendrite of the whole-edge subtree S: its vertices sorted, its
    edges in index order, at their lengths in D."""
    from dendro.metric_tree import Dendrite

    return Dendrite(sorted(S.vertices), [D.edges[e] for e in sorted(S.intervals)])


def plain_conjugate_gch(D, A, q, rho):
    """The arc-form counterexample as it was built by conjugation: each
    shell region (its clipped arc and teeth) extracted, ``build_exact`` run
    on the copy at q and rho, which rescales it to the q-form, and the
    result carried back to the glued space."""
    from dendro.exact_builder import _gch_shells, build_exact
    from dendro.metric_tree import geodesic, make_subtree, union_connected

    if isinstance(A, str):
        A = geodesic(D, D.resolve_marked(f"{A}_left"), D.resolve_marked(f"{A}_right"))
    space, base, shells = _gch_shells(D, A)
    parts = []
    for _, _, shell in shells:
        region = union_connected(space, [shell.base] + [b.subtree for b in shell.bushes])
        copy = _standalone_copy(space, region)
        index = {e: i for i, e in enumerate(sorted(region.intervals))}
        arc = make_subtree(copy, {index[e]: iv for e, iv in shell.base.intervals.items()},
                           shell.base.vertices)
        parts.append((region, build_exact(copy, arc, q=q, rho=rho)))
    return PlainConjugateGlued(space, base, parts)


def plain_conjugate_point(D, point, rho, seed=0):
    """The point form with branched bushes as it was built by conjugation:
    ``build_pair`` on a standalone copy of each bush, which rescales it to
    measure 1, and phi after psi carried back to the bush."""
    from dendro.exact_builder import decompose_bushes
    from dendro.length_expanding import build_pair
    from dendro.metric_tree import PointRef
    from dendro.tree_map import compose

    dec = decompose_bushes(D, point)
    parts = []
    for b in dec.bushes:
        built = build_pair(_standalone_copy(dec.space, b.subtree), PointRef(vertex=b.root),
                           rho, samples=80, seed=seed)
        parts.append((b.subtree, compose(built.phi, built.psi)))
    return PlainConjugateGlued(dec.space, dec.base, parts)
