"""Piecewise-geodesic selfmaps of finite metric trees.

A :class:`TreeMap` is given by images of the domain vertices plus optional
interior breakpoints per edge; between consecutive control points the map
traverses the geodesic joining their images at constant speed.  This class
of maps is closed under composition with exact rational data, so point
images, set images and iterates are all computed exactly.

Maps may have distinct domain and codomain; iteration requires a selfmap.
Anything with ``domain``/``codomain``/``apply``/``image`` quacks like a map
here (the glued constructions elsewhere rely on that).

Set images are memoized per map: each instance keeps one dict from the
set (a :class:`Subtree` is its own key) to its image, so a set is imaged
once however often orbits, builders and checkers ask for it again.  Maps
are immutable after construction, so an entry never goes stale, and
callers share the stored image as they share every ``Subtree``, never
mutating it.  The memo lives as long as the map and holds one image per
distinct set imaged.

Each piece of the control polyline is found and walked once.  A point's
piece, and the controls inside an interval, are found by bisecting the
edge's tuple of control times.  The geodesic of a piece (its legs and
length) is walked on first use and kept per map next to the controls,
under the same never-stale contract, so the cache holds O(pieces walked)
for the map's life.  ``apply`` takes the point at the scaled distance
along the cached legs; a point on a control time is that control's image,
read without a walk.  The image of an interval reads the same cached
walks: those of its full pieces whole, and those of its two end pieces cut
at the scaled distance of its ends (:func:`split_walk`), the left one's
tail and the right one's head, or the stretch between the two cuts when
the interval lies inside one piece.  It merges them per edge into one set
(:func:`merge_walks`), so it never walks a geodesic afresh; ``compose``
reads the same cached walks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from dendro.metric_tree import (
    F0,
    Dendrite,
    GeometryError,
    PointRef,
    Subtree,
    geodesic_walk,
    merge_walks,
    point_on_walk,
    point_subtree,
    split_walk,
    subtree_contains,
    subtrees_intersect,
    union_connected,
    union_subtrees,
)
from dendro.serialize import format_rat, parse_rat


class TreeMap:
    """Constant-speed-onto-geodesic map determined by its control points."""

    kind = "piecewise"

    def __init__(self, domain: Dendrite, codomain: Dendrite, vertex_images,
                 edge_breaks=None):
        self.domain = domain
        self.codomain = codomain
        self.vertex_images: dict[str, PointRef] = dict(vertex_images)
        self.edge_breaks: dict[int, tuple] = {
            int(e): tuple((Fraction(t), p) for t, p in brs)
            for e, brs in (edge_breaks or {}).items()
            if brs
        }
        # per edge: controls, their times, and per piece its walk and length
        self._controls_cache: dict[int, tuple] = {}
        self._image_memo: dict[Subtree, Subtree] = {}
        self._validate()

    def _validate(self):
        for v in self.domain.vertices:
            if v not in self.vertex_images:
                raise GeometryError(f"no image for vertex {v!r}")
            self.codomain.check_point(self.vertex_images[v])
        if len(self.vertex_images) > len(self.domain.vertices):  # an extra image
            known = set(self.domain.vertices)
            v = next(v for v in self.vertex_images if v not in known)
            raise GeometryError(f"image for unknown vertex {v!r}")
        for e, brs in self.edge_breaks.items():
            if not 0 <= e < len(self.domain.edges):
                raise GeometryError(f"breakpoints on unknown edge {e}")
            L = self.domain.edge_length(e)
            last = F0
            for t, p in brs:
                if not (0 < t < L):
                    raise GeometryError(f"breakpoint {t} outside edge {e}")
                if t <= last and last != 0:
                    raise GeometryError(f"breakpoints on edge {e} not increasing")
                last = t
                self.codomain.check_point(p)

    # -- control polyline per edge

    def controls(self, e: int):
        return self._edge_controls(e)[0]

    def _edge_controls(self, e: int):
        """(controls, their strictly increasing times, walks, lengths) of edge e.

        ``walks[k]`` and ``lengths[k]`` hold the legs and length of the
        geodesic of piece k once :meth:`_piece_walk` has walked it.
        """
        cached = self._controls_cache.get(e)
        if cached is None:
            ed = self.domain.edges[e]
            ctrl = (
                (F0, self.vertex_images[ed.u]),
                *self.edge_breaks.get(e, ()),
                (ed.length, self.vertex_images[ed.v]),
            )
            n = len(ctrl) - 1
            cached = self._controls_cache[e] = (
                ctrl, tuple(t for t, _ in ctrl), [None] * n, [None] * n)
        return cached

    def _piece_walk(self, e: int, k: int):
        """(legs, length) of the geodesic of piece k of edge e, walked once."""
        ctrl, _, walks, lengths = self._edge_controls(e)
        legs = walks[k]
        if legs is None:
            legs = walks[k] = tuple(
                geodesic_walk(self.codomain, ctrl[k][1], ctrl[k + 1][1]))
            lengths[k] = sum((abs(b - a) for _, a, b in legs), F0)
        return legs, lengths[k]

    def _piece_at(self, e: int, k: int, t: Fraction):
        """(legs, s): the walk of piece k of edge e, and the distance along
        it at which the map sends time t of the piece."""
        _, times, _, _ = self._edge_controls(e)
        legs, d = self._piece_walk(e, k)
        t0 = times[k]
        return legs, d * (t - t0) / (times[k + 1] - t0)

    def _piece_point(self, e: int, k: int, t: Fraction) -> PointRef:
        """The image of time t of piece k of edge e."""
        legs, s = self._piece_at(e, k, t)
        if not legs:  # a constant piece
            return self._edge_controls(e)[0][k][1]
        return point_on_walk(self.codomain, legs, s)

    # -- evaluation

    def apply(self, x: PointRef) -> PointRef:
        self.domain.check_point(x)
        if x.is_vertex:
            return self.vertex_images[x.vertex]
        ctrl, times, _, _ = self._edge_controls(x.edge)
        t = x.offset
        k = bisect_left(times, t)
        if times[k] == t:
            return ctrl[k][1]
        return self._piece_point(x.edge, k - 1, t)  # t lies inside piece k - 1

    def image(self, S: Subtree) -> Subtree:
        return _memo_image(self._image_memo, self._image, S)

    def _image(self, S: Subtree) -> Subtree:
        if len(S.intervals) == 1:  # one interval's image is already one canonical set
            (e, (a, b)), = S.intervals.items()
            return self._interval_image(e, a, b)
        # every vertex of a connected set with intervals ends one of them
        parts = [self._interval_image(e, a, b) for e, (a, b) in S.intervals.items()]
        if not parts:
            parts = [point_subtree(self.codomain, self.vertex_images[v])
                     for v in S.vertices]
        comps = union_subtrees(self.codomain, parts)
        if len(comps) != 1:
            raise GeometryError("image of a connected set came out disconnected")
        return comps[0]

    def _interval_image(self, e: int, a: Fraction, b: Fraction) -> Subtree:
        """Image of [a, b] on edge e: the cached walks of the pieces it
        meets, the end pieces cut at a and b."""
        if not 0 <= a <= b <= self.domain.edge_length(e):
            raise GeometryError(f"interval [{a}, {b}] outside edge {e}")
        ctrl, times, _, _ = self._edge_controls(e)
        i = bisect_left(times, a)  # controls i .. j - 1 lie in [a, b]
        j = bisect_right(times, b, i)
        if i == j:  # inside piece i - 1
            if a == b:
                return point_subtree(self.codomain, self._piece_point(e, i - 1, a))
            legs, sb = self._piece_at(e, i - 1, b)
            _, sa = self._piece_at(e, i - 1, a)
            walks = [split_walk(split_walk(legs, sb)[0], sa)[1]]
            start = ctrl[i - 1][1]  # the image when the piece is constant
        else:
            walks = []
            if a < times[i]:
                legs, sa = self._piece_at(e, i - 1, a)
                walks.append(split_walk(legs, sa)[1])
            walks.extend(self._piece_walk(e, k)[0] for k in range(i, j - 1))
            if times[j - 1] < b:
                legs, sb = self._piece_at(e, j - 1, b)
                walks.append(split_walk(legs, sb)[0])
            start = ctrl[i][1]  # the image when every piece met is constant
        return merge_walks(self.codomain, walks, start)

    def pieces(self):
        """Domain partition on which the map is geodesic-linear."""
        out = []
        for e in range(len(self.domain.edges)):
            ctrl = self.controls(e)
            for (t0, _), (t1, _) in zip(ctrl, ctrl[1:]):
                out.append((e, t0, t1))
        return out

    # -- serialization

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain.to_dict(),
            "codomain": self.codomain.to_dict(),
            "vertex_images": {
                v: p.to_dict() for v, p in sorted(self.vertex_images.items())
            },
            "edge_breaks": {
                str(e): [[format_rat(t), p.to_dict()] for t, p in brs]
                for e, brs in sorted(self.edge_breaks.items())
            },
        }

    @staticmethod
    def from_dict(d: Mapping, codomain: Optional[Dendrite] = None) -> "TreeMap":
        """The map ``d`` describes; ``codomain``, when given, stands in for
        the tree ``d`` holds under that key, which it must equal."""
        return TreeMap(
            domain=Dendrite.from_dict(d["domain"]),
            codomain=(Dendrite.from_dict(d["codomain"]) if codomain is None
                      else codomain),
            vertex_images={
                v: PointRef.from_dict(p) for v, p in d["vertex_images"].items()
            },
            edge_breaks={
                int(e): tuple((parse_rat(t), PointRef.from_dict(p)) for t, p in brs)
                for e, brs in d.get("edge_breaks", {}).items()
            },
        )


def _memo_image(memo: dict, image, S: Subtree) -> Subtree:
    """``image(S)``, read from ``memo`` under ``S`` or computed once.

    The lookup sits inside each map's ``image``, so every call is still a
    call of that method; only a miss computes.  A raised error stores
    nothing.
    """
    out = memo.get(S)
    if out is None:
        out = memo[S] = image(S)
    return out


def identity_map(D: Dendrite) -> TreeMap:
    return TreeMap(D, D, {v: PointRef(vertex=v) for v in D.vertices})


# ---------------------------------------------------------------------------
# composition (exact, materialized)


def compose(G, F) -> TreeMap:
    """The exact composition G after F as an explicit TreeMap.

    Breakpoints of the composite are F's breakpoints together with pullbacks
    of G's geodesic-linearity boundaries along each F-piece: the vertices
    its walk crosses and G's interior breakpoints on its legs.  Each cut's
    image is read off the walked legs.  A cut lies strictly inside its
    piece, and no two coincide: G's breakpoints are interior to G's edges,
    leg boundaries are vertices, and a geodesic crosses an edge once.
    """
    if F.codomain is not G.domain and F.codomain != G.domain:
        raise GeometryError("composition domains do not match")
    vertex_images = {v: G.apply(p) for v, p in F.vertex_images.items()}
    edge_breaks = {}
    for e in range(len(F.domain.edges)):
        ctrl = F.controls(e)
        brs = []
        for k, ((t0, p0), (t1, _)) in enumerate(zip(ctrl, ctrl[1:])):
            if 0 < t0:
                brs.append((t0, G.apply(p0)))
            legs, d = F._piece_walk(e, k)
            if d == 0:
                continue
            cuts = []
            s_acc = F0
            for ge, a, b in legs:
                lo, hi = (a, b) if a <= b else (b, a)
                for gt, _gp in G.edge_breaks.get(ge, ()):
                    if lo < gt < hi:
                        cuts.append(s_acc + abs(gt - a))
                s_acc += abs(b - a)
                if s_acc < d:
                    cuts.append(s_acc)
            for s in cuts:
                brs.append((t0 + (t1 - t0) * s / d,
                            G.apply(point_on_walk(F.codomain, legs, s))))
        # a leg that runs backwards lists its cuts in decreasing order
        brs.sort(key=lambda tp: tp[0])
        edge_breaks[e] = brs
    return TreeMap(F.domain, G.codomain, vertex_images, edge_breaks)


def require_selfmap(F, kind: str):
    """Raise unless F's codomain is its domain: `kind` orbits iterate F."""
    if F.codomain is not F.domain and F.codomain != F.domain:
        raise GeometryError(
            f"{kind} orbits need a selfmap: codomain differs from domain")


class Orbit:
    """The orbit start, f(start), f^2(start), ... of a state, on demand.

    A state is a hashable set, point or piece mask; each new one is keyed by
    value.  At the first exact repeat f^n(start) = f^m(start), m < n, the
    orbit is eventually periodic with ``preperiod`` m and ``period`` n - m,
    and every later step is read from the stored states without calling f.
    Both stay None while no repeat has been seen.
    """

    def __init__(self, f, start):
        self.f = f
        self._states = [start]
        self._index = {start: 0}
        self.preperiod: Optional[int] = None
        self.period: Optional[int] = None

    def at(self, n: int):
        """f^n(start)."""
        states = self._states
        while n >= len(states) and self.period is None:
            x = self.f(states[-1])
            m = self._index.get(x)
            if m is None:
                self._index[x] = len(states)
                states.append(x)
            else:
                self.preperiod, self.period = m, len(states) - m
        if n < len(states):
            return states[n]
        m = self.preperiod
        return states[m + (n - m) % self.period]


def scan(first: int, last: int, *orbits: Orbit):
    """The steps first..last at which the joint state of the orbits can be new.

    The caller reads the orbits at each step it is given.  Once every orbit
    is periodic, the joint state repeats with the lcm of their periods from
    step max(first, preperiods) on, so the scan stops after one such cycle.
    """
    end = None
    for n in range(first, last + 1):
        yield n
        if end is None:
            for o in orbits:  # a plain loop: it runs at every step
                if o.period is None:
                    break
            else:
                end = (max(first, *(o.preperiod for o in orbits))
                       + lcm(*(o.period for o in orbits)) - 1)
        if end is not None and n >= end:
            return


def set_orbit(F, S: Subtree) -> Orbit:
    """The orbit of the set S under the selfmap F."""
    require_selfmap(F, "set")
    return Orbit(F.image, S)


# ---------------------------------------------------------------------------
# orbit decomposition at a finite horizon


class OrbitDecomposition:
    """Finite-horizon cyclic structure of a set orbit.

    ``conclusive`` is False when no self-intersection of the image sequence
    appears within the horizon; all other fields are then empty.
    """

    def __init__(self, conclusive: bool, horizon: int, n0: Optional[int] = None,
                 k: Optional[int] = None, K_sets: Optional[list] = None,
                 K_stabilized: Optional[list] = None, r: Optional[int] = None,
                 L_sets: Optional[list] = None, cyclic_ok: Optional[bool] = None):
        self.conclusive = conclusive
        self.horizon = horizon
        self.n0 = n0
        self.k = k
        self.K_sets = [] if K_sets is None else K_sets
        self.K_stabilized = [] if K_stabilized is None else K_stabilized
        self.r = r
        self.L_sets = [] if L_sets is None else L_sets
        self.cyclic_ok = cyclic_ok


def orbit_decomposition(F, E: Subtree, horizon: int) -> OrbitDecomposition:
    """Least n0, then least k, with f^n0(E) meeting f^(n0+k)(E); K/L structure.

    K_i accumulates the images f^(n0+i+jk)(E) for j = 0, 1, ... until two
    successive unions agree (stabilized) or indices pass the horizon; the
    per-set flag records which happened.  L_j are the components of the
    accumulated orbit of f^n0(E).
    """
    if horizon < 1:
        raise GeometryError("horizon must be >= 1")
    at = set_orbit(F, E).at
    found = None
    for n0 in range(horizon):
        for k in range(1, horizon - n0 + 1):
            if subtrees_intersect(at(n0), at(n0 + k)):
                found = (n0, k)
                break
        if found:
            break
    if not found:
        return OrbitDecomposition(conclusive=False, horizon=horizon)
    n0, k = found
    D = F.codomain
    K_sets, K_flags = [], []
    for i in range(k):
        # full union of the residue-class images up to the horizon; the flag
        # records whether the union had already stopped growing
        acc = at(n0 + i)
        grew_at = 0
        j = 1
        while n0 + i + j * k <= horizon:
            nxt = union_connected(D, [acc, at(n0 + i + j * k)])
            if nxt != acc:
                grew_at = j
            acc = nxt
            j += 1
        K_sets.append(acc)
        K_flags.append(grew_at < j - 1 if j > 1 else True)
    # cyclic permutation check, meaningful on stabilized sets
    cyclic_ok = None
    if all(K_flags):
        cyclic_ok = True
        for i in range(k - 1):
            if F.image(K_sets[i]) != K_sets[i + 1]:
                cyclic_ok = False
        if not subtree_contains(K_sets[0], F.image(K_sets[k - 1])):
            cyclic_ok = False
    L_sets = union_subtrees(D, K_sets)
    r = len(L_sets)
    if k % r != 0:
        raise GeometryError("component count does not divide the cycle length")
    # L_j is the component containing K_j (j < r); this ordering satisfies
    # the cyclic image relations because L_j is the union of the K_{j+lr}
    L_ordered = []
    for j in range(r):
        L_ordered.append(next(L for L in L_sets if subtrees_intersect(L, K_sets[j])))
    if len({id(L) for L in L_ordered}) != r:  # pragma: no cover - consistency
        raise GeometryError("component ordering failed")
    return OrbitDecomposition(
        conclusive=True,
        horizon=horizon,
        n0=n0,
        k=k,
        K_sets=K_sets,
        K_stabilized=K_flags,
        r=r,
        L_sets=L_ordered,
        cyclic_ok=cyclic_ok,
    )
