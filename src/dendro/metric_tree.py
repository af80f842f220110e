"""Finite metric trees with exact rational geometry.

A :class:`Dendrite` is a finite tree whose edges carry positive rational
lengths; it stands in for an infinite dendrite truncated at a stated depth
(the generator provenance lives in ``descriptor``).  Points are
:class:`PointRef` values (a vertex, or an interior position on an edge) and
closed connected subsets are :class:`Subtree` values.  Every operation here
is a pure function of immutable values and returns exact rationals.

Vertex distances and vertex paths come from one rooted index per tree: the
parent edge, depth and distance from ``vertices[0]`` of every vertex, built
by the traversal that checks the tree is connected, so memory stays O(V).
A query climbs both ends to their lowest common ancestor and reads the
distance off the root distances of the three.  The same climb says which
way an arc runs: a point inside an edge leaves it through the end away from
the root iff the other point lies below that end, so :func:`dist` and
:func:`geodesic_walk` choose exits by topology, and Fractions only add up
the lengths.  Where one source meets many targets, one walk out from the
source (:func:`_walk`) gives its distance to every vertex instead, at one
addition per edge: :func:`ball` (every radius about one centre from one
table), and the builders' bush-root positions read the whole tree's table,
and a zigzag's root table the table of its region.

The complement of a connected set E is read off one list, the ways out of
E: each interval end of E short of its edge's end, and each edge leaving a
vertex of E that E does not meet.  Every way out starts one component of D
minus E, so :func:`components_minus` reads that list.  One double sweep,
:func:`diameter_ends`, gives both the diameter and the ends of an arc.
Each sweep is one walk from its source that stays inside the set: the set
is connected, so a path inside it is the geodesic, and the sweep costs
O(|S|) whatever the size of the tree.

The tree holds its rooted index and one memo, the diameter of each set
:func:`subtree_diam` has measured, so a set that many orbits reach is
measured once.  A :class:`Subtree` is its own key, hashed once by value.

A connected set is read whole, never sampled: two disjoint sets are joined
by one bridge, which leaves the first along one edge and enters the second
along one edge.  :func:`subtree_dist` finds both edges on the climb between
the sets by vertex membership and measures the bridge as the two edges'
parts outside the sets plus one vertex distance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from dendro.serialize import format_rat, json_copy, parse_rat

F0 = Fraction(0)


def _rat(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(x)


class GeometryError(ValueError):
    """Invalid point/edge references or malformed subtree operations."""


# ---------------------------------------------------------------------------
# core value types


_setattr = object.__setattr__


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value types: every
    write is refused; their constructors set fields through ``_setattr``."""
    from dataclasses import FrozenInstanceError  # only this error path loads it

    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Edge:
    __slots__ = ("u", "v", "length")

    def __init__(self, u: str, v: str, length: Fraction):
        if length <= 0:
            raise GeometryError(f"edge {u}-{v} has nonpositive length")
        _setattr(self, "u", u)
        _setattr(self, "v", v)
        _setattr(self, "length", length)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.u, self.v, self.length) == (other.u, other.v, other.length)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.length))

    def __repr__(self):
        return f"Edge(u={self.u!r}, v={self.v!r}, length={self.length!r})"


class PointRef:
    """A position on a dendrite: a vertex, or (edge index, interior offset).

    Canonical form: offsets 0 and full-length are always stored as the
    endpoint vertex, so equality of PointRefs is equality of points.
    """

    __slots__ = ("vertex", "edge", "offset")

    def __init__(self, vertex: Optional[str] = None, edge: Optional[int] = None,
                 offset: Optional[Fraction] = None):
        if (vertex is None) == (edge is None):
            raise GeometryError("PointRef needs exactly one of vertex / edge+offset")
        if edge is not None and offset is None:
            raise GeometryError("edge PointRef needs an offset")
        _setattr(self, "vertex", vertex)
        _setattr(self, "edge", edge)
        _setattr(self, "offset", offset)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.vertex, self.edge, self.offset)
                    == (other.vertex, other.edge, other.offset))
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex, self.edge, self.offset))

    def __repr__(self):
        return (f"PointRef(vertex={self.vertex!r}, edge={self.edge!r}, "
                f"offset={self.offset!r})")

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def to_dict(self) -> dict:
        if self.is_vertex:
            return {"vertex": self.vertex}
        return {"edge": self.edge, "offset": format_rat(self.offset)}

    @staticmethod
    def from_dict(d: Mapping) -> "PointRef":
        if "vertex" in d:
            return PointRef(vertex=str(d["vertex"]))
        return PointRef(edge=int(d["edge"]), offset=parse_rat(d["offset"]))


class Dendrite:
    """A finite metric tree: named vertices, indexed edges, marked points."""

    def __init__(self, vertices, edges, marked=None, descriptor=None):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) else Edge(str(e[0]), str(e[1]), Fraction(e[2]))
            for e in edges
        )
        self.marked: dict[str, PointRef] = dict(marked or {})
        self.descriptor: Optional[dict] = descriptor
        self._adj: dict[str, list[tuple[int, str]]] = {v: [] for v in self.vertices}
        # the rooted index from vertices[0], filled by _validate: each
        # non-root vertex's (parent edge, parent), and every vertex's depth
        # in edges and exact distance from the root
        self._up: dict[str, tuple[int, str]] = {}
        self._depth: dict[str, int] = {}
        self._rdist: dict[str, Fraction] = {}
        # subtree_diam memo, keyed by the set
        self._diam_memo: dict[Subtree, Fraction] = {}
        self._validate()

    # -- construction / validation

    def _validate(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise GeometryError("duplicate vertex ids")
        vset = set(self.vertices)
        for i, e in enumerate(self.edges):
            if e.u not in vset or e.v not in vset:
                raise GeometryError(f"edge {i} references unknown vertex")
            if e.u == e.v:
                raise GeometryError(f"edge {i} is a loop")
            self._adj[e.u].append((i, e.v))
            self._adj[e.v].append((i, e.u))
        # a tree: connected with |V| - 1 edges; the traversal that checks
        # connectivity builds the rooted index
        if self.vertices:
            root = self.vertices[0]
            up, depth, rdist = self._up, self._depth, self._rdist
            depth[root], rdist[root] = 0, F0
            stack = [root]
            while stack:
                v = stack.pop()
                for ei, w in self._adj[v]:
                    if w not in depth:
                        up[w] = (ei, v)
                        depth[w] = depth[v] + 1
                        rdist[w] = rdist[v] + self.edges[ei].length
                        stack.append(w)
            if len(depth) != len(self.vertices):
                raise GeometryError("edge graph is not connected")
            if len(self.edges) != len(self.vertices) - 1:
                raise GeometryError("edge graph contains a cycle")
        for name, p in self.marked.items():
            self.check_point(p)

    def __eq__(self, other):
        return (
            isinstance(other, Dendrite)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.marked == other.marked
        )

    def __repr__(self):
        return f"Dendrite({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- basic accessors

    def edge_length(self, i: int) -> Fraction:
        return self.edges[i].length

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def check_point(self, p: PointRef) -> PointRef:
        if p.is_vertex:
            if p.vertex not in self._adj:
                raise GeometryError(f"unknown vertex {p.vertex!r}")
            return p
        if not (0 <= p.edge < len(self.edges)):
            raise GeometryError(f"unknown edge index {p.edge}")
        if not (0 < p.offset < self.edges[p.edge].length):
            raise GeometryError(
                f"offset {p.offset} out of range for edge {p.edge}"
            )
        return p

    def point(self, edge: int, offset) -> PointRef:
        """Canonical point on an edge; endpoint offsets collapse to vertices."""
        offset = _rat(offset)
        e = self.edges[edge]
        if offset < 0 or offset > e.length:
            raise GeometryError(f"offset {offset} outside edge {edge}")
        if offset == 0:
            return PointRef(vertex=e.u)
        if offset == e.length:
            return PointRef(vertex=e.v)
        return PointRef(edge=edge, offset=offset)

    def resolve_marked(self, name: str) -> PointRef:
        try:
            return self.marked[name]
        except KeyError:
            raise GeometryError(f"no marked point {name!r}") from None

    # -- vertex-level shortest paths (tree: unique)

    def _climb(self, u: str, w: str):
        """(lowest common ancestor, edges climbed from u, edges climbed from w)."""
        up, depth = self._up, self._depth
        from_u, from_w = [], []
        du, dw = depth[u], depth[w]
        while du > dw:
            ei, u = up[u]
            from_u.append(ei)
            du -= 1
        while dw > du:
            ei, w = up[w]
            from_w.append(ei)
            dw -= 1
        while u != w:
            ei, u = up[u]
            from_u.append(ei)
            ei, w = up[w]
            from_w.append(ei)
        return u, from_u, from_w

    def vdist(self, u: str, w: str) -> Fraction:
        return self._vdist_via(u, w, self._climb(u, w)[0])

    def _vdist_via(self, u: str, w: str, lca: str) -> Fraction:
        """vdist(u, w), given their lowest common ancestor."""
        rdist = self._rdist
        return rdist[u] + rdist[w] - 2 * rdist[lca]

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), F0)

    # -- serialization

    def to_dict(self) -> dict:
        d = {
            "vertices": list(self.vertices),
            "edges": [
                {"u": e.u, "v": e.v, "len": format_rat(e.length)} for e in self.edges
            ],
            "marked": {k: p.to_dict() for k, p in sorted(self.marked.items())},
        }
        if self.descriptor is not None:
            d["descriptor"] = json_copy(self.descriptor)
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "Dendrite":
        for field, kind, json_name in (
            ("vertices", list, "array"), ("edges", list, "array"),
            ("marked", dict, "object"), ("descriptor", dict, "object"),
        ):
            if not isinstance(d.get(field, kind()), kind):
                raise ValueError(f"dendrite field {field!r} must be a JSON {json_name}")
        return Dendrite(
            vertices=[str(v) for v in d["vertices"]],
            edges=[(e["u"], e["v"], parse_rat(e["len"])) for e in d["edges"]],
            marked={k: PointRef.from_dict(v) for k, v in d.get("marked", {}).items()},
            descriptor=d.get("descriptor"),
        )


class Subtree:
    """A closed connected subset of a dendrite.

    ``intervals`` maps edge index to the closed interval of that edge
    contained in the set; ``vertices`` lists the contained tree vertices.
    Canonical invariants: interval ends at offset 0 / full length imply the
    endpoint vertex is listed, and a degenerate interval occurs only as a
    lone interior point.  :func:`make_subtree` enforces them on raw data
    at file and user boundaries; :func:`merge_walks` (so :func:`geodesic`),
    :func:`union_subtrees` and :func:`intersect_subtrees` build sets that
    already satisfy them and construct the value directly.

    A set is its own dictionary key: nothing writes to it once built, so its
    hash by value is taken on the first lookup and kept in a slot.
    """

    __slots__ = ("vertices", "intervals", "_hash")

    def __init__(self, vertices: frozenset, intervals: dict):
        _setattr(self, "vertices", vertices)
        _setattr(self, "intervals", intervals)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices, self.intervals) == (other.vertices, other.intervals)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vertices, frozenset(self.intervals.items())))
            _setattr(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Subtree(vertices={self.vertices!r}, intervals={self.intervals!r})"

    def is_empty(self) -> bool:
        return not self.vertices and not self.intervals

    def is_degenerate(self) -> bool:
        if self.intervals:
            return (
                not self.vertices
                and len(self.intervals) == 1
                and all(a == b for a, b in self.intervals.values())
            )
        return len(self.vertices) <= 1

    def to_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "intervals": {
                str(e): [format_rat(a), format_rat(b)]
                for e, (a, b) in sorted(self.intervals.items())
            },
        }

    @staticmethod
    def from_dict(d: Mapping) -> "Subtree":
        return Subtree(
            vertices=frozenset(str(v) for v in d.get("vertices", [])),
            intervals={
                int(e): (parse_rat(ab[0]), parse_rat(ab[1]))
                for e, ab in d.get("intervals", {}).items()
            },
        )


def make_subtree(D: Dendrite, intervals=None, vertices=()) -> Subtree:
    """Normalize raw interval/vertex data into the canonical Subtree form."""
    ivs: dict[int, tuple[Fraction, Fraction]] = {}
    verts = set(vertices)
    for e, (a, b) in (intervals or {}).items():
        a, b = _rat(a), _rat(b)
        if a > b:
            a, b = b, a
        L = D.edge_length(e)
        if a < 0 or b > L:
            raise GeometryError(f"interval [{a},{b}] outside edge {e}")
        if a == b:
            # degenerate piece: a vertex, or a lone interior point
            if a == 0:
                verts.add(D.edges[e].u)
            elif a == L:
                verts.add(D.edges[e].v)
            else:
                ivs[e] = (a, b)
            continue
        ivs[e] = (a, b)
        if a == 0:
            verts.add(D.edges[e].u)
        if b == L:
            verts.add(D.edges[e].v)
    # a lone interior point may not coexist with anything else
    degenerate = {e for e, (a, b) in ivs.items() if a == b}
    if degenerate and (len(ivs) > 1 or verts):
        raise GeometryError("degenerate interval inside a larger subtree")
    return Subtree(vertices=frozenset(verts), intervals=ivs)


def point_subtree(D: Dendrite, p: PointRef) -> Subtree:
    D.check_point(p)
    if p.is_vertex:
        return Subtree(vertices=frozenset([p.vertex]), intervals={})
    return Subtree(vertices=frozenset(), intervals={p.edge: (p.offset, p.offset)})


def full_subtree(D: Dendrite) -> Subtree:
    return Subtree(
        vertices=frozenset(D.vertices),
        intervals={i: (F0, e.length) for i, e in enumerate(D.edges)},
    )


def is_full(D: Dendrite, S: Subtree) -> bool:
    return S == full_subtree(D)


def contains_point(D: Dendrite, S: Subtree, p: PointRef) -> bool:
    if p.is_vertex:
        return p.vertex in S.vertices
    iv = S.intervals.get(p.edge)
    return iv is not None and iv[0] <= p.offset <= iv[1]


# ---------------------------------------------------------------------------
# distances and geodesics


def _exits(D: Dendrite, p: PointRef):
    """(vertex, cost-to-reach-it) pairs through which paths from p leave."""
    if p.is_vertex:
        return ((p.vertex, F0),)
    e = D.edges[p.edge]
    return ((e.u, p.offset), (e.v, e.length - p.offset))


def _child_end(D: Dendrite, ei: int) -> str:
    """The end of edge ei away from the root."""
    e, depth = D.edges[ei], D._depth
    return e.v if depth[e.v] > depth[e.u] else e.u


def _route(D: Dendrite, x: PointRef, y: PointRef):
    """(u, w, lca, up_u, up_w): how the arc from x to y runs, by topology.

    u is where the arc leaves x's edge (x itself when a vertex) and w where
    it enters y's; the vertex path from u to w climbs the edges ``up_u`` to
    the lowest common ancestor ``lca``, then descends ``up_w`` reversed.
    An interior point leaves its edge through the child end iff the other
    point lies below that end, so each climb starts at a vertex or a child
    end; one that starts with the point's own edge means the parent end
    instead, and drops that edge.  x and y lie on different edges.
    """
    u = x.vertex if x.is_vertex else _child_end(D, x.edge)
    w = y.vertex if y.is_vertex else _child_end(D, y.edge)
    lca, up_u, up_w = D._climb(u, w)
    if up_u and not x.is_vertex:
        u = D._up[u][1]
        del up_u[0]
    if up_w and not y.is_vertex:
        w = D._up[w][1]
        del up_w[0]
    return u, w, lca, up_u, up_w


def _to_end(D: Dendrite, p: PointRef, end: str) -> Fraction:
    """Distance from an interior point p to the end ``end`` of its edge."""
    e = D.edges[p.edge]
    return p.offset if e.u == end else e.length - p.offset


def dist(D: Dendrite, x: PointRef, y: PointRef) -> Fraction:
    """Path-metric distance; exact rational."""
    D.check_point(x)
    D.check_point(y)
    if x == y:
        return F0
    if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
        return abs(x.offset - y.offset)
    if x.is_vertex and y.is_vertex:
        return D.vdist(x.vertex, y.vertex)
    u, w, lca, _, _ = _route(D, x, y)
    d = D._vdist_via(u, w, lca)
    if not x.is_vertex:
        d += _to_end(D, x, u)
    if not y.is_vertex:
        d += _to_end(D, y, w)
    return d


def geodesic_walk(D: Dendrite, x: PointRef, y: PointRef):
    """The unique arc from x to y as directed legs (edge, t_from, t_to)."""
    D.check_point(x)
    D.check_point(y)
    if x == y:
        return []
    if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
        return [(x.edge, x.offset, y.offset)]
    u, w, _, up_u, up_w = _route(D, x, y)
    legs = []
    if not x.is_vertex:
        legs.append((x.edge, x.offset,
                     F0 if D.edges[x.edge].u == u else D.edges[x.edge].length))
    cur = u
    up_w.reverse()
    for ei in up_u + up_w:
        e = D.edges[ei]
        if e.u == cur:
            legs.append((ei, F0, e.length))
            cur = e.v
        else:
            legs.append((ei, e.length, F0))
            cur = e.u
    if not y.is_vertex:
        legs.append((y.edge, F0 if D.edges[y.edge].u == w else D.edges[y.edge].length,
                     y.offset))
    return legs


def geodesic(D: Dendrite, x: PointRef, y: PointRef) -> Subtree:
    """The arc [x, y]; the single point {x} when x == y."""
    return merge_walks(D, [geodesic_walk(D, x, y)], x)


def merge_walks(D: Dendrite, walks, start: PointRef) -> Subtree:
    """The set covered by chained walks from ``start``, as a canonical Subtree.

    Each walk is a list of legs (edge, t_from, t_to) that starts on the set
    the earlier walks cover (the first at ``start``), so the union is
    connected and meets every edge in one interval: the min and max of that
    edge's legs, plus the vertices the legs reach.  Legs are nondegenerate,
    so listing the ends at 0 / full length is all the canonical form asks.
    Walks with no legs leave the single point {start}.
    """
    ivs = {}
    for legs in walks:
        for e, a, b in legs:
            lo, hi = (a, b) if a <= b else (b, a)
            iv = ivs.get(e)
            if iv is not None:
                if iv[0] < lo:
                    lo = iv[0]
                if iv[1] > hi:
                    hi = iv[1]
            ivs[e] = (lo, hi)
    if not ivs:
        return point_subtree(D, start)
    verts = set()
    for e, (lo, hi) in ivs.items():
        ed = D.edges[e]
        if lo == 0:
            verts.add(ed.u)
        if hi == ed.length:
            verts.add(ed.v)
    return Subtree(vertices=frozenset(verts), intervals=ivs)


def point_on_walk(D: Dendrite, legs, s: Fraction) -> PointRef:
    """The point at distance s along a walk's legs (0 <= s <= its length)."""
    for e, a, b in legs:
        leg = abs(b - a)
        if s <= leg:
            return D.point(e, a + s if b > a else a - s)
        s -= leg
    raise GeometryError("distance exceeds geodesic length")


def split_walk(legs, s: Fraction):
    """A walk's legs cut at distance s along it: (the legs before, after).

    A leg that holds the cut splits in two there; neither part holds an
    empty leg.  An s at or past the walk's length leaves the whole walk
    before the cut.
    """
    for k, (e, a, b) in enumerate(legs):
        leg = abs(b - a)
        if s < leg:
            if s == 0:
                return legs[:k], legs[k:]
            c = a + s if b > a else a - s
            return (*legs[:k], (e, a, c)), ((e, c, b), *legs[k + 1:])
        s -= leg
    return legs, ()


def point_along(D: Dendrite, x: PointRef, y: PointRef, s: Fraction) -> PointRef:
    """The point of [x, y] at distance s from x (0 <= s <= dist)."""
    s = _rat(s)
    if s == 0:
        return x
    return point_on_walk(D, geodesic_walk(D, x, y), s)


def h1_measure(S: Subtree) -> Fraction:
    """Total edge-interval length (Hausdorff 1-measure in the path metric)."""
    return sum((b - a for a, b in S.intervals.values()), F0)


# ---------------------------------------------------------------------------
# subtree algebra


def subtree_points(D: Dendrite, S: Subtree) -> list[PointRef]:
    """Canonical boundary sample: interval ends plus isolated vertices."""
    pts = [PointRef(vertex=v) for v in sorted(S.vertices)]
    for e, (a, b) in sorted(S.intervals.items()):
        pts.append(D.point(e, a))
        pts.append(D.point(e, b))
    seen, out = set(), []
    for p in pts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def subtrees_intersect(S1: Subtree, S2: Subtree) -> bool:
    if S1.vertices & S2.vertices:
        return True
    for e, (a, b) in S1.intervals.items():
        iv = S2.intervals.get(e)
        if iv and a <= iv[1] and iv[0] <= b:
            return True
    return False


def subtree_contains(big: Subtree, small: Subtree) -> bool:
    """Whether ``small`` is a subset of ``big``."""
    if not small.vertices <= big.vertices:
        return False
    for e, (a, b) in small.intervals.items():
        iv = big.intervals.get(e)
        if iv is None or a < iv[0] or b > iv[1]:
            return False
    return True


def intersect_subtrees(D: Dendrite, S1: Subtree, S2: Subtree) -> Subtree:
    """Exact intersection (connected by hereditary unicoherence).

    Two canonical sets give a canonical intersection, built directly: an
    overlap's end at 0 / full length ends an interval of both sets, so both
    list its vertex.  A one-point overlap at 0 / full length would need a
    degenerate interval there in one of the sets, which canonical form
    rules out, so a one-point overlap is interior, and being connected the
    intersection is then that lone point.
    """
    ivs = {}
    for e, (a, b) in S1.intervals.items():
        iv = S2.intervals.get(e)
        if iv is not None:
            lo, hi = max(a, iv[0]), min(b, iv[1])
            if lo <= hi:
                ivs[e] = (lo, hi)
    return Subtree(vertices=S1.vertices & S2.vertices, intervals=ivs)


def union_subtrees(D: Dendrite, parts: Sequence[Subtree]) -> list[Subtree]:
    """Union of connected subtrees, returned as its connected components.

    Parts are grouped by pairwise intersection; within a group the per-edge
    intervals merge into single intervals (valid in a tree because two
    intersecting connected subtrees cannot leave a gap on an edge).
    """
    parts = [p for p in parts if not p.is_empty()]
    if not parts:
        return []
    parent = list(range(len(parts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if find(i) != find(j) and subtrees_intersect(parts[i], parts[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[Subtree]] = {}
    for i, p in enumerate(parts):
        groups.setdefault(find(i), []).append(p)
    out = []
    for group in groups.values():
        ivs: dict[int, list] = {}
        verts = set()
        for p in group:
            verts |= p.vertices
            for e, (a, b) in p.intervals.items():
                if e in ivs:
                    ivs[e][0] = min(ivs[e][0], a)
                    ivs[e][1] = max(ivs[e][1], b)
                else:
                    ivs[e] = [a, b]
        # merged canonical parts stay canonical: an end at 0 / full length
        # comes from a part that lists its vertex, and a lone point merges
        # only with a part holding an interval around it
        out.append(Subtree(vertices=frozenset(verts),
                           intervals={e: (a, b) for e, (a, b) in ivs.items()}))
    out.sort(key=lambda s: (sorted(s.vertices), sorted(s.intervals.items())))
    return out


def union_connected(D: Dendrite, parts: Sequence[Subtree]) -> Subtree:
    comps = union_subtrees(D, parts)
    if len(comps) != 1:
        raise GeometryError(f"union has {len(comps)} components, expected 1")
    return comps[0]


def span_subtree(D: Dendrite, points: Sequence[PointRef]) -> Subtree:
    """Smallest closed subtree containing all the points."""
    if not points:
        raise GeometryError("span of no points")
    base = points[0]
    return merge_walks(D, [geodesic_walk(D, base, p) for p in points[1:]], base)


def first_point(S: Subtree) -> PointRef:
    """A point of a nonempty connected S: its least vertex, or, when it has
    none, the start of its one interval."""
    if S.vertices:
        return PointRef(vertex=min(S.vertices))
    (e, (a, _)), = S.intervals.items()
    return PointRef(edge=e, offset=a)


def _exit(D: Dendrite, S: Subtree, edges, start: str):
    """(k, far): the first of ``edges``, walked from ``start``, whose far end
    is not in S, and that end.  Every edge before it has both ends in S, so
    it lies inside the connected S."""
    cur = start
    for k, ei in enumerate(edges):
        e = D.edges[ei]
        far = e.v if e.u == cur else e.u
        if far not in S.vertices:
            return k, far
        cur = far


def _beyond(D: Dendrite, S: Subtree, ei: int, far: str) -> Fraction:
    """Length of edge ei outside S, when S meets it from the end away from
    ``far`` (or lies inside it)."""
    e, iv = D.edges[ei], S.intervals.get(ei)
    if iv is None:
        return e.length
    return e.length - iv[1] if far == e.v else iv[0]


def subtree_dist(D: Dendrite, S1: Subtree, S2: Subtree) -> Fraction:
    """Exact set distance between two closed subtrees (0 iff they meet).

    Two disjoint connected sets are joined by one bridge: it leaves S1
    along one edge, runs between vertices and enters S2 along one edge.
    The route between the sets is read off the rooted index, from a vertex
    of each set or, for a set inside one edge, that edge's child end (the
    set leaves its edge through the end toward the other set, as a point
    does in :func:`_route`).  Walking the route from the S1 end, each edge
    with both ends in S1 lies inside S1, and the first other edge is the
    exit; the entry is found from the S2 end alike.  The distance is the
    exit edge's part outside S1, plus the vertex distance between the two
    far ends, plus the entry edge's part outside S2, or the gap between
    the sets when exit and entry are one edge.
    """
    if subtrees_intersect(S1, S2):
        return F0
    e1 = e2 = None
    if not S1.vertices:
        (e1, (a1, b1)), = S1.intervals.items()
    if not S2.vertices:
        (e2, (a2, b2)), = S2.intervals.items()
    if e1 is not None and e1 == e2:
        return a2 - b1 if b1 < a2 else a1 - b2
    t1 = min(S1.vertices) if S1.vertices else _child_end(D, e1)
    t2 = min(S2.vertices) if S2.vertices else _child_end(D, e2)
    _, up1, up2 = D._climb(t1, t2)
    # a vertex-free set's climb from its child end starts with its edge; an
    # empty climb leaves through the child end, so the edge is walked to it
    # from its parent end
    up = D._up
    if not S1.vertices and not up1:
        up1.append(e1)
        t1 = up[t1][1]
    if not S2.vertices and not up2:
        up2.append(e2)
        t2 = up[t2][1]
    route = up1 + up2[::-1]
    i, far1 = _exit(D, S1, route, t1)
    k, far2 = _exit(D, S2, reversed(route), t2)
    d = _beyond(D, S1, route[i], far1) + _beyond(D, S2, route[-1 - k], far2)
    if i + k == len(route) - 1:  # exit and entry are one edge
        return d - D.edges[route[i]].length
    if far1 != far2:
        d += D.vdist(far1, far2)
    return d


def _walk(D: Dendrite, x: PointRef, S: Optional[Subtree] = None) -> dict:
    """The distance from x to every vertex of D, or of S when given (x in S).

    One walk out from x over the adjacency lists, one addition per edge
    walked.  Inside a connected S the walk only steps between vertices of S,
    so it reaches every vertex of S along the geodesic.
    """
    inside = None if S is None else S.vertices
    near = {v: c for v, c in _exits(D, x) if inside is None or v in inside}
    stack = list(near)
    adj, edges = D._adj, D.edges
    while stack:
        v = stack.pop()
        dv = near[v]
        for ei, w in adj[v]:
            if w not in near and (inside is None or w in inside):
                near[w] = dv + edges[ei].length
                stack.append(w)
    return near


def _sweep(D: Dendrite, S: Subtree, pts, x: PointRef):
    """(the first of ``pts`` farthest from x, its distance); x and every
    point of ``pts`` lie in the connected set S.

    A point inside an edge is an interval end of S: on x's edge it is
    reached along the edge, on another edge from its one end in S.
    """
    near = _walk(D, x, S)
    best, far = None, None
    for p in pts:
        if p.is_vertex:
            d = near[p.vertex]
        elif not x.is_vertex and x.edge == p.edge:
            d = abs(x.offset - p.offset)
        else:
            e = D.edges[p.edge]
            d = (near[e.u] + p.offset if e.u in near
                 else near[e.v] + e.length - p.offset)
        if far is None or d > far:
            best, far = p, d
    return best, far


def _double_sweep(D: Dendrite, S: Subtree):
    """(p1, p2, diam S) for :func:`diameter_ends` and :func:`subtree_diam`."""
    if S.is_empty():
        raise GeometryError("diameter of the empty set")
    pts = subtree_points(D, S)
    p1, _ = _sweep(D, S, pts, pts[0])
    p2, diam = _sweep(D, S, pts, p1)
    return p1, p2, diam


def diameter_ends(D: Dendrite, S: Subtree) -> tuple[PointRef, PointRef]:
    """Two points of S at distance diam S (one point twice when S is one).

    A double sweep over the interval ends and vertices of S: the candidate
    farthest from the first one ends a longest arc, and the candidate
    farthest from that ends it on the other side.  Each sweep keeps the
    first candidate at the largest distance.
    """
    return _double_sweep(D, S)[:2]


def subtree_diam(D: Dendrite, S: Subtree) -> Fraction:
    """Diameter: the second sweep's distance, measured once per set and tree."""
    d = D._diam_memo.get(S)
    if d is None:
        d = D._diam_memo[S] = _double_sweep(D, S)[2]
    return d


# ---------------------------------------------------------------------------
# complements


def _ways_out(D: Dendrite, E: Subtree):
    """The ways out of a connected set E, as (edge, boundary point, stub, far).

    There is one at each interval end of E short of its edge's end, and one
    from each vertex of E into each edge E does not meet.  ``stub`` is the
    closed part of ``edge`` outside E and ``far`` the stub's vertex away from
    E.  In a tree each way out starts one component of D minus E, which meets
    E only in the boundary point.
    """
    for ei, (lo, hi) in E.intervals.items():
        e = D.edges[ei]
        if lo > 0:
            yield ei, D.point(ei, lo), (F0, lo), e.u
        if hi < e.length:
            yield ei, D.point(ei, hi), (hi, e.length), e.v
    for v in E.vertices:
        for ei, w in D._adj[v]:
            if ei not in E.intervals:
                yield ei, PointRef(vertex=v), (F0, D.edges[ei].length), w


def _component(D: Dendrite, edge: int, stub, far: str) -> Subtree:
    """The stub on ``edge`` plus everything reached from ``far`` without it."""
    verts, ivs = {far}, {edge: stub}
    stack = [far]
    while stack:
        v = stack.pop()
        for ei, w in D._adj[v]:
            if ei not in ivs:
                ivs[ei] = (F0, D.edges[ei].length)
                verts.add(w)
                stack.append(w)
    # edge order, not flood order: callers walking the intervals see them sorted
    return make_subtree(D, dict(sorted(ivs.items())), verts)


class ComplementDecomposition:
    """Closed components of D minus a subtree E, with their attachment points.

    ``components[i]`` is the closure of the component that leaves E by the
    i-th way out and ``boundary_points[i]`` its singleton boundary inside E.
    E = D has no ways out, so no components.
    """

    def __init__(self, components: tuple, boundary_points: tuple):
        _setattr(self, "components", components)
        _setattr(self, "boundary_points", boundary_points)

    __setattr__ = __delattr__ = _frozen

    def grouped(self, D: Dendrite) -> dict[PointRef, Subtree]:
        """B_c sets: unions of component closures sharing an attachment."""
        groups: dict[PointRef, list] = {}
        for comp, c in zip(self.components, self.boundary_points):
            groups.setdefault(c, []).append(comp)
        return {c: union_connected(D, parts) for c, parts in groups.items()}


def components_minus(D: Dendrite, E: Subtree) -> ComplementDecomposition:
    """Components of D minus E (closures), each with its boundary point."""
    if E.is_empty():
        raise GeometryError("complement of the empty set is not decomposable")
    comps, bnds = [], []
    for ei, c, stub, far in _ways_out(D, E):
        comps.append(_component(D, ei, stub, far))
        bnds.append(c)
    order = sorted(
        range(len(comps)),
        key=lambda i: (bnds[i].to_dict().get("vertex") or "",
                       str(bnds[i].to_dict()),
                       sorted(comps[i].intervals)),
    )
    return ComplementDecomposition(
        tuple(comps[i] for i in order), tuple(bnds[i] for i in order)
    )


def point_order(D: Dendrite, x: PointRef) -> int:
    """Number of components of D minus {x} in the truncated tree."""
    D.check_point(x)
    if x.is_vertex:
        return D.degree(x.vertex)
    return 2


def ideal_point_order(D: Dendrite, x: PointRef):
    """Order in the ideal generated object, when the descriptor settles it.

    Returns ``math.inf`` for the center of an infinite-order family, the
    truncated order otherwise.
    """
    import math

    desc = D.descriptor or {}
    if desc.get("family") == "omega_star":
        center = D.marked.get("center")
        if center is not None and x == center:
            return math.inf
    return point_order(D, x)


def ball(D: Dendrite, x: PointRef, radius) -> Subtree:
    """Closed metric ball as a spanned subtree, by exact edge clipping.

    The edge holding x is clipped around x; any other edge is reached from
    its end nearer to x, so it keeps the part within radius of that end.
    """
    return _balls(D, x, [radius])[0]


def _balls(D: Dendrite, x: PointRef, radii) -> list[Subtree]:
    """The closed balls around x of each radius, clipped from one walk."""
    radii = [_rat(r) for r in radii]
    if any(r < 0 for r in radii):
        raise GeometryError("negative radius")
    D.check_point(x)
    near = _walk(D, x)
    out = []
    for radius in radii:
        ivs = {}
        for ei, e in enumerate(D.edges):
            if not x.is_vertex and x.edge == ei:
                ivs[ei] = (max(F0, x.offset - radius),
                           min(e.length, x.offset + radius))
                continue
            du, dv = near[e.u], near[e.v]
            left = radius - min(du, dv)
            if left > 0:
                ivs[ei] = ((F0, min(e.length, left)) if du < dv
                           else (max(F0, e.length - left), e.length))
        out.append(make_subtree(D, ivs, {v for v, d in near.items() if d <= radius}))
    return out


def refine_at(D: Dendrite, points: Iterable[PointRef]):
    """Split edges at the given interior points.

    Returns (new dendrite, point mapping old->new as a callable).  New
    vertices get deterministic names ``cut:<edge>:<offset>``.
    """
    by_edge: dict[int, list[Fraction]] = {}
    for p in points:
        D.check_point(p)
        if not p.is_vertex:
            by_edge.setdefault(p.edge, []).append(p.offset)
    new_edges = []
    # map: old edge -> list of (old_lo, old_hi, new_edge_index)
    segments: dict[int, list[tuple[Fraction, Fraction, int]]] = {}
    vertices = list(D.vertices)
    for ei, e in enumerate(D.edges):
        cuts = sorted(set(by_edge.get(ei, [])))
        segs = []
        prev_off, prev_v = F0, e.u
        for c in cuts:
            name = f"cut:{ei}:{format_rat(c)}"
            vertices.append(name)
            segs.append((prev_off, c, len(new_edges)))
            new_edges.append(Edge(prev_v, name, c - prev_off))
            prev_off, prev_v = c, name
        segs.append((prev_off, e.length, len(new_edges)))
        new_edges.append(Edge(prev_v, e.v, e.length - prev_off))
        segments[ei] = segs

    def map_point(p: PointRef) -> PointRef:
        if p.is_vertex:
            return p
        for lo, hi, nei in segments[p.edge]:
            if lo <= p.offset <= hi:
                return D2.point(nei, p.offset - lo)
        raise GeometryError("unmapped point")  # pragma: no cover

    D2 = Dendrite(
        vertices,
        new_edges,
        marked={},
        descriptor=D.descriptor,
    )
    D2.marked.update({k: map_point(v) for k, v in D.marked.items()})
    for name, p in D2.marked.items():
        D2.check_point(p)
    return D2, map_point

