"""Exact selfmaps of finite trees fixing a prescribed arc or point.

The arc construction: test that the base A is an arc (its measure equals
its diameter), cut the tree once at A's ends inside edges, split it into A
plus finitely many bushes hanging off it, lay the base out at length 1-q
and bush k at (1-q) q^k, and send each bush k onto the region E_k spanned
by the arc from its root to a nearer, larger-bush root together with all
smaller bushes rooted between them (E_1 is the whole tree).  Each bush map
factors as: a normalized-distance zigzag psi onto [0,1], a constant-slope
sawtooth nu onto a blown-up interval J_k in which every member root is
widened into a block of its bush's layout length, then a block-wise
surjection g whose blocks replay expanding walk surjections phi onto the
bushes and whose gaps ride along the base arc.  Points of A stay fixed;
every bush root stays fixed.  Both waves are one
``length_expanding.Zigzag``, and every lap count comes from its fold lemma,
so the builder samples nothing.

Every glued part is such an :class:`ExactBushPart`, laid out in the glued
space itself: ``build_exact`` first rescales the space to the layout
lengths, while the counterexample's shells (``glued_pieces``) keep their
own, read in layout units.  The point form (``glued_point``) sends a
branched bush onto itself through psi, the unit wave onto [0, 2|bush|] and
the bush's double-cover walk, at ``build_pair``'s lap count.  Build and
load share one layout per kind, so a file is read as its inputs; only the
arc forms' g is read from it.  An ideal version of this map is exact; at a
finite truncation the base arc has interior, so only bush pieces can
cover, and :func:`verify_exact` certifies coverage per piece together with
the target chain, whose targets a loaded map derives as the builder does.
When the map is Markov on its certification pieces (:func:`markov_graph`:
they tile every edge and each piece's image is a union of whole pieces),
each piece is imaged once and the cover times are read off the piece
graph; otherwise the piece orbits are imaged step by step.  Both are one
:class:`~dendro.tree_map.Orbit` read over :func:`~dendro.tree_map.scan`,
which stops at the whole space or at the first repeated state.

All maps here expose ``domain``/``codomain``/``apply``/``image``/``pieces``
and so interoperate with the chaos and orbit machinery.  A glued map images
a set's overlap with each bush whole, in one part call, and skips an
overlap inside the base, where it is the identity.  Glued maps, like
``TreeMap``, keep one image memo keyed by the set, one entry per distinct
set for the life of the map, so merging piece orbits image their shared
tail once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from dendro.length_expanding import (
    Zigzag,
    build_pair,
    build_phi_on_subtree,
    even_lap_count,
    initial_lap_count,
    psi_lap_count,
    unit_arc,
    walk_map,
)
from dendro.metric_tree import (
    Dendrite,
    Edge,
    GeometryError,
    PointRef,
    Subtree,
    _double_sweep,
    _walk,
    components_minus,
    contains_point,
    diameter_ends,
    dist,
    first_point,
    full_subtree,
    geodesic,
    h1_measure,
    ideal_point_order,
    intersect_subtrees,
    is_full,
    make_subtree,
    point_along,
    point_subtree,
    refine_at,
    subtree_contains,
    union_subtrees,
)
from dendro.serialize import format_rat, from_dict_checked, json_copy, parse_rat
from dendro.tree_map import Orbit, TreeMap, _memo_image, require_selfmap, scan

F0 = Fraction(0)
F1 = Fraction(1)


# ---------------------------------------------------------------------------
# decomposition


class Bush:
    def __init__(self, index: int, root: str, subtree: Subtree, measure: Fraction):
        self.index = index  # 1-based; larger index = smaller assigned measure
        self.root = root
        self.subtree = subtree
        self.measure = measure


class BushDecomposition:
    def __init__(self, space: Dendrite, base: Subtree, base_kind: str, bushes: list):
        self.space = space  # refined so the base and all bushes are whole-edge sets
        self.base = base  # the arc A (or single point) inside `space`
        self.base_kind = base_kind  # "arc" | "point"
        self.bushes = bushes


def decompose_bushes(D: Dendrite, A) -> BushDecomposition:
    """Bushes hanging off a base arc or point, largest first.

    For an arc base, complement components sharing an attachment point are
    merged (each bush meets the arc in exactly one root); for a point base
    the raw components are kept separate.  The base must be a proper subset:
    the whole space is rejected, and so is a set that is not an arc (a
    connected set is an arc when its measure equals its diameter).  The tree
    is cut at every interval end inside an edge, so the arc is whole edges
    and every bush is rooted at a vertex.  Nowhere-density of the base is a
    property of the ideal object a truncation cannot witness; here the
    builder only requires a nonempty complement.
    """
    if isinstance(A, PointRef):
        D.check_point(A)
        if not A.is_vertex:
            D2, mp = refine_at(D, [A])
            return decompose_bushes(D2, mp(A))
        base = point_subtree(D, A)
        dec = components_minus(D, base)
        if not dec.components:
            raise GeometryError("point base must have a nonempty complement")
        bushes = [(comp, A.vertex) for comp in dec.components]
        kind = "point"
        space = D
    else:
        if A.is_degenerate():
            return decompose_bushes(D, first_point(A))
        if is_full(D, A):
            raise GeometryError("base equals the whole space")
        *ends, diam = _double_sweep(D, A)
        if diam != h1_measure(A):
            raise GeometryError("base must be an arc")
        space, base = _refine_arc(D, ends, [
            D.point(e, t) for e, iv in A.intervals.items() for t in iv])
        dec = components_minus(space, base)
        if not dec.components:
            raise GeometryError("arc base must have a nonempty complement")
        bushes = [(comp, c.vertex) for c, comp in dec.grouped(space).items()]
        kind = "arc"
    bushes.sort(key=lambda cr: (-h1_measure(cr[0]), cr[1]))
    out = [
        Bush(index=i + 1, root=root, subtree=comp, measure=h1_measure(comp))
        for i, (comp, root) in enumerate(bushes)
    ]
    return BushDecomposition(space=space, base=base, base_kind=kind, bushes=out)


def _refine_arc(D: Dendrite, ends, points):
    """D cut at those of ``points`` inside an edge, and the arc between the
    images of ``ends`` in the cut tree."""
    cuts = [p for p in points if not p.is_vertex]
    if not cuts:
        return D, geodesic(D, *ends)
    space, mp = refine_at(D, cuts)
    return space, geodesic(space, mp(ends[0]), mp(ends[1]))


# ---------------------------------------------------------------------------
# metric reassignment


def assign_metric(dec: BushDecomposition, q) -> BushDecomposition:
    """Rescale an arc decomposition: base to 1-q, bush k to (1-q) q^k.

    Each bush's measure is then its weight; the measure the finite tree
    misses, q^(K+1) for K bushes, is left to the caller.  Each edge is
    scaled by its part's factor, and vertices keep their names.
    """
    q = Fraction(q)
    if not (0 < q < 1):
        raise GeometryError("need 0 < q < 1")
    scale = {e: (1 - q) / h1_measure(dec.base) for e in dec.base.intervals}
    for b in dec.bushes:
        s = (1 - q) * q**b.index / b.measure
        scale.update(dict.fromkeys(b.subtree.intervals, s))
    D = dec.space
    space = Dendrite(
        list(D.vertices),
        [Edge(e.u, e.v, e.length * scale.get(i, F1)) for i, e in enumerate(D.edges)],
        descriptor=D.descriptor,
    )
    space.marked.update({
        k: p if p.is_vertex else space.point(p.edge, p.offset * scale.get(p.edge, F1))
        for k, p in D.marked.items()})

    def moved(S: Subtree) -> Subtree:
        return make_subtree(space, {e: (a * scale[e], b * scale[e])
                                    for e, (a, b) in S.intervals.items()}, S.vertices)

    bushes = [
        Bush(index=b.index, root=b.root, subtree=moved(b.subtree),
             measure=(1 - q) * q**b.index)
        for b in dec.bushes
    ]
    return BushDecomposition(space=space, base=moved(dec.base),
                             base_kind=dec.base_kind, bushes=bushes)


# ---------------------------------------------------------------------------
# target planning


class BlowupPlan:
    def __init__(self, targets: dict, positions: dict, ends: tuple, members: dict,
                 spans: dict):
        self.targets = targets  # k -> target index l_k < k (k >= 2)
        self.positions = positions  # bush index -> arclength of its root along the base
        self.ends = ends  # the base arc's ends; positions run from the first
        self.members = members  # k -> bush indices in N_k, in base order
        self.spans = spans  # k -> (lo, hi), the positions of E_k's stretch of base


def plan_targets(dec: BushDecomposition) -> BlowupPlan:
    """Nearest earlier root for every bush k >= 2, ties to the smaller index.

    Positions are arclengths of the roots along the base arc, from one end.
    E_1 spans the whole base and holds every bush; E_k spans the base
    between root k and its target's root and holds k, the target and the
    smaller bushes rooted strictly between them.  Members are listed by
    (position, index), the order of their blocks in the blown-up interval.
    """
    ends = diameter_ends(dec.space, dec.base)
    near = _walk(dec.space, ends[0])
    pos = {b.index: near[b.root] for b in dec.bushes}
    targets, members, spans = {}, {}, {}
    for k in pos:
        if k == 1:
            inside, spans[1] = pos, (F0, h1_measure(dec.base))
        else:
            lk = targets[k] = min(range(1, k), key=lambda j: (abs(pos[j] - pos[k]), j))
            lo, hi = spans[k] = tuple(sorted((pos[k], pos[lk])))
            inside = {k, lk, *(h for h in pos if h > k and lo < pos[h] < hi)}
        members[k] = sorted(inside, key=lambda h: (pos[h], h))
    return BlowupPlan(targets=targets, positions=pos, ends=ends, members=members,
                      spans=spans)


# ---------------------------------------------------------------------------
# glued maps: the identity on a base, one ExactBushPart on each bush off it


def _subtree_in(space: Dendrite, d, field: str) -> Subtree:
    """The subtree a glued file holds under ``field``, read against its space.

    It must name only vertices and edges of the space, be nonempty and be
    connected; otherwise the file is refused with a ValueError naming the
    field.  The set returned is canonical, so a file that spells it
    otherwise does not write back, and the loader's check refuses it.
    """
    S = Subtree.from_dict(d)
    unknown = sorted(S.vertices - set(space.vertices))
    if unknown:
        raise ValueError(f"{field} vertex {unknown[0]!r} is not a vertex of the space")
    for e in sorted(S.intervals):
        if not 0 <= e < len(space.edges):
            raise ValueError(f"{field} edge {e} is not an edge of the space")
    try:
        S = make_subtree(space, S.intervals, S.vertices)
    except GeometryError as exc:
        raise ValueError(f"{field}: {exc}") from None
    if S.is_empty():
        raise ValueError(f"{field} is empty")
    # S is connected when its vertices and intervals, an interval linked to
    # each end of its edge that it reaches, form a tree: one link fewer
    links = sum((a == 0) + (b == space.edge_length(e)) for e, (a, b) in S.intervals.items())
    if links != len(S.vertices) + len(S.intervals) - 1:
        raise ValueError(f"{field} is not connected")
    return S


class ExactBushPart:
    """A bush sent onto its region E_k: zigzag, sawtooth, then g."""

    def __init__(self, region: Subtree, root: str, psi: Zigzag, nu: Zigzag,
                 g: TreeMap):
        self.region = region  # the bush
        self.root = root
        self.psi = psi  # the bush onto the unit arc
        self.nu = nu  # the unit arc onto g's domain
        self.g = g

    def apply(self, x: PointRef) -> PointRef:
        return self.g.apply(self.nu.apply(self.psi.apply(x)))

    def image(self, S: Subtree) -> Subtree:
        return self.g.image(self.nu.image(self.psi.image(S)))

    def pieces(self):
        return self.psi.pieces()

    def to_dict(self):
        psi, nu = self.psi, self.nu
        return {
            "bush": self.region.to_dict(),
            "root": self.root,
            "psi": {"kind": "bush_zigzag", "bush": psi.region.to_dict(),
                    "root": psi.root, "reach": format_rat(psi.reach),
                    "laps": psi.laps},
            "nu": {"kind": "sawtooth_arc", "laps": nu.laps,
                   "start": format_rat(nu.start),
                   "codomain_length": format_rat(nu.codomain.edge_length(0))},
            "g": self.g.to_dict(),
        }


class GluedMap:
    """The identity on the base, each part's map on its bush off the base.

    Bushes meet the base and each other only at roots, where the map is the
    identity, so the image of a set is its base overlap together with each
    part's image of its overlap with the bush.  Two subtrees meet in a
    connected set, so each overlap goes to its part whole, in one call, and
    an overlap inside the base is skipped.
    Subclasses set the file ``kind`` and read their files as their inputs.

    Like :class:`TreeMap`, the map keeps one image memo keyed by the set,
    so orbits that merge image their shared tail once.  Memory is one
    stored image per distinct set imaged, for the map's life.
    """

    def __init__(self, space, base, parts, manifest=None):
        self.domain = space
        self.codomain = space
        self.base = base
        self.parts = parts
        self.manifest = manifest or {}
        self._image_memo: dict[Subtree, Subtree] = {}

    def apply(self, x: PointRef) -> PointRef:
        self.domain.check_point(x)
        if contains_point(self.domain, self.base, x):
            return x
        for part in self.parts:
            if contains_point(self.domain, part.region, x):
                return part.apply(x)
        raise GeometryError("point outside the base and every part")

    def image(self, S: Subtree) -> Subtree:
        return _memo_image(self._image_memo, self._image, S)

    def _image(self, S: Subtree) -> Subtree:
        D = self.domain
        parts_out = [intersect_subtrees(D, S, self.base)]
        for part in self.parts:
            C = intersect_subtrees(D, S, part.region)
            if not C.is_empty() and not subtree_contains(self.base, C):
                parts_out.append(part.image(C))
        comps = union_subtrees(D, parts_out)
        if len(comps) != 1:
            raise GeometryError("image of a connected set came out disconnected")
        return comps[0]

    def pieces(self):
        """Certification partition: part pieces off the base, base edges."""
        out = [
            (e, a, b, "bush")
            for part in self.parts
            for e, a, b in part.pieces()
            if e not in self.base.intervals
        ]
        for e, (a, b) in sorted(self.base.intervals.items()):
            out.append((e, a, b, "base"))
        return out

    def to_dict(self):
        return {
            "kind": self.kind,
            "space": self.domain.to_dict(),
            "base": self.base.to_dict(),
            "parts": [part.to_dict() for part in self.parts],
            "manifest": json_copy(self.manifest),
        }


def _g_reader(d, space: Dendrite, bushes: int):
    """The layout's ``g_for`` that reads each part's g from the file ``d``
    in turn, mapping into ``space``.  The file must hold one part per bush,
    and each g must run on its blown-up interval and send its own block's
    start, where psi then nu send the root, to the root."""
    if len(d["parts"]) != bushes:
        raise ValueError(f"the file has {len(d['parts'])} parts, but its base "
                         f"has {bushes} bushes")
    parts = enumerate(d["parts"])

    def read_g(dec, plan, b, arc, starts):
        i, pd = next(parts)
        g = TreeMap.from_dict(pd["g"], codomain=space)
        if g.domain != arc:
            raise ValueError(f"part {i} g.domain is not its blown-up interval")
        if g.apply(arc.point(0, starts[b.index])) != PointRef(vertex=b.root):
            raise ValueError(f"part {i} does not fix its root {b.root!r}")
        return g

    return read_g


class GluedExactMap(GluedMap):
    """Identity on the base arc, expanding bush-to-region maps elsewhere."""

    kind = "glued_exact"
    image = GluedMap.image  # own attribute: perfbench/tracer.py wraps it per class

    @classmethod
    def from_dict(cls, d):
        """The map a file describes, read as its inputs: its space, base,
        manifest q and rho, and each part's g; :func:`_glue_exact` lays out
        the rest as the builder does, and the file must agree with it.  The
        space must have the layout lengths, base 1-q and bush k (1-q) q^k."""
        space = Dendrite.from_dict(d["space"])
        dec = decompose_bushes(space, _subtree_in(space, d["base"], "base"))
        if dec.base_kind != "arc":
            raise ValueError("a glued_exact base must be an arc")
        read_g = _g_reader(d, dec.space, len(dec.bushes))
        q = parse_rat(d["manifest"]["q"])
        if not (0 < q < 1 and h1_measure(dec.base) == 1 - q
                and all(b.measure == (1 - q) * q**b.index for b in dec.bushes)):
            raise GeometryError(f"q = {format_rat(q)} does not give the space's measures:"
                                " base 1-q and bush k (1-q) q^k with 0 < q < 1")
        return _glue_exact(dec, q, parse_rat(d["manifest"]["rho"]), read_g)


class GluedPointMap(GluedMap):
    """Identity at the shared fixed point, an exact map of each bush onto
    itself."""

    kind = "glued_point"
    image = GluedMap.image  # own attribute: perfbench/tracer.py wraps it per class

    @classmethod
    def from_dict(cls, d):
        """The map a file describes, read as its inputs: its space, base
        point and manifest lap counts; :func:`_glue_point` derives the rest,
        and a base of more than one point does not write back."""
        space = Dendrite.from_dict(d["space"])
        base = _subtree_in(space, d["base"], "base")
        return _glue_point(decompose_bushes(space, first_point(base)),
                           [entry["laps"] for entry in d["manifest"]["parts"]])


class GluedPieceMap(GluedMap):
    """Nested invariant pieces glued along a common fixed arc."""

    kind = "glued_pieces"
    image = GluedMap.image  # own attribute: perfbench/tracer.py wraps it per class

    @classmethod
    def from_dict(cls, d):
        """The map a file describes, read as its inputs: its space, base,
        manifest q and rho, and each part's g; the shells come from
        :func:`_gch_shells` and the rest from :func:`_glue_pieces`, as at
        build, and the file must agree with them."""
        space = Dendrite.from_dict(d["space"])
        space, base, shells = _gch_shells(space, _subtree_in(space, d["base"], "base"))
        read_g = _g_reader(d, space, sum(len(shell.bushes) for _, _, shell in shells))
        return _glue_pieces(space, base, shells, parse_rat(d["manifest"]["q"]),
                            parse_rat(d["manifest"]["rho"]), read_g)


MAP_KINDS = {
    cls.kind: cls for cls in (TreeMap, GluedExactMap, GluedPointMap, GluedPieceMap)
}


def _map_type(d):
    """The map class of a map file's ``kind`` (default piecewise)."""
    if not isinstance(d, dict):
        raise ValueError("a map file must hold a JSON object")
    kind = d.get("kind", "piecewise")
    if not isinstance(kind, str) or kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {kind!r}")
    return MAP_KINDS[kind]


def map_from_dict(d):
    """The map a map file describes, refused unless it writes the file back."""
    cls = _map_type(d)
    return from_dict_checked(cls.from_dict, d, f"{cls.kind} map")


# ---------------------------------------------------------------------------
# builders


def _glue_exact(dec: BushDecomposition, q, rho, g_for) -> "GluedExactMap":
    """The glued_exact layout of an arc decomposition (build, load, and
    each shell of the counterexample), with each part's g from
    ``g_for(dec, plan, bush, J_k, starts)``.

    Lengths are laid out in the q-form: the base as 1-q, a position along
    it as its arclength times (1-q)/|base|, and bush k as (1-q) q^k; a
    space that ``assign_metric`` made has them as its own.  A region's
    blocks lie along J_k, g's domain: one per member in base order, each as
    long as its bush, which ``starts`` places, and between them the base
    between the roots, so J_k is as long as the region's laid-out measure.
    Every lap count comes from the fold lemma: phi's from rho, psi's from
    rho and its bush, nu's from the length of J_k.  psi reads normalized
    distance, so a bush scaled by one factor gets the same psi.  A
    rho <= 1, or a q outside (0, 1), is refused.
    """
    if rho <= 1:
        raise GeometryError(f"rho is {format_rat(rho)}, but must exceed 1")
    if not 0 < q < 1:
        raise GeometryError(f"q is {format_rat(q)}, but must lie strictly between 0 and 1")
    plan = plan_targets(dec)
    per_length = (1 - q) / h1_measure(dec.base)
    pos = {h: p * per_length for h, p in plan.positions.items()}
    unit = unit_arc()
    phi_laps = initial_lap_count(rho)
    parts, entries = [], []
    for b in dec.bushes:
        k = b.index
        lo, hi = (s * per_length for s in plan.spans[k])
        starts, acc, prev = {}, F0, lo
        for h in plan.members[k]:
            starts[h] = acc + pos[h] - prev
            acc, prev = starts[h] + (1 - q) * q**h, pos[h]
        total = acc + hi - prev
        arc = Dendrite([f"J{k}:0", f"J{k}:1"], [(f"J{k}:0", f"J{k}:1", total)])
        # the sawtooth starts in the block of bush k itself
        nu_laps = _nu_lap_count(total)
        nu = Zigzag(unit, full_subtree(unit), "0", nu_laps, arc, starts[k])
        # psi expands the phi images by rho in units of the bush measure:
        # from phi's laps it rises to the lemma's count for its own reach
        psi = Zigzag(dec.space, b.subtree, b.root, phi_laps, unit)
        psi.laps = psi_lap_count(psi, rho, phi_laps)
        parts.append(ExactBushPart(region=b.subtree, root=b.root, psi=psi, nu=nu,
                                   g=g_for(dec, plan, b, arc, starts)))
        entries.append({
            "bush": k, "root": b.root, "weight": format_rat((1 - q) * q**k),
            "target": plan.targets.get(k), "members": plan.members[k],
            "phi_laps": phi_laps, "nu_laps": nu_laps, "region_measure": format_rat(total),
        })
    manifest = {"q": format_rat(q), "rho": format_rat(rho), "base_measure": format_rat(1 - q),
                "deficit": format_rat(q ** (len(dec.bushes) + 1)), "parts": entries}
    return GluedExactMap(dec.space, dec.base, parts, manifest=manifest)


def _replay(q, rho):
    """The ``g_for`` that builds g: its blocks replay the members' phi,
    each built once, and its gaps ride the base arc.  Its ends are the
    span's base points (a block at an end starts or ends at its root), and
    the roots' positions differ, so the shifted controls never share a
    time."""
    phi_laps = initial_lap_count(rho)
    phis = {}

    def replay(dec, plan, b, arc, starts):
        D = dec.space
        v0, v1 = (point_along(D, *plan.ends, s) for s in plan.spans[b.index])
        controls = []
        for h, start in starts.items():
            c = dec.bushes[h - 1]
            if c.root not in phis:
                phis[c.root] = build_phi_on_subtree(D, c.subtree, c.root, phi_laps)
            weight = (1 - q) * q**h
            controls += [(start + t * weight, p) for t, p in phis[c.root].controls(0)]
        inner = tuple((t, p) for t, p in controls if F0 < t < arc.edge_length(0))
        return TreeMap(arc, D, {arc.edges[0].u: v0, arc.edges[0].v: v1}, {0: inner})

    return replay


def build_exact(D: Dendrite, A, q=Fraction(1, 2), rho=Fraction(6, 5), seed: int = 0):
    """Selfmap fixing A pointwise whose bush pieces expand onto regions E_k.

    A is a Subtree arc, a marked-pair name prefix (resolved via marked points
    ``<A>_left`` / ``<A>_right``), or a PointRef.  Returns a GluedExactMap on
    the reassigned-metric copy of D (arc case) or a TreeMap / glued map on D
    itself (point case); the build manifest records weights, targets, lap
    counts and region measures.  In the arc case every lap count comes from
    the fold lemma, so nothing is sampled and ``seed`` is not read: phi
    expands by rho times its bush's measure, and psi expands phi's images
    by rho over it.
    """
    q, rho = Fraction(q), Fraction(rho)
    if isinstance(A, str):
        A = geodesic(
            D, D.resolve_marked(f"{A}_left"), D.resolve_marked(f"{A}_right")
        )
    dec = decompose_bushes(D, A)
    if dec.base_kind == "point":
        return _build_exact_point(dec, rho, seed)
    return _glue_exact(assign_metric(dec, q), q, rho, _replay(q, rho))


def _nu_lap_count(total: Fraction) -> int:
    """Even stretch count: non-covering subintervals expand by at least 2."""
    return even_lap_count(4 / total, 2)


def _build_exact_point(dec: BushDecomposition, rho, seed):
    """Point base: per-bush exact maps glued at the fixed point.

    Arc-shaped bushes get the slope-2 fold onto themselves; branched bushes
    get the pair of expanding surjections through the unit interval, laid
    out in place (:func:`_glue_point`) at the lap count ``build_pair``
    settles on a standalone copy of the bush.  Single-edge bushes assemble
    into one explicit TreeMap.
    """
    D = dec.space
    (root_name,) = dec.base.vertices
    if all(len(b.subtree.intervals) == 1 for b in dec.bushes):
        vertex_images = {root_name: PointRef(vertex=root_name)}
        edge_breaks = {}
        for b in dec.bushes:
            (e,) = b.subtree.intervals
            ed = D.edges[e]
            far = ed.v if ed.u == b.root else ed.u
            vertex_images[far] = PointRef(vertex=b.root)
            mid = ed.length / 2
            edge_breaks[e] = ((mid, PointRef(vertex=far)),)
        return TreeMap(D, D, vertex_images, edge_breaks)
    laps = []
    for b in dec.bushes:
        copy = Dendrite(sorted(b.subtree.vertices),
                        [D.edges[e] for e in sorted(b.subtree.intervals)])
        laps.append(build_pair(copy, PointRef(vertex=b.root), rho, samples=80,
                               seed=seed).laps)
    return _glue_point(dec, laps)


def _glue_point(dec: BushDecomposition, laps: list) -> "GluedPointMap":
    """The glued_point map of a point decomposition, bush i sent onto itself
    at ``laps[i]`` laps: the zigzag psi onto [0, 1], the unit wave nu onto
    [0, 2|bush|], then g, the bush's double-cover walk from its root.  That
    is ``build_pair``'s phi after its psi, on the bush itself.  A lap count
    that is not a positive int is refused.
    """
    D, unit = dec.space, unit_arc()
    parts, entries = [], []
    for b, n in zip(dec.bushes, laps):
        if type(n) is not int or n < 1:
            raise ValueError(f"manifest.parts[{b.index - 1}].laps is {n!r}, "
                             "but must be a positive integer")
        g = walk_map(D, b.subtree, b.root)
        nu = Zigzag(unit, full_subtree(unit), "0", n, g.domain)
        psi = Zigzag(D, b.subtree, b.root, n, unit)
        parts.append(ExactBushPart(region=b.subtree, root=b.root, psi=psi, nu=nu, g=g))
        entries.append({"bush": b.index, "root": b.root, "style": "pair", "laps": n})
    return GluedPointMap(D, dec.base, parts, manifest={"parts": entries})


# ---------------------------------------------------------------------------
# exactness verification


class CoverRow:
    def __init__(self, edge: int, lo: Fraction, hi: Fraction, kind: str,
                 covered_at: Optional[int]):
        self.edge = edge
        self.lo = lo
        self.hi = hi
        self.kind = kind  # "bush" | "base"
        self.covered_at = covered_at  # least n with f^n(piece) = whole space


class ExactnessCertificate:
    def __init__(self, rows: list, n_max: int, chain_ok: bool, chains: dict):
        self.rows = rows
        self.n_max = n_max
        self.chain_ok = chain_ok
        self.chains = chains

    @property
    def all_bush_pieces_covered(self) -> bool:
        return all(r.covered_at is not None for r in self.rows if r.kind == "bush")

    @property
    def max_cover_time(self) -> Optional[int]:
        times = [r.covered_at for r in self.rows if r.covered_at is not None]
        return max(times) if times else None

    def to_dict(self):
        return {
            "n_max": self.n_max,
            "chain_ok": self.chain_ok,
            "chains": {str(k): list(v) for k, v in sorted(self.chains.items())},
            "rows": [
                {
                    "edge": r.edge,
                    "lo": format_rat(r.lo),
                    "hi": format_rat(r.hi),
                    "kind": r.kind,
                    "covered_at": r.covered_at,
                }
                for r in self.rows
            ],
            "all_bush_pieces_covered": self.all_bush_pieces_covered,
        }


def markov_graph(F):
    """Each certification piece's successors, or None if F is not Markov.

    Entry i of the list is an int mask with bit j set when piece j of
    ``F.pieces()`` lies in F(piece i).  The graph exists when the pieces
    tile every edge (contiguous from 0 to its length, each nondegenerate)
    and each piece's image, computed once, is nondegenerate with every
    interval starting and ending at piece cuts, so a union of whole pieces.
    As f(P u Q) = f(P) u f(Q), the image of a union of pieces is then
    exactly the union of their successors.
    """
    return _markov_graph(F, F.pieces())


def _markov_graph(F, pieces):
    D = F.domain
    on_edge: dict[int, list] = {}
    for i, (e, a, b, *_) in enumerate(pieces):
        on_edge.setdefault(e, []).append((a, b, i))
    if F.codomain != D or sorted(on_edge) != list(range(len(D.edges))):
        return None
    # cut t of edge e -> mask of the pieces of e that end at or before t,
    # keyed by t.as_integer_ratio(), which hashes faster than a Fraction
    upto: dict[int, dict] = {}
    for e, row in on_edge.items():
        row.sort()
        mask, end, cuts = 0, F0, {(0, 1): 0}
        for a, b, i in row:
            if a != end or b <= a:
                return None
            mask |= 1 << i
            cuts[b.as_integer_ratio()], end = mask, b
        if end != D.edge_length(e):
            return None
        upto[e] = cuts
    succ = []
    for e, a, b, *_ in pieces:
        img = F.image(make_subtree(D, {e: (a, b)}))
        if img.is_degenerate():
            return None
        mask = 0
        for e2, (a2, b2) in img.intervals.items():
            cuts = upto[e2]
            lo, hi = cuts.get(a2.as_integer_ratio()), cuts.get(b2.as_integer_ratio())
            if lo is None or hi is None:
                return None
            mask |= hi ^ lo
        succ.append(mask)
    return succ


def verify_exact(Fm, n_max: int) -> ExactnessCertificate:
    """Least full-cover time per certification piece, plus chain validation.

    When :func:`markov_graph` exists, each piece is imaged once and its
    cover time is read off the piece graph: the mask of f^n(piece) is the
    union of its successors' masks, and with tiling pieces "every piece"
    is "the whole space".  Otherwise each piece's orbit is imaged step by
    step.  Either :class:`~dendro.tree_map.Orbit` is read over
    :func:`~dendro.tree_map.scan` up to the horizon ``n_max`` or its first
    repeated state, past which it cannot cover.

    Pieces on the fixed base arc can never cover (the map is the identity
    there); they are reported with ``covered_at = None`` and excluded from
    the pass criterion.  A :class:`TreeMap` (the point form's map when every
    bush is one edge) has no fixed base, and its (edge, lo, hi) pieces are
    all bush pieces.  The target chain k -> l_k -> ..., read from the
    ``target`` of each part of the map's manifest, must be strictly
    decreasing down to 1 within as many steps as there are parts; a map
    loaded from a file holds the targets its loader derived, not the file's.
    A map onto another tree has no piece orbits and is refused.
    """
    require_selfmap(Fm, "piece")
    if n_max < 1:
        raise GeometryError("n_max must be >= 1")
    D = Fm.domain
    pieces = Fm.pieces()
    succ = _markov_graph(Fm, pieces)
    if succ is None:
        image, full = Fm.image, full_subtree(D)
    else:
        @functools.cache
        def image(mask: int) -> int:  # the union of the pieces' successors
            out = 0
            while mask:
                low = mask & -mask
                out |= succ[low.bit_length() - 1]
                mask ^= low
            return out
        full = (1 << len(succ)) - 1
    rows = []
    for i, (e, a, b, *rest) in enumerate(pieces):
        kind = rest[0] if rest else "bush"  # a TreeMap fixes no base
        covered = None
        if kind == "bush":
            o = Orbit(image, make_subtree(D, {e: (a, b)}) if succ is None else 1 << i)
            covered = next((n for n in scan(1, n_max, o) if o.at(n) == full), None)
        rows.append(CoverRow(edge=e, lo=a, hi=b, kind=kind, covered_at=covered))
    parts = getattr(Fm, "manifest", {}).get("parts", [])
    targets = {p["bush"]: p["target"] for p in parts if p.get("target") is not None}
    chains = {}
    for k in sorted(targets):
        chain = [k]
        while chain[-1] in targets and len(chain) <= len(parts):
            chain.append(targets[chain[-1]])
        chains[k] = chain
    chain_ok = all(
        chain[-1] == 1 and len(chain) <= len(parts)
        and all(x > y for x, y in zip(chain, chain[1:]))
        for chain in chains.values()
    )
    return ExactnessCertificate(rows=rows, n_max=n_max, chain_ok=chain_ok,
                                chains=chains)


# ---------------------------------------------------------------------------
# counterexample assembly: generically-chaotic-but-not-uniformly-sensitive


def build_gch_not_eps(D: Dendrite, A_or_point):
    """Glue exact pieces so every neighborhood scrambles but diameters shrink.

    Both forms build at q = 1/2 and rho = 6/5, the point form at seed 0.

    Point form: the base point must have infinite order in the ideal object
    (generator descriptor); each complement component maps exactly onto
    itself fixing the point.  Arc form: nested subarcs A_1 = A > A_2 > ...
    shrink toward an interior anchor; the teeth rooted at distance between
    consecutive radii join shell j (:func:`_gch_shells`), each shell is laid
    out as an exact map fixing its subarc, and all their parts glue along
    the identity on A.
    """
    q, rho = Fraction(1, 2), Fraction(6, 5)
    if isinstance(A_or_point, PointRef):
        if ideal_point_order(D, A_or_point) != math.inf:
            raise GeometryError(
                "point form needs a point of infinite ideal order"
            )
        return build_exact(D, A_or_point, q=q, rho=rho, seed=0)
    # arc form
    A = A_or_point
    if isinstance(A, str):
        A = geodesic(D, D.resolve_marked(f"{A}_left"), D.resolve_marked(f"{A}_right"))
    return _glue_pieces(*_gch_shells(D, A), q, rho, _replay(q, rho))


def _gch_shells(D: Dendrite, A: Subtree):
    """The arc form's (space, base, shells), for build and load alike.

    The radii halve from the farthest root's distance to the marked
    'origin' anchor; shell j holds the teeth rooted at a distance in
    (radius_j / 2, radius_j] (shell 1 also the anchor's own) and the base
    clipped at radius_j, cut out as whole edges.  A shell is (j, radius_j,
    its decomposition, teeth indexed by (-measure, root)).  Given a space
    and base it returned, it returns the same space.
    """
    dec0 = decompose_bushes(D, A)
    space0 = dec0.space
    anchor0 = space0.marked.get("origin")
    if anchor0 is None:
        raise GeometryError("arc form needs a marked 'origin' anchor on the base")
    near = _walk(space0, anchor0)
    dists = {b.root: near[b.root] for b in dec0.bushes}
    radius0 = max(dists.values())

    def shell_of(d: Fraction) -> int:
        if d == 0:
            return 1
        j, radius = 1, radius0
        while radius / 2 >= d:
            radius /= 2
            j += 1
        return j

    shell = {root: shell_of(d) for root, d in dists.items()}
    # cut the base where each shell's clipped arc ends; roots and their
    # distances to the anchor stay as they are
    ends0 = diameter_ends(space0, dec0.base)
    space, base = _refine_arc(space0, ends0, [
        p for j in set(shell.values())
        for p in _clip_points(space0, anchor0, ends0, radius0 / 2 ** (j - 1))])
    anchor = space.marked["origin"]
    teeth: dict[int, list] = {}
    for b in decompose_bushes(space, base).bushes:
        teeth.setdefault(shell[b.root], []).append(b)
    ends = diameter_ends(space, base)
    shells = []
    for j in sorted(teeth):
        radius = radius0 / 2 ** (j - 1)
        sub_arc = geodesic(space, *_clip_points(space, anchor, ends, radius))
        if sub_arc.is_degenerate():
            raise GeometryError("clipped arc degenerated")
        bushes = [Bush(index=i + 1, root=b.root, subtree=b.subtree, measure=b.measure)
                  for i, b in enumerate(teeth[j])]
        shells.append((j, radius, BushDecomposition(space, sub_arc, "arc", bushes)))
    return space, base, shells


def _glue_pieces(space, base, shells, q, rho, g_for) -> "GluedPieceMap":
    """The glued_pieces map: each shell's parts laid out by
    :func:`_glue_exact` on its own arc and teeth, all glued along the
    identity on the whole base arc; the manifest records q, rho and per
    shell its roots, radius and region measure."""
    parts, pieces = [], []
    for j, radius, shell in shells:
        parts += _glue_exact(shell, q, rho, g_for).parts
        pieces.append({
            "piece": j,
            "bush_roots": sorted(b.root for b in shell.bushes),
            "arc_radius": format_rat(radius),
            "region_measure": format_rat(
                h1_measure(shell.base) + sum(b.measure for b in shell.bushes)),
        })
    manifest = {"q": format_rat(q), "rho": format_rat(rho), "pieces": pieces}
    return GluedPieceMap(space, base, parts, manifest=manifest)


def _clip_points(space, anchor, ends, radius):
    """Points of the base at distance ``radius`` from the anchor, one per end.

    An end nearer than ``radius`` is its own clip point.
    """
    return [
        point_along(space, anchor, end, min(radius, dist(space, anchor, end)))
        for end in ends
    ]
