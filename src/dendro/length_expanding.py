"""Length-expansion checking and desk-scale expanding surjection builders.

A map f between trees is rho-length-expanding for a family of test sets when
every member's image either covers the whole codomain or gains 1-dimensional
measure by a factor of at least rho.  The checker samples a family and
verifies the dichotomy; a returned witness re-verifies exactly, a pass is
sampling evidence only.

``build_pair`` produces, for a tree T of total measure 1 and a base point a,
a surjection phi: I -> T with phi(0) = phi(1) = a and a surjection psi:
T -> I with psi(a) = 0.  Both are validated by the checker; on failure the
lap count doubles and the build retries.

The triangle wave behind every zigzag lives here once, in closed form: its
value and exact range (``sawtooth_value``, ``sawtooth_image``) and its fold
pullbacks on an edge (``fold_cuts``).  :class:`Zigzag` is the wave of the
normalized distance to a root onto a one-edge arc; it derives its reach,
the root's farthest distance in its region, and ``tree_map()`` makes it an
explicit ``TreeMap``.  Every lap count is the least even count at or
above a need and a floor (``even_lap_count``).  psi is the Zigzag of the
distance to a; phi is the unit-arc Zigzag onto [0, 2|T|] composed with
the closed double-cover walk of T (``tree_map.compose``).  Both prove their
own expansion by the fold lemma (:class:`Zigzag`, ``build_phi_on_subtree``):
a stretch that holds no whole lap is folded at most once.  ``exact_builder``
builds its bush maps from the same Zigzag on ``unit_arc()`` and the same
walk (``walk_map``) and takes the arc form's lap counts from the lemma
(``initial_lap_count``, ``psi_lap_count``), so it samples nothing there.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    Subtree,
    _frozen,
    _setattr,
    _walk,
    full_subtree,
    h1_measure,
    is_full,
    make_subtree,
    subtree_points,
)
from dendro.serialize import format_rat
from dendro.tree_map import TreeMap, compose

F0 = Fraction(0)
F1 = Fraction(1)


class BuildError(RuntimeError):
    """Constructor gave up; carries the last checker witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# dense families


class DenseFamily:
    """Sampler for a dense family of nondegenerate test sets.

    kinds: ``all_closed_intervals`` on an arc domain (deterministic dyadic
    members first, then seeded random intervals) and ``phi_images`` (images
    of the interval family under a fixed map).
    """

    def __init__(self, kind: str, through: Optional[object] = None):
        _setattr(self, "kind", kind)
        _setattr(self, "through", through)  # map for phi_images

    __setattr__ = __delattr__ = _frozen

    def sample(self, D: Dendrite, count: int, seed: int) -> list[Subtree]:
        if self.kind == "all_closed_intervals":
            return _interval_family(D, count, seed)
        if self.kind == "phi_images":
            phi = self.through
            base = _interval_family(phi.domain, count, seed)
            out = []
            for J in base:
                C = phi.image(J)
                if not C.is_degenerate():
                    out.append(C)
            return out
        raise GeometryError(f"unknown dense family kind {self.kind!r}")


def _interval_family(D: Dendrite, count: int, seed: int) -> list[Subtree]:
    if len(D.edges) != 1:
        raise GeometryError("interval family needs a single-edge arc domain")
    e, L = 0, D.edge_length(0)
    fixed = [
        (Fraction(0), L),
        (Fraction(0), L / 2),
        (L / 2, L),
        (L / 4, 3 * L / 4),
        (Fraction(0), L / 4),
        (3 * L / 4, L),
        (L / 8, 3 * L / 8),
    ]
    out = [make_subtree(D, {e: iv}) for iv in fixed[:count]]
    rng = random.Random(seed)
    den = 256
    while len(out) < count:
        a = rng.randint(0, den - 1)
        b = rng.randint(a + 1, den)
        out.append(make_subtree(D, {e: (L * Fraction(a, den), L * Fraction(b, den))}))
    return out


# ---------------------------------------------------------------------------
# the checker


class LEWitness:
    """A true violation of the expansion dichotomy."""

    def __init__(self, set_: Subtree, measure: Fraction, image_measure: Fraction,
                 rho: Fraction):
        _setattr(self, "set_", set_)
        _setattr(self, "measure", measure)
        _setattr(self, "image_measure", image_measure)
        _setattr(self, "rho", rho)

    __setattr__ = __delattr__ = _frozen

    def to_dict(self):
        return {
            "set": self.set_.to_dict(),
            "measure": format_rat(self.measure),
            "image_measure": format_rat(self.image_measure),
            "rho": format_rat(self.rho),
        }


def reverify(F, w: LEWitness) -> bool:
    """Recompute a witness from scratch; True iff it still violates."""
    img = F.image(w.set_)
    return (not is_full(F.codomain, img)) and h1_measure(img) < w.rho * h1_measure(
        w.set_
    )


def check_length_expanding(F, family: DenseFamily, rho, samples: int, seed: int = 0):
    """None on pass; the first LEWitness otherwise.

    A witness is sound (it re-verifies exactly); a pass is evidence over the
    sampled members only.
    """
    rho = Fraction(rho)
    if rho <= 1:
        raise GeometryError("rho must exceed 1")
    for C in family.sample(F.domain, samples, seed):
        if C.is_degenerate():
            continue
        img = F.image(C)
        if is_full(F.codomain, img):
            continue
        if h1_measure(img) < rho * h1_measure(C):
            return LEWitness(
                set_=C,
                measure=h1_measure(C),
                image_measure=h1_measure(img),
                rho=rho,
            )
    return None


# ---------------------------------------------------------------------------
# double-cover walk


def double_cover_walk(D: Dendrite, S: Subtree, root: str):
    """Closed depth-first walk from `root` covering each edge interval twice.

    Returns legs (edge, t_from, t_to), the shape of ``geodesic_walk``; total
    time is twice the measure of S.  S must consist of whole edges of D.
    """
    for e, (a, b) in S.intervals.items():
        if a != 0 or b != D.edge_length(e):
            raise GeometryError("walk needs a whole-edge subtree")
    adj: dict[str, list] = {v: [] for v in S.vertices}
    for e in sorted(S.intervals):
        ed = D.edges[e]
        adj[ed.u].append((e, ed.v))
        adj[ed.v].append((e, ed.u))
    legs = []

    def visit(v, blocked):
        for e, w in adj[v]:
            if e == blocked:
                continue
            ed = D.edges[e]
            down = (Fraction(0), ed.length) if ed.u == v else (ed.length, Fraction(0))
            legs.append((e, down[0], down[1]))
            visit(w, e)
            legs.append((e, down[1], down[0]))

    if root not in adj:
        raise GeometryError("walk root must be a vertex of the subtree")
    visit(root, None)
    return legs


# ---------------------------------------------------------------------------
# zigzags (triangle waves) with exact arithmetic


def fold_cuts(nu, nv, length, laps: int) -> list:
    """Offsets on an edge where the lap-`laps` wave of distance folds.

    The edge has the given length and the normalized distance runs affinely
    from nu at offset 0 to nv at its far end (nu != nv); the wave folds
    where that distance crosses a multiple j/laps strictly inside.  Returns
    the increasing offsets of those crossings.
    """
    lo, hi = sorted((nu, nv))
    cuts = []
    j = math.floor(lo * laps) + 1
    while Fraction(j, laps) < hi:
        cuts.append((Fraction(j, laps) - nu) / (nv - nu) * length)
        j += 1
    return sorted(cuts)


def _fold(u: Fraction, total: Fraction) -> Fraction:
    r = u % (2 * total)
    return r if r <= total else 2 * total - r


def sawtooth_value(total, laps: int, start, t) -> Fraction:
    """Triangle-wave value at parameter t in [0,1]; rises first from start."""
    total, start, t = Fraction(total), Fraction(start), Fraction(t)
    return _fold(start + laps * total * t, total)


def sawtooth_image(total, laps: int, start, a, b):
    """Exact (min, max) of the triangle wave over the parameters [a, b]."""
    total, start = Fraction(total), Fraction(start)
    a, b = Fraction(a), Fraction(b)
    if a > b:
        a, b = b, a
    u1 = start + laps * total * a
    u2 = start + laps * total * b
    f1, f2 = _fold(u1, total), _fold(u2, total)
    lo, hi = min(f1, f2), max(f1, f2)
    # peaks at odd multiples of `total`, troughs at even multiples
    m_lo = math.ceil(u1 / total)
    m_hi = math.floor(u2 / total)
    if m_hi - m_lo >= 1:
        return Fraction(0), total
    for m in range(m_lo, m_hi + 1):
        if m % 2 == 0:
            lo = Fraction(0)
        else:
            hi = total
    return lo, hi


class Zigzag:
    """Triangle wave of the normalized distance to a root, onto a one-edge arc.

    A point x of ``region`` goes to offset ``sawtooth_value(len(codomain),
    laps, start, dist(root, x) / reach)`` on the codomain's edge.  psi is
    the instance on a tree or bush; the sawtooth nu, and the wave inside
    phi, are the instance on the unit arc, rooted at "0" with reach 1.
    The reach is derived: the region is whole edges, so its farthest point
    from the root, which must be a vertex of the region, is a vertex.

    Fold lemma.  Let C be a connected subset of the region, its distances
    to the root spread over a range of length s.  If the range holds a whole
    lap (1/laps of normalized distance), C maps onto the codomain; otherwise
    the wave folds it at most once, so its image is at least laps *
    len(codomain) * s / (2 reach) long.  And mu(C) <= m s for m ends of the
    region besides the root: C is the union of at most m arcs from its
    point nearest the root, along each of which the distance grows.
    """

    def __init__(self, domain: Dendrite, region: Subtree, root: str, laps: int,
                 codomain: Dendrite, start: Fraction = F0):
        if root not in region.vertices:
            raise GeometryError(f"zigzag root {root!r} is not in its region")
        for e, (a, b) in region.intervals.items():
            if a != 0 or b != domain.edge_length(e):
                raise GeometryError("a zigzag region must be whole edges")
        self.domain = domain
        self.region = region
        self.root = root
        self.laps = laps
        self.codomain = codomain
        self.start = start
        # region vertex -> root distance, and the largest of them
        self._rdist = _walk(domain, PointRef(vertex=root), region)
        self.reach = max(self._rdist.values())

    def _norm(self, x: PointRef) -> Fraction:
        """dist(root, x) / reach, read off the root-distance table: a point
        of a region edge is reached through the edge's nearer end."""
        rd = self._rdist
        if x.is_vertex:
            return rd[x.vertex] / self.reach
        ed = self.domain.edges[x.edge]
        du, dv = rd[ed.u], rd[ed.v]
        return (du + x.offset if du < dv else dv + ed.length - x.offset) / self.reach

    def apply(self, x: PointRef) -> PointRef:
        total = self.codomain.edge_length(0)
        return self.codomain.point(
            0, sawtooth_value(total, self.laps, self.start, self._norm(x)))

    def image(self, S: Subtree) -> Subtree:
        norms = [self._norm(p) for p in subtree_points(self.domain, S)]
        a, b = sawtooth_image(self.codomain.edge_length(0), self.laps, self.start,
                              min(norms), max(norms))
        return make_subtree(self.codomain, {0: (a, b)})

    def pieces(self):
        """Per-edge linearity intervals: cut at fold pullbacks.

        The wave folds where start + laps * total * n is a multiple of
        total, so the normalized distance n is shifted by the start's share
        of one lap before the fold pullbacks are read.
        """
        shift = self.start / (self.laps * self.codomain.edge_length(0))
        out = []
        for e in sorted(self.region.intervals):
            ed = self.domain.edges[e]
            nu, nv = (self._norm(PointRef(vertex=w)) + shift for w in (ed.u, ed.v))
            cuts = [F0, *fold_cuts(nu, nv, ed.length, self.laps), ed.length]
            out.extend((e, a, b) for a, b in zip(cuts, cuts[1:]))
        return out

    def tree_map(self) -> TreeMap:
        """The zigzag as an explicit TreeMap, a breakpoint at each piece end.

        Valid when the region is the whole domain.
        """
        D = self.domain
        breaks: dict[int, list] = {}
        for e, _a, b in self.pieces():
            if b < D.edge_length(e):
                breaks.setdefault(e, []).append((b, self.apply(D.point(e, b))))
        vertex_images = {v: self.apply(PointRef(vertex=v)) for v in D.vertices}
        return TreeMap(D, self.codomain, vertex_images, breaks)


# ---------------------------------------------------------------------------
# pair construction


def even_lap_count(need, least: int) -> int:
    """The least even lap count that is at least ``least`` and ``need``."""
    laps = max(least, math.ceil(need))
    return laps + laps % 2


def initial_lap_count(rho) -> int:
    """Even zigzag stretch count: non-covering intervals expand >= rho."""
    # fold halves the stretch expansion; walk halves again
    return even_lap_count(2 * Fraction(rho), 4)


def psi_lap_count(psi: Zigzag, rho, least: int) -> int:
    """Laps at which ``psi``, a Zigzag of a region S onto [0, 1], expands by
    rho / |S| every connected set that it does not map onto [0, 1]: by the
    fold lemma (:class:`Zigzag`), 2 rho m R / |S| for m ends of S besides
    the root and psi's reach R, or ``least`` if more, made even.  An arc
    rooted at an end needs 2 rho, as phi does.
    """
    T, S = psi.domain, psi.region
    touches = Counter(v for e in S.intervals for v in (T.edges[e].u, T.edges[e].v))
    ends = sum(1 for v, n in touches.items() if n == 1 and v != psi.root)
    need = 2 * Fraction(rho) * ends * psi.reach / h1_measure(S)
    return even_lap_count(need, least)


class BuiltPair:
    def __init__(self, phi: TreeMap, psi: TreeMap, space: Dendrite, laps: int,
                 retries: int):
        self.phi = phi
        self.psi = psi
        self.space = space
        self.laps = laps
        self.retries = retries


def normalize_measure(T: Dendrite) -> Dendrite:
    """Rescale all edge lengths so the total measure is exactly 1."""
    total = T.total_length()
    if total == 0:
        raise GeometryError("degenerate tree")
    if total == 1:
        return T
    scale = Fraction(1) / total
    return Dendrite(
        T.vertices,
        [(e.u, e.v, e.length * scale) for e in T.edges],
        marked=dict(T.marked),
        descriptor=T.descriptor,
    )


def walk_map(T: Dendrite, S, root: str) -> TreeMap:
    """The closed double-cover walk of S from `root`, run at unit speed:
    a TreeMap from the arc [0, 2|S|] onto the whole-edge subtree S of T
    whose ends both go to the root."""
    legs = double_cover_walk(T, S, root)
    arc = Dendrite(["0", "1"], [("0", "1", 2 * h1_measure(S))])
    ends, clock = [], F0
    for e, _a, b in legs[:-1]:
        clock += T.edge_length(e)
        ends.append((clock, T.point(e, b)))
    base = PointRef(vertex=root)
    return TreeMap(arc, T, {"0": base, "1": base}, {0: ends})


def build_phi_on_subtree(T: Dendrite, S, root: str, laps: int) -> TreeMap:
    """Walk zigzag surjection I -> S for a whole-edge subtree S of T.

    The unit-arc wave onto the arc [0, 2|S|], composed with the closed
    double-cover walk from `root` (:func:`walk_map`), which runs that arc
    onto S.

    Fold lemma: an interval J of I that holds a whole lap maps onto S.
    Otherwise the wave folds J at most once, onto a stretch of the walk at
    least laps |S| |J| long (see :class:`Zigzag`); the walk runs each edge
    twice, so mu(phi J) >= laps |S| |J| / 2 >= rho |S| |J| when laps >= 2
    rho, as ``initial_lap_count(rho)`` guarantees.
    """
    walk = walk_map(T, S, root)
    unit = unit_arc()
    wave = Zigzag(unit, full_subtree(unit), "0", laps, walk.domain)
    return compose(walk, wave.tree_map())


def unit_arc() -> Dendrite:
    """The arc [0, 1]: vertices "0" and "1" joined by one edge of length 1."""
    return Dendrite(["0", "1"], [("0", "1", F1)])


def build_pair(
    T: Dendrite,
    a: PointRef,
    rho,
    samples: int = 200,
    seed: int = 0,
    max_retries: int = 3,
    initial_laps: Optional[int] = None,
) -> BuiltPair:
    """Expanding surjections (phi: I -> T, psi: T -> I) validated at rho.

    T is rescaled to total measure 1 if needed (the returned ``space`` is the
    rescaled copy the maps live on).  The zigzag lap count doubles on each
    validation failure; exhausting the retry bound raises BuildError with the
    last witness.
    """
    rho = Fraction(rho)
    space = normalize_measure(T)
    if not a.is_vertex:
        raise GeometryError("base point must be a vertex")
    space.check_point(a)
    whole = full_subtree(space)
    laps = initial_laps if initial_laps is not None else initial_lap_count(rho)
    last_witness = None
    for attempt in range(max_retries + 1):
        phi = build_phi_on_subtree(space, whole, a.vertex, laps)
        psi = Zigzag(space, whole, a.vertex, laps, unit_arc()).tree_map()
        w = check_length_expanding(
            phi, DenseFamily("all_closed_intervals"), rho, samples, seed
        )
        if w is None:
            w = check_length_expanding(
                psi, DenseFamily("phi_images", through=phi), rho, samples, seed
            )
        if w is None:
            if phi.image(full_subtree(phi.domain)) != whole:
                raise BuildError("phi is not surjective")
            return BuiltPair(phi=phi, psi=psi, space=space, laps=laps,
                             retries=attempt)
        last_witness = w
        laps *= 2
    raise BuildError(
        f"no expanding pair within {max_retries} retries", witness=last_witness
    )
