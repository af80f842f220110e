"""Generators for the named dendrite families and assembled counterexamples.

Each generator returns a finite truncation, with the family name, parameters
and truncation depth recorded in ``descriptor`` and the ideal-object
classification flags hard-coded per family (a finite tree cannot witness
them).  Truncations of one family at increasing depth are nested: vertex
names are stable, so the inclusion is the identity on names.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from dendro.metric_tree import Dendrite, PointRef, _frozen, _setattr
from dendro.serialize import format_rat

FAMILIES = (
    "arc",
    "star",
    "comb",
    "riemann",
    "cantor_comb",
    "omega_star",
    "gehman",
)

# ideal-object ground truth per family: (completely_regular, all_orders_finite)
_IDEAL_FLAGS = {
    "arc": (True, True),
    "star": (True, True),
    "comb": (True, True),
    "riemann": (False, True),
    "cantor_comb": (True, True),
    "omega_star": (True, False),
    "gehman": (True, True),
}


class FamilyDescriptor:
    def __init__(self, family: str, params: dict):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        _setattr(self, "family", family)
        _setattr(self, "params", params)

    __setattr__ = __delattr__ = _frozen


class Classification:
    def __init__(self, completely_regular: bool, all_orders_finite: bool):
        _setattr(self, "completely_regular", completely_regular)
        _setattr(self, "all_orders_finite", all_orders_finite)

    __setattr__ = __delattr__ = _frozen

    @property
    def in_theorem_class(self) -> bool:
        return self.completely_regular and self.all_orders_finite


def classify(desc: FamilyDescriptor) -> Classification:
    cr, fin = _IDEAL_FLAGS[desc.family]
    return Classification(cr, fin)


def generate(desc: FamilyDescriptor) -> Dendrite:
    fn = {
        "arc": _gen_arc,
        "star": _gen_star,
        "comb": _gen_comb,
        "riemann": _gen_riemann,
        "cantor_comb": _gen_cantor_comb,
        "omega_star": _gen_omega_star,
        "gehman": _gen_gehman,
    }[desc.family]
    D = fn(**desc.params)
    D.descriptor = {"family": desc.family,
                    "params": {k: _jsonable(v) for k, v in desc.params.items()}}
    return D


def _jsonable(value):
    """A param as a file holds it: Fractions as rational strings, tuples as
    lists, at any depth of lists and tuples."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _gen_arc(length=Fraction(1)) -> Dendrite:
    length = Fraction(length)
    return Dendrite(
        ["0", "1"],
        [("0", "1", length)],
        marked={"left": PointRef(vertex="0"), "right": PointRef(vertex="1")},
    )


def _gen_star(arm_lengths=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))) -> Dendrite:
    arms = [Fraction(a) for a in arm_lengths]
    vertices = ["c"] + [f"e{i+1}" for i in range(len(arms))]
    edges = [("c", f"e{i+1}", arms[i]) for i in range(len(arms))]
    marked = {"center": PointRef(vertex="c")}
    for i in range(len(arms)):
        marked[f"tip{i+1}"] = PointRef(vertex=f"e{i+1}")
    return Dendrite(vertices, edges, marked=marked)


def _comb_like(base_span, roots_heights, marked_extra=None) -> Dendrite:
    """Base arc plus vertical teeth; base nodes named by position."""
    lo, hi = base_span
    positions = sorted({lo, hi} | {x for x, _h in roots_heights})
    vname = {x: f"b@{format_rat(x)}" for x in positions}
    vertices = [vname[x] for x in positions]
    edges = []
    for x0, x1 in zip(positions, positions[1:]):
        edges.append((vname[x0], vname[x1], x1 - x0))
    for x, h in sorted(roots_heights):
        tip = f"t@{format_rat(x)}"
        vertices.append(tip)
        edges.append((vname[x], tip, h))
    marked = {
        "A_left": PointRef(vertex=vname[lo]),
        "A_right": PointRef(vertex=vname[hi]),
    }
    if marked_extra:
        marked.update(marked_extra)
    return Dendrite(vertices, edges, marked=marked)


def _gen_comb(depth=3) -> Dendrite:
    """Base [-1,1]; teeth of height 1/k at 1/k for k <= depth, height-1 tooth at 0."""
    depth = int(depth)
    if depth < 1:
        raise ValueError("comb depth must be >= 1")
    teeth = [(Fraction(1, k), Fraction(1, k)) for k in range(1, depth + 1)]
    teeth.append((Fraction(0), Fraction(1)))
    return _comb_like(
        (Fraction(-1), Fraction(1)),
        teeth,
        marked_extra={"origin": PointRef(vertex="b@0")},
    )


def _gen_riemann(qmax=3) -> Dendrite:
    """Base [0,1]; a tooth of height 1/q at every reduced p/q with q <= qmax."""
    qmax = int(qmax)
    if qmax < 1:
        raise ValueError("riemann qmax must be >= 1")
    teeth = []
    for q in range(1, qmax + 1):
        for p in range(0, q + 1):
            if gcd(p, q) == 1:
                teeth.append((Fraction(p, q), Fraction(1, q)))
    return _comb_like((Fraction(0), Fraction(1)), teeth)


def _cantor_gap_endpoints(rank: int):
    """Endpoints of the removed middle-third intervals up to the given rank."""
    gaps = []
    intervals = [(Fraction(0), Fraction(1))]
    for m in range(1, rank + 1):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3
            gaps.append((m, a + third, a + 2 * third))
            nxt.append((a, a + third))
            nxt.append((a + 2 * third, b))
        intervals = nxt
    return gaps


def _gen_cantor_comb(rank=2) -> Dendrite:
    rank = int(rank)
    if rank < 1:
        raise ValueError("cantor_comb rank must be >= 1")
    teeth = []
    for m, left, right in _cantor_gap_endpoints(rank):
        h = Fraction(1, m + 1)
        teeth.append((left, h))
        teeth.append((right, h))
    return _comb_like((Fraction(0), Fraction(1)), teeth)


def _gen_omega_star(arms=3, q=Fraction(1, 2)) -> Dendrite:
    """Star with arm j (1-based) of length (1-q) * q^(j-1)."""
    arms = int(arms)
    if arms < 1:
        raise ValueError("omega_star arms must be >= 1")
    q = Fraction(q)
    if not (0 < q < 1):
        raise ValueError("omega_star needs 0 < q < 1")
    lengths = [(1 - q) * q ** (j - 1) for j in range(1, arms + 1)]
    D = _gen_star(lengths)
    return D


def gehman_tree(depth: int) -> Dendrite:
    """Full binary tree; level-d edges have length 2^-d, leaves at level depth."""
    depth = int(depth)
    if depth < 1:
        raise ValueError("gehman depth must be >= 1")
    vertices = ["g"]
    edges = []
    level = ["g"]
    for d in range(1, depth + 1):
        nxt = []
        for name in level:
            for bit in "01":
                child = f"{name}{bit}" if name != "g" else f"g:{bit}"
                # stable names: root children g:0, g:1, then append bits
                vertices.append(child)
                edges.append((name, child, Fraction(1, 2**d)))
                nxt.append(child)
        level = nxt
    marked = {"root": PointRef(vertex="g")}
    return Dendrite(vertices, edges, marked=marked)


def _gen_gehman(depth=2) -> Dendrite:
    return gehman_tree(depth)


def build_counterexample(name: str, **params):
    """Assembled systems: (space, map).

    ``omega_star_gch`` / ``comb_gch`` delegate to the exact-map assembler.
    """
    from dendro import exact_builder

    if name == "omega_star_gch":
        arms = int(params.get("arms", 12))
        q = Fraction(params.get("q", Fraction(1, 2)))
        D = generate(FamilyDescriptor("omega_star", {"arms": arms, "q": q}))
        F = exact_builder.build_gch_not_eps(D, D.marked["center"])
        return D, F
    if name == "comb_gch":
        depth = int(params.get("depth", 12))
        D = generate(FamilyDescriptor("comb", {"depth": depth}))
        F = exact_builder.build_gch_not_eps(D, "A")
        return F.domain, F
    raise ValueError(f"unknown counterexample {name!r}")
