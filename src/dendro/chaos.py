"""Finite-horizon checks of the macroscopic chaos conditions over set families.

Semantics are one-sided by design: a proximality record of 0 certifies that
the two image sets met at some step (evidence for the liminf-0 condition),
while a positive record is merely inconclusive at the horizon.  Diameter
records grow with the horizon, so the uniform-sensitivity estimate
``eta_estimate`` is a lower bound for what any longer horizon would report.
Every quantity is an exact rational.

``verdict`` follows one set :class:`~dendro.tree_map.Orbit` per family
member and reads every record from those orbits; ``ly_sample`` follows one
point orbit per sampled point.  Each record reads its steps from
:func:`~dendro.tree_map.scan`, which stops once the joint state of its
orbits repeats: from there on every step repeats one already read, so the
value equals the plain horizon-N loop's.  Records still claim only "within
horizon N".
"""

from __future__ import annotations

import random
from fractions import Fraction

from dendro.metric_tree import (
    Dendrite,
    GeometryError,
    PointRef,
    Subtree,
    _balls,
    _frozen,
    _setattr,
    dist,
    full_subtree,
    make_subtree,
    span_subtree,
    subtree_diam,
    subtree_dist,
)
from dendro.serialize import format_rat
from dendro.tree_map import Orbit, require_selfmap, scan, set_orbit

INTERPRETATION_NOTE = (
    "records are finite-horizon evidence: prox_record 0 certifies the image "
    "sets met at some step; positive records are inconclusive. A generic "
    "eps-chaos certificate is supported only for eps < eta_estimate/2."
)


# ---------------------------------------------------------------------------
# set families


class SetFamily:
    """Generator spec for a family of nondegenerate test sets.

    kinds: ``balls`` (centers at vertices and edge midpoints, radii on a
    geometric grid), ``free_arcs`` (interior edge segments), ``subdendrites``
    (interior edge segments plus eight seeded random spans), ``explicit``.
    """

    def __init__(self, kind: str, radii_levels: int = 5, seed: int = 0,
                 members: tuple = ()):
        if radii_levels < 1:
            raise GeometryError("radii_levels must be >= 1")
        _setattr(self, "kind", kind)
        _setattr(self, "radii_levels", radii_levels)
        _setattr(self, "seed", seed)
        _setattr(self, "members", members)

    __setattr__ = __delattr__ = _frozen

    def generate(self, D: Dendrite) -> list[Subtree]:
        if self.kind == "balls":
            out = self._balls(D)
        elif self.kind == "free_arcs":
            out = self._free_arcs(D)
        elif self.kind == "subdendrites":
            out = self._subdendrites(D)
        elif self.kind == "explicit":
            out = list(self.members)
        else:
            raise GeometryError(f"unknown family kind {self.kind!r}")
        out = [S for S in out if not S.is_degenerate()]
        if not out:
            raise GeometryError("family generated no nondegenerate members")
        return out

    def _centers(self, D: Dendrite):
        pts = [PointRef(vertex=v) for v in D.vertices]
        for e in range(len(D.edges)):
            pts.append(D.point(e, D.edge_length(e) / 2))
        return pts

    def _balls(self, D: Dendrite):
        diam = subtree_diam(D, full_subtree(D))
        radii = [diam / 2 * Fraction(1, 2**j) for j in range(self.radii_levels)]
        return list(dict.fromkeys(
            B for c in self._centers(D) for B in _balls(D, c, radii)))

    def _free_arcs(self, D: Dendrite):
        out = []
        for e in range(len(D.edges)):
            L = D.edge_length(e)
            out.append(make_subtree(D, {e: (L / 4, 3 * L / 4)}))
        return out

    def _subdendrites(self, D: Dendrite):
        out = []
        for e in range(len(D.edges)):
            L = D.edge_length(e)
            out.append(make_subtree(D, {e: (L / 3, 2 * L / 3)}))
        rng = random.Random(self.seed)
        for _ in range(8):
            pts = [_random_point(rng, D) for _ in range(rng.randint(2, 4))]
            S = span_subtree(D, pts)
            if not S.is_degenerate():
                out.append(S)
        return out


def _random_point(rng: random.Random, D: Dendrite, den: int = 4096) -> PointRef:
    e = rng.randrange(len(D.edges))
    return D.point(e, D.edge_length(e) * Fraction(rng.randint(0, den), den))


# ---------------------------------------------------------------------------
# records


def _orbit(F, S) -> Orbit:
    if not isinstance(S, Orbit):
        return set_orbit(F, S)
    if S.f != F.image:
        raise GeometryError("set orbit belongs to another map")
    return S


def prox_record(F, S1, S2, N: int) -> Fraction:
    """min over 0 <= n <= N of the exact distance between the image sets.

    S1 and S2 are sets or their orbits under F
    (:func:`~dendro.tree_map.set_orbit`).  The scan stops early at a
    distance of 0, or once both orbits are periodic and every joint state
    has been seen.
    """
    if N < 0:
        raise GeometryError("need N >= 0")
    A, B = _orbit(F, S1), _orbit(F, S2)
    if A.at(0).is_degenerate() or B.at(0).is_degenerate():
        raise GeometryError("prox_record needs nondegenerate sets")
    best = None
    for n in scan(0, N, A, B):
        d = subtree_dist(F.domain, A.at(n), B.at(n))
        if best is None or d < best:
            best = d
        if best == 0:
            return Fraction(0)
    return best


def sens_record(F, S, N0: int, N: int) -> Fraction:
    """max over N0 <= n <= N of diam f^n(S).

    S is a set or its orbit under F (:func:`~dendro.tree_map.set_orbit`).
    The scan stops once the orbit is periodic and every step of its cycle
    from N0 on has been seen.
    """
    if not (0 <= N0 <= N):
        raise GeometryError("need 0 <= N0 <= N")
    orbit = _orbit(F, S)
    best = Fraction(0)
    for n in scan(N0, N, orbit):
        d = subtree_diam(F.domain, orbit.at(n))
        if d > best:
            best = d
    return best


class LySampleReport:
    def __init__(self, pair_count: int, horizon: int, delta: Fraction,
                 epsilon: Fraction, seed: int, scrambling_evidence: int,
                 proximal_only: int, separated_only: int, neither: int):
        self.pair_count = pair_count
        self.horizon = horizon
        self.delta = delta
        self.epsilon = epsilon
        self.seed = seed
        self.scrambling_evidence = scrambling_evidence
        self.proximal_only = proximal_only
        self.separated_only = separated_only
        self.neither = neither

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def to_dict(self):
        return {
            "pair_count": self.pair_count,
            "horizon": self.horizon,
            "delta": format_rat(self.delta),
            "epsilon": format_rat(self.epsilon),
            "seed": self.seed,
            "scrambling_evidence": self.scrambling_evidence,
            "proximal_only": self.proximal_only,
            "separated_only": self.separated_only,
            "neither": self.neither,
            "note": "one-sided finite-horizon evidence, not a decision of the "
            "asymptotic property",
        }


def ly_sample(F, pair_count: int, N: int, delta, epsilon, seed: int) -> LySampleReport:
    """Sampled point pairs classified by finite-horizon min/max orbit distance.

    A pair counts as scrambling evidence iff its distance dips to <= delta
    and also exceeds epsilon somewhere within the horizon.  Each pair's
    distances are read over :func:`~dendro.tree_map.scan` of its two point
    orbits: a repeated joint state repeats its distance.
    """
    require_selfmap(F, "point")
    if N < 0 or pair_count < 0:
        raise GeometryError("need N >= 0 and pair_count >= 0")
    delta, epsilon = Fraction(delta), Fraction(epsilon)
    if delta <= 0 or epsilon <= 0:
        raise GeometryError("delta and epsilon must be positive")
    rng = random.Random(seed)
    D = F.domain
    both = prox_only = sep_only = neither = 0
    for _ in range(pair_count):
        X = Orbit(F.apply, _random_point(rng, D))
        Y = Orbit(F.apply, _random_point(rng, D))
        steps = [dist(D, X.at(n), Y.at(n)) for n in scan(0, N, X, Y)]
        lo, hi = min(steps), max(steps)
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


# ---------------------------------------------------------------------------
# verdict


class ChaosReport:
    def __init__(self, horizon: int, sens_start: int, family_kind: str,
                 member_count: int, prox_records: list, sens_records: list,
                 eta_estimate: Fraction, prox_pass: bool, sens0_pass: bool,
                 generic_chaos_evidence: bool, note: str = INTERPRETATION_NOTE):
        self.horizon = horizon
        self.sens_start = sens_start
        self.family_kind = family_kind
        self.member_count = member_count
        self.prox_records = prox_records  # [((i, j), Fraction)]
        self.sens_records = sens_records  # [(i, Fraction)]
        self.eta_estimate = eta_estimate
        self.prox_pass = prox_pass
        self.sens0_pass = sens0_pass
        self.generic_chaos_evidence = generic_chaos_evidence
        self.note = note

    def to_dict(self):
        return {
            "horizon": self.horizon,
            "sens_start": self.sens_start,
            "tolerance": "0",  # prox passes iff every record is 0
            "family": {"kind": self.family_kind, "members": self.member_count},
            "prox_records": [
                {"pair": list(ij), "record": format_rat(r)}
                for ij, r in self.prox_records
            ],
            "sens_records": [
                {"member": i, "record": format_rat(r)} for i, r in self.sens_records
            ],
            "eta_estimate": format_rat(self.eta_estimate),
            "prox_pass": self.prox_pass,
            "sens0_pass": self.sens0_pass,
            "generic_chaos_evidence": self.generic_chaos_evidence,
            "note": self.note,
        }


def verdict(F, family: SetFamily, N: int = 100, N0: int = 1) -> ChaosReport:
    """Evaluate prox over all family pairs and sens over all members.

    Prox passes iff every pair's record is 0: each pair's images met.

    The sensitivity window starts at N0 = 1 by default so a set's initial
    diameter does not stand in for sustained sensitivity (a constant map
    must fail, the identity must pass).
    """
    members = family.generate(F.domain)
    orbits = [set_orbit(F, S) for S in members]
    prox_records = []
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            r = prox_record(F, orbits[i], orbits[j], N)
            prox_records.append(((i, j), r))
    sens_records = []
    for i, orbit in enumerate(orbits):
        sens_records.append((i, sens_record(F, orbit, N0, N)))
    eta = min(r for _, r in sens_records)
    prox_pass = all(r == 0 for _, r in prox_records)
    sens0_pass = all(r > 0 for _, r in sens_records)
    return ChaosReport(
        horizon=N,
        sens_start=N0,
        family_kind=family.kind,
        member_count=len(members),
        prox_records=prox_records,
        sens_records=sens_records,
        eta_estimate=eta,
        prox_pass=prox_pass,
        sens0_pass=sens0_pass,
        generic_chaos_evidence=prox_pass and sens0_pass,
    )
