"""The benchmark's workloads: inputs made from a seed, job lists, certified values.

A workload is a ``setup`` that builds the inputs from a seed and a list of
jobs.  Each job takes the context ``setup`` returned and gives back the exact
values it certifies, as a dict of strings, ints and bools.  Long record lists
are folded into a SHA-256 digest of their canonical text, so the reference
file stays small while the comparison stays exact.  Only certified values are
compared, never report bytes, so a report that later gains a field still
passes.

The program is reached through module attributes (``chaos.verdict``, not a
name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from dendro import (
    chaos,
    cli,
    exact_builder,
    gallery,
    length_expanding,
    metric_tree,
    odometer,
    serialize,
)

# The workload seed selects one of this many input sets; the reference file
# holds the certified values of every one of them.
INPUT_SETS = 16

# Job sizes.  Changing any of them changes the certified values, so the
# reference file must be recorded again (see record_refs.py).
VERDICT_JOBS = (
    # (job name, map key, family kind, radii levels, horizon N)
    ("verdict-balls", "omega12", "balls", 3, 10),
    ("verdict-subdendrites", "omega12", "subdendrites", 5, 100),
    ("verdict-free_arcs", "comb_gch8", "free_arcs", 5, 8),
)
EXACT_COMB_DEPTHS = (8, 12, 16)
GCH_COMB_DEPTHS = (8, 12)
RHO = Fraction(6, 5)
PAIR_SAMPLES = 120
PAIR_CHECK_SAMPLES = 500
ODOMETER_PAIRS = 50
ODOMETER_STEPS = 1000
ODOMETER_SPAN = 3**6
TRAJ_STEPS = 3**9
GEHMAN_DEPTH = 10
LY_PAIRS = 30
LY_STEPS = 100
LY_DELTA = Fraction(1, 1000)
LY_EPSILON = Fraction(1, 2)


class Job(NamedTuple):
    name: str
    run: Callable[[dict], dict]
    # Values every correct program certifies, whatever the seed; None when
    # they come from the recorded reference file instead.
    expect: Optional[dict] = None


class Workload(NamedTuple):
    name: str
    setup: Callable[[int, str], dict]
    jobs: list


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _rat(x) -> str:
    return str(Fraction(x))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _canon(S) -> str:
    ivs = ",".join(
        f"{e}:{_rat(a)}:{_rat(b)}" for e, (a, b) in sorted(S.intervals.items())
    )
    return f"{sorted(S.vertices)}|{ivs}"


# ---------------------------------------------------------------------------
# chaos-verdict: set-orbit reads on small trees


def _setup_chaos(seed: int, workdir: str) -> dict:
    rng = random.Random(f"chaos-verdict:{input_set(seed)}")
    _, omega12 = gallery.build_counterexample("omega_star_gch", arms=12)
    _, comb_gch8 = gallery.build_counterexample("comb_gch", depth=8)
    return {
        "maps": {"omega12": omega12, "comb_gch8": comb_gch8},
        "family_seed": rng.randrange(2**31),
    }


def _verdict_job(name, map_key, kind, radii_levels, N):
    def job(ctx):
        family = chaos.SetFamily(
            kind, radii_levels=radii_levels, seed=ctx["family_seed"]
        )
        rep = chaos.verdict(ctx["maps"][map_key], family, N=N)
        return {
            "members": rep.member_count,
            "prox_records": _digest(
                f"{i},{j}:{_rat(r)}" for (i, j), r in rep.prox_records
            ),
            "sens_records": _digest(f"{i}:{_rat(r)}" for i, r in rep.sens_records),
            "eta_estimate": _rat(rep.eta_estimate),
            "prox_pass": rep.prox_pass,
            "sens0_pass": rep.sens0_pass,
        }

    return Job(name, job)


# ---------------------------------------------------------------------------
# build-comb: map construction and the map file format


def _setup_build(seed: int, workdir: str) -> dict:
    rng = random.Random(f"build-comb:{input_set(seed)}")
    depths = sorted(set(EXACT_COMB_DEPTHS) | set(GCH_COMB_DEPTHS))
    return {
        "workdir": workdir,
        "combs": {
            d: gallery.generate(gallery.FamilyDescriptor("comb", {"depth": d}))
            for d in depths
        },
        "arc": gallery.generate(gallery.FamilyDescriptor("arc", {})),
        "star3": gallery.generate(gallery.FamilyDescriptor("star", {})),
        "build_seed": rng.randrange(2**31),
        "pair_seed": rng.randrange(2**31),
        "check_seeds": (rng.randrange(2**31), rng.randrange(2**31)),
        "maps": {},
    }


def _exact_job(depth):
    def job(ctx):
        Fm = exact_builder.build_exact(
            ctx["combs"][depth], "A", q=Fraction(1, 2), rho=RHO,
            seed=ctx["build_seed"],
        )
        ctx["maps"][f"comb{depth}"] = Fm
        cert = exact_builder.verify_exact(Fm, len(Fm.parts) + 1)
        return {
            "bushes": len(Fm.parts),
            "n_max": cert.n_max,
            "cover_rows": _digest(
                f"{r.edge}:{_rat(r.lo)}:{_rat(r.hi)}:{r.kind}:{r.covered_at}"
                for r in cert.rows
            ),
            "max_cover_time": cert.max_cover_time,
            "all_bush_pieces_covered": cert.all_bush_pieces_covered,
            "chain_ok": cert.chain_ok,
            "chains": {str(k): list(v) for k, v in sorted(cert.chains.items())},
        }

    return Job(f"exact-comb{depth}", job)


def _gch_job(depth):
    def job(ctx):
        _, Fm = gallery.build_counterexample("comb_gch", depth=depth)
        ctx["maps"][f"comb_gch{depth}"] = Fm
        pieces = Fm.manifest["pieces"]
        return {
            "pieces": _digest(
                f"{p['piece']}:{p['bush_roots']}:{p['arc_radius']}:"
                f"{p['region_measure']}"
                for p in pieces
            ),
            "piece_count": len(pieces),
            "vertices": len(Fm.domain.vertices),
        }

    return Job(f"gch-comb{depth}", job)


def _round_trip_job(key):
    """Save a built map, load it back, and certify it equals the original.

    Equal means the reloaded map serializes to the same bytes and gives the
    same image of the middle half of every edge.  Every correct program
    certifies ``equal``, so the expectation is fixed rather than recorded.
    """

    def job(ctx):
        Fm = ctx["maps"][key]
        path = os.path.join(ctx["workdir"], f"{key}.json")
        serialize.dump_json(Fm.to_dict(), path)
        loaded = cli.load_map(path)
        with open(path) as fh:
            same_bytes = serialize.dumps_json(loaded.to_dict()) == fh.read()
        D = Fm.domain
        probes = (
            metric_tree.make_subtree(D, {e: (L / 4, 3 * L / 4)})
            for e, L in ((e, D.edge_length(e)) for e in range(len(D.edges)))
        )
        same_images = all(Fm.image(S) == loaded.image(S) for S in probes)
        return {"equal": same_bytes and same_images}

    return Job(f"roundtrip-{key}", job, expect={"equal": True})


def _pair_job(space_key, base):
    def job(ctx):
        built = length_expanding.build_pair(
            ctx[space_key], metric_tree.PointRef(vertex=base), RHO,
            samples=PAIR_SAMPLES, seed=ctx["pair_seed"],
        )
        s_phi, s_psi = ctx["check_seeds"]
        w_phi = length_expanding.check_length_expanding(
            built.phi, length_expanding.DenseFamily("all_closed_intervals"),
            RHO, samples=PAIR_CHECK_SAMPLES, seed=s_phi,
        )
        w_psi = length_expanding.check_length_expanding(
            built.psi,
            length_expanding.DenseFamily("phi_images", through=built.phi),
            RHO, samples=PAIR_CHECK_SAMPLES, seed=s_psi,
        )
        return {
            "laps": built.laps,
            "retries": built.retries,
            "phi_witness": None if w_phi is None else _canon(w_phi.set_),
            "psi_witness": None if w_psi is None else _canon(w_psi.set_),
        }

    return Job(f"pair-{space_key}", job)


# ---------------------------------------------------------------------------
# odometer-gehman: point orbits


def _setup_odometer(seed: int, workdir: str) -> dict:
    rng = random.Random(f"odometer-gehman:{input_set(seed)}")
    pairs = []
    while len(pairs) < ODOMETER_PAIRS:
        i, j = rng.randint(0, ODOMETER_SPAN), rng.randint(0, ODOMETER_SPAN)
        if i != j and _v3(i - j) <= 5:
            pairs.append((i, j))
    return {
        "workdir": workdir,
        "pairs": pairs,
        "ly_seed": rng.randrange(2**31),
    }


def _v3(n: int) -> int:
    """3-adic valuation: the first digit where 1^inf + i and 1^inf + j differ."""
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def _cross_fiber_job(ctx):
    """Criterion 4: the horizontal gap of two orbits stays >= 5^-(v+1).

    Certifies the smallest gap over all steps, scaled by 5^(v+1) per pair.
    """
    ones = odometer.Address.ones()
    worst = None
    for i, j in ctx["pairs"]:
        scale = 5 ** (_v3(i - j) + 1)
        a, b = odometer.add(ones, i), odometer.add(ones, j)
        for _ in range(ODOMETER_STEPS + 1):
            gap = abs(odometer.embed_x(a) - odometer.embed_x(b)) * scale
            if worst is None or gap < worst:
                worst = gap
            a, b = odometer.add(a, 1), odometer.add(b, 1)
    return {"min_scaled_gap": _rat(worst), "distal": worst >= 1}


def _traj_job(ctx):
    path = os.path.join(ctx["workdir"], "traj.csv")
    rows = odometer.write_traj_csv(path, odometer.Address.parse("1^inf"), TRAJ_STEPS)
    with open(path, "rb") as fh:
        data = fh.read()
    return {"rows": rows, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def _gehman_job(ctx):
    D, Fg = odometer.gehman_extend(GEHMAN_DEPTH)
    rep = chaos.ly_sample(
        Fg, LY_PAIRS, LY_STEPS, LY_DELTA, LY_EPSILON, seed=ctx["ly_seed"]
    )
    return {
        "vertices": len(D.vertices),
        "scrambling_evidence": rep.scrambling_evidence,
        "proximal_only": rep.proximal_only,
        "separated_only": rep.separated_only,
        "neither": rep.neither,
    }


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chaos-verdict",
            _setup_chaos,
            [_verdict_job(*spec) for spec in VERDICT_JOBS],
        ),
        Workload(
            "build-comb",
            _setup_build,
            [
                job
                for d in EXACT_COMB_DEPTHS
                for job in (_exact_job(d), _round_trip_job(f"comb{d}"))
            ]
            + [
                job
                for d in GCH_COMB_DEPTHS
                for job in (_gch_job(d), _round_trip_job(f"comb_gch{d}"))
            ]
            + [_pair_job("arc", "0"), _pair_job("star3", "e1")],
        ),
        Workload(
            "odometer-gehman",
            _setup_odometer,
            [
                Job("cross-fiber", _cross_fiber_job),
                Job("traj-csv", _traj_job),
                Job("gehman-ly", _gehman_job),
            ],
        ),
    )
}
