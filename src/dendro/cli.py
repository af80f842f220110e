"""dendro: generate spaces, build maps, run finite-horizon chaos experiments.

Exit codes: 0 success, 1 malformed input or construction failure, 2 for a
verdict that is inconclusive at the horizon (evidence absent, not refuted).
All emitted files carry rationals as exact "p/q" strings; identical inputs
and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from dendro import chaos, exact_builder, gallery, odometer
from dendro.metric_tree import Dendrite, GeometryError
from dendro.length_expanding import BuildError
from dendro.serialize import dump_json, from_dict_checked, load_json, parse_rat

PATTERN_DEPTH_CAP = 8

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def default_seed() -> int:
    return int(os.environ.get("DENDRO_SEED", "0"))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; code 2 stays reserved for inconclusive verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, BuildError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dendro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dendrite descriptor file")
    g.add_argument("family", choices=sorted(gallery.FAMILIES))
    g.add_argument("--depth", type=int, help="comb teeth / gehman depth")
    g.add_argument("--qmax", type=int, help="riemann denominator bound")
    g.add_argument("--rank", type=int, help="cantor_comb gap rank")
    g.add_argument("--arms", type=int, help="omega_star arm count")
    g.add_argument("--q", type=parse_rat, help="omega_star weight ratio")
    g.add_argument("--length", type=parse_rat, help="arc length")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="assemble a counterexample map file")
    b.add_argument("name", choices=["omega_star_gch"])
    b.add_argument("--arms", type=int, default=12)
    b.add_argument("--q", type=parse_rat, default=Fraction(1, 2))
    b.add_argument("-o", "--out", required=True)
    b.set_defaults(func=cmd_build)

    r = sub.add_parser("run", help="run an experiment scenario")
    r.add_argument("--scenario", required=True,
                   choices=["odometer-diam", "gch-verdict", "exactness"])
    # the defaults are in _RUN_OPTIONS
    r.add_argument("--alpha", help="odometer start address")
    r.add_argument("--steps", type=int)
    r.add_argument("--map", help="map descriptor file")
    r.add_argument("--family", choices=["balls", "free_arcs", "subdendrites"])
    r.add_argument("--N", type=int)
    r.add_argument("--N0", type=int)
    r.add_argument("--radii-levels", type=int)
    r.add_argument("--map-out", help="also write the built map descriptor")
    r.add_argument("--dendrite", help="dendrite descriptor file")
    r.add_argument("--arc", help="marked arc name prefix (e.g. A)")
    r.add_argument("--q", type=parse_rat)
    r.add_argument("--rho", type=parse_rat)
    r.add_argument("--nmax", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("export-pattern", help="rectangle corners of the planar stages")
    e.add_argument("--depth", type=int, required=True)
    e.add_argument("-o", "--out", required=True)
    e.set_defaults(func=cmd_export_pattern)

    ga = sub.add_parser("gallery", help="inspect the space gallery")
    ga.add_argument("action", choices=["list"])
    ga.set_defaults(func=cmd_gallery)
    return p


# the gen options each family reads; any other one is refused
_GEN_OPTIONS = {"comb": ("depth",), "gehman": ("depth",), "riemann": ("qmax",),
                "cantor_comb": ("rank",), "omega_star": ("arms", "q"), "star": (),
                "arc": ("length",)}


def _gen_params(args) -> dict:
    reads = _GEN_OPTIONS[args.family]
    for key in ("depth", "qmax", "rank", "arms", "q", "length"):
        if key not in reads and getattr(args, key) is not None:
            raise ValueError(f"gen {args.family} does not read --{key}")
    return {key: getattr(args, key) for key in reads
            if getattr(args, key) is not None}


# the run options each scenario reads, with their defaults; any other one is
# refused
_RUN_OPTIONS = {
    "odometer-diam": {"alpha": "1^inf", "steps": 3**7},
    "gch-verdict": {"map": None, "family": "balls", "N": 100, "N0": 1,
                    "radii-levels": 5, "seed": None},
    "exactness": {"dendrite": None, "arc": None, "q": Fraction(1, 2),
                  "rho": Fraction(6, 5), "nmax": 64, "map-out": None, "seed": None},
}


def _run_options(args) -> None:
    """Refuse a run option the scenario does not read, and give each one it
    reads but was not given its default."""
    reads = _RUN_OPTIONS[args.scenario]
    for key in dict.fromkeys(k for opts in _RUN_OPTIONS.values() for k in opts):
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(key))
        elif key not in reads:
            raise ValueError(f"run {args.scenario} does not read --{key}")


def cmd_gen(args) -> int:
    desc = gallery.FamilyDescriptor(args.family, _gen_params(args))
    D = gallery.generate(desc)
    cls = gallery.classify(desc)
    d = D.to_dict()
    d.setdefault("descriptor", {})["ideal_properties"] = {
        "completely_regular": cls.completely_regular,
        "all_orders_finite": cls.all_orders_finite,
        "in_theorem_class": cls.in_theorem_class,
    }
    dump_json(d, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_build(args) -> int:
    D, Fm = gallery.build_counterexample(
        args.name, arms=args.arms, q=args.q
    )
    dump_json(Fm.to_dict(), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    _run_options(args)
    seed = args.seed if args.seed is not None else default_seed()
    if args.scenario == "odometer-diam":
        alpha = odometer.Address.parse(args.alpha)
        rows = odometer.write_traj_csv(args.out, alpha, args.steps)
        print(f"wrote {args.out} ({rows} rows)")
        return EXIT_OK
    if args.scenario == "gch-verdict":
        if not args.map:
            raise ValueError("gch-verdict needs --map")
        Fm = load_map(args.map)
        fam = chaos.SetFamily(
            args.family, radii_levels=args.radii_levels, seed=seed
        )
        report = chaos.verdict(Fm, fam, N=args.N, N0=args.N0)
        dump_json(report.to_dict(), args.out)
        print(
            f"wrote {args.out} (prox_pass={report.prox_pass}, "
            f"sens0_pass={report.sens0_pass})"
        )
        return EXIT_OK if report.generic_chaos_evidence else EXIT_INCONCLUSIVE
    if args.scenario == "exactness":
        if not (args.dendrite and args.arc):
            raise ValueError("exactness needs --dendrite and --arc")
        D = from_dict_checked(Dendrite.from_dict, load_json(args.dendrite),
                              "dendrite")
        Fm = exact_builder.build_exact(D, args.arc, q=args.q, rho=args.rho,
                                       seed=seed)
        cert = exact_builder.verify_exact(Fm, args.nmax)
        payload = {
            "manifest": Fm.manifest,
            "certificate": cert.to_dict(),
        }
        dump_json(payload, args.out)
        if args.map_out:
            dump_json(Fm.to_dict(), args.map_out)
        print(
            f"wrote {args.out} (covered={cert.all_bush_pieces_covered}, "
            f"chain_ok={cert.chain_ok})"
        )
        ok = cert.all_bush_pieces_covered and cert.chain_ok
        return EXIT_OK if ok else EXIT_INCONCLUSIVE
    raise ValueError(f"unknown scenario {args.scenario}")


def cmd_export_pattern(args) -> int:
    if args.depth > PATTERN_DEPTH_CAP:
        raise ValueError(f"depth exceeds the cap {PATTERN_DEPTH_CAP}")
    count = odometer.write_pattern_csv(args.out, args.depth)
    print(f"wrote {args.out} ({count} rectangles)")
    return EXIT_OK


def cmd_gallery(args) -> int:
    for name in sorted(gallery.FAMILIES):
        cls = gallery.classify(gallery.FamilyDescriptor(name, {}))
        flags = []
        flags.append("completely_regular" if cls.completely_regular else "-")
        flags.append("all_orders_finite" if cls.all_orders_finite else "-")
        print(f"{name:12s} {' '.join(flags)}")
    return EXIT_OK


def load_map(path: str):
    return exact_builder.map_from_dict(load_json(path))


if __name__ == "__main__":
    sys.exit(main())
