#!/usr/bin/env python3
"""Build the base-fixing expanding map on a comb and certify piece coverage.

Shows the assigned weights, the target chain of every bush, the least
iterate at which each certification piece covers the whole space, and
whether those times were read off the piece graph (the map is Markov on its
certification pieces) or imaged step by step up to the horizon.
"""

import argparse
from fractions import Fraction

from dendro.exact_builder import build_exact, markov_graph, verify_exact
from dendro.gallery import FamilyDescriptor, generate
from dendro.serialize import parse_rat


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--q", type=parse_rat, default=Fraction(1, 2))
    ap.add_argument("--rho", type=parse_rat, default=Fraction(6, 5))
    ap.add_argument("--nmax", type=int, default=16)
    args = ap.parse_args()

    comb = generate(FamilyDescriptor("comb", {"depth": args.depth}))
    Fm = build_exact(comb, "A", q=args.q, rho=args.rho)
    print(f"comb({args.depth}): {len(Fm.parts)} bushes, q={args.q}, rho={args.rho}")
    for entry in Fm.manifest["parts"]:
        print(
            f"  bush {entry['bush']:>2} at {entry['root']:<8} weight {entry['weight']:<8}"
            f" target {entry['target']}  phi_laps {entry['phi_laps']}"
            f" nu_laps {entry['nu_laps']}"
        )
    cert = verify_exact(Fm, args.nmax)
    print(f"chains: {cert.chains}")
    bush_rows = [r for r in cert.rows if r.kind == "bush"]
    print(
        f"bush pieces: {len(bush_rows)}, all covered: "
        f"{cert.all_bush_pieces_covered}, max cover time: {cert.max_cover_time}"
    )
    if markov_graph(Fm) is None:
        print("cover times imaged step by step up to the horizon")
    else:
        print(f"cover times read off the Markov graph of all {len(cert.rows)} pieces")


if __name__ == "__main__":
    main()
