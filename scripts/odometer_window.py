#!/usr/bin/env python3
"""Fiber-diameter window statistics for the 3-adic skew product.

Prints the exact max/min of diam H^n(K) over 1 <= n <= 3^7 starting from the
all-ones address, the attainment times of the maximum, and optionally writes
the full trajectory CSV.
"""

import argparse

from dendro.odometer import Address, add, ell, fiber_diam_traj, write_traj_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="1^inf")
    ap.add_argument("--steps", type=int, default=3**7)
    ap.add_argument("--csv", help="optional trajectory CSV path")
    args = ap.parse_args()
    if args.steps < 1:
        ap.error(f"--steps must be >= 1, got {args.steps}")

    alpha = Address.parse(args.alpha)
    traj = fiber_diam_traj(alpha, args.steps)
    window = traj[1:]
    mx, mn = max(window), min(window)
    peaks = [n for n in range(1, args.steps + 1) if traj[n] == mx]
    print(f"start address: {alpha}")
    print(f"window 1..{args.steps}: max diam = {mx}, min diam = {mn}")
    print(f"max attained {len(peaks)} times; first at n = {peaks[0]}")
    deepest = max(range(1, args.steps + 1), key=lambda n: ell(add(alpha, n)))
    print(f"deepest address at n = {deepest}: {add(alpha, deepest)}")
    if args.csv:
        rows = write_traj_csv(args.csv, alpha, args.steps)
        print(f"wrote {args.csv} ({rows} rows)")


if __name__ == "__main__":
    main()
