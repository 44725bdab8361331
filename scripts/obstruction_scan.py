#!/usr/bin/env python3
"""Scan multiplier linear parts and compare the scalar invariant with the
decider's forced values.

For each (s, t) on an integer grid, sets C = c0 + s*x, D = d0 + t*y, builds
one guard-passing instance, and runs the two-stage consistency check on the
degree-2 unknown block: the invariant vanishes exactly when the two
overlapping forced values of the block functional agree.  The table shows
the raw and shifted invariants, the predictions, the measured forced
values, and the consistency flag.

At low degrees the prefix systems leave the functional free (shown as "-");
the forced-value columns populate once the degree is large enough for the
staged rank conditions, e.g. --degree 18.

Example
-------
    python3 scripts/obstruction_scan.py --degree 18 --radius 1 --c0 2 --d0 3
"""

import argparse
from fractions import Fraction

from acforms import Instance, affine_series, guarded_builds, obstruction_pair_check


def fmt(value) -> str:
    return str(value) if value is not None else "-"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=6)
    parser.add_argument("--radius", type=int, default=2,
                        help="scan s, t in [-radius, radius] (default 2)")
    parser.add_argument("--c0", type=Fraction, default=Fraction(0))
    parser.add_argument("--d0", type=Fraction, default=Fraction(0))
    parser.add_argument("--start-seed", type=int, default=1)
    args = parser.parse_args(argv)

    d = args.degree
    N = d + 4    # deep enough for the two-stage check
    trunc = max(2, N - 1 - d)

    print(f"degree {d}, C = {args.c0} + s*x, D = {args.d0} + t*y")
    print(f"{'s':>3} {'t':>3} {'seed':>5}  {'invariant':>9} {'shifted':>9} "
          f"{'predict1':>9} {'predict2':>9} {'forced1':>9} {'forced2':>9}  consistent")

    mismatches = 0
    for s in range(-args.radius, args.radius + 1):
        for t in range(-args.radius, args.radius + 1):
            c = affine_series(args.c0, Fraction(s), Fraction(0), trunc)
            d_series = affine_series(args.d0, Fraction(0), Fraction(t), trunc)
            instance, sigma, _ = next(guarded_builds(
                Instance(d=d, N=N, C=c, D=d_series, seed=args.start_seed)))
            report = obstruction_pair_check(sigma, c, d_series)
            forced = [report[key].get("value") for key in ("first", "second")]
            expected = (report["obstruction"] == 0) if forced[0] is not None else None
            flag = report["consistent"]
            if expected is not None and flag != expected:
                mismatches += 1
            print(f"{s:>3} {t:>3} {instance.seed:>5}  {fmt(report['obstruction']):>9} "
                  f"{fmt(report['tilde_obstruction']):>9} {fmt(report['predicted_first']):>9} "
                  f"{fmt(report['predicted_second']):>9} {fmt(forced[0]):>9} "
                  f"{fmt(forced[1]):>9}  {flag}")

    print()
    if mismatches:
        print(f"WARNING: {mismatches} grid points disagree with the "
              "vanishing-invariant prediction")
        return 1
    print("every grid point matches the vanishing-invariant prediction")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
