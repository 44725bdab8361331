#!/usr/bin/env python3
"""Profile coefficient growth of a bounded-mode build against its bound.

Builds one instance in bounded mode (affine-linear multipliers), then prints
per-order component norms next to the guaranteed ceiling
4*magnitude*running(k-1) for the first component and twice that for the
second, where running(k-1) is the largest component norm in the previous two
degrees.  Ends with the derived geometric growth rate and the radius on
which the coefficient series is summable.

Example
-------
    python3 scripts/growth_profile.py --orders 60 --c0 1 --cx 1
"""

import argparse
from fractions import Fraction

from acforms import Instance, affine_series, build, convergence_bound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=2,
                        help="leading degree d (default 2)")
    parser.add_argument("--orders", type=int, default=60,
                        help="degrees to build past the leading one (default 60)")
    parser.add_argument("--seed", type=int, default=7)
    for flag in ("c0", "cx", "cy", "d0", "dx", "dy"):
        parser.add_argument(f"--{flag}", type=Fraction, default=Fraction(0),
                            help=f"multiplier coefficient {flag} (rational)")
    parser.add_argument("--every", type=int, default=1,
                        help="print every k-th order only (default 1)")
    args = parser.parse_args(argv)
    if args.every < 1:
        parser.error(f"--every must be at least 1, got {args.every}")

    N = args.degree + args.orders + 1
    trunc = max(2, N - 1 - args.degree)
    c = affine_series(args.c0, args.cx, args.cy, trunc)
    d_series = affine_series(args.d0, args.dx, args.dy, trunc)

    magnitude, growth, radius = convergence_bound(c, d_series)
    _, log = build(Instance(d=args.degree, N=N, C=c, D=d_series,
                            seed=args.seed, mode="bounded"))

    print(f"{'k':>4}  {'|A_k|':>14} {'|B_k|':>14} {'ceiling |A|':>14} "
          f"{'ceiling |B|':>14}  ok")
    worst_ratio = Fraction(0)
    for k in range(args.degree + 1, N):
        prev = log[k - 1]["running"]
        cap_a, cap_b = 4 * magnitude * prev, 8 * magnitude * prev
        na, nb = log[k]["A"], log[k]["B"]
        ok = na <= cap_a and nb <= cap_b
        if prev:
            worst_ratio = max(worst_ratio, na / prev, nb / prev)
        if (k - args.degree) % args.every == 0 or not ok:
            print(f"{k:>4}  {float(na):>14.6g} {float(nb):>14.6g} "
                  f"{float(cap_a):>14.6g} {float(cap_b):>14.6g}  "
                  f"{'yes' if ok else 'NO'}")
        assert ok, f"growth bound violated at order {k}"

    print()
    print(f"multiplier magnitude: {magnitude}")
    print(f"guaranteed per-order growth factor: {growth}")
    print(f"observed worst one-step ratio: {worst_ratio} "
          f"(~{float(worst_ratio):.3f})")
    print(f"coefficient series summable for |x|, |y| < {radius}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
