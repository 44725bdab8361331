#!/usr/bin/env python3
"""Run the potential decider over a family of pseudorandom builds.

Constructs guard-passing instances that share one multiplier pair (C, D),
decides each at the requested order, and prints a per-seed table with the
verdict, the failing degree (when refuted), certificate status, and timing.
With --stages the staged elimination summary of the first run is appended.

Example
-------
    python3 scripts/refutation_family.py --degree 18 --truncation 22 \
        --cx 1 --count 20
"""

import argparse
import itertools
import time
from fractions import Fraction

from acforms import (Instance, affine_series, decide, guarded_builds, obstruction,
                     staged_report, verify_farkas)


def describe(c0: Fraction, cx: Fraction, cy: Fraction) -> str:
    pieces = [str(c0) if c0 else "", f"{cx}*x" if cx else "", f"{cy}*y" if cy else ""]
    return " + ".join(p for p in pieces if p) or "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=18,
                        help="leading degree d of the built forms (default 18)")
    parser.add_argument("--truncation", type=int, default=22,
                        help="truncation order N of the built forms (default 22)")
    parser.add_argument("--order", type=int, default=None,
                        help="decision order M (default N-1)")
    parser.add_argument("--count", type=int, default=20,
                        help="guard-passing instances to run (default 20)")
    parser.add_argument("--start-seed", type=int, default=1)
    parser.add_argument("--coeff-bound", type=int, default=10)
    for flag in ("c0", "cx", "cy", "d0", "dx", "dy"):
        parser.add_argument(f"--{flag}", type=Fraction, default=Fraction(0),
                            help=f"multiplier coefficient {flag} (rational)")
    parser.add_argument("--stages", action="store_true",
                        help="print the staged elimination report of the first run")
    args = parser.parse_args(argv)

    order = args.order if args.order is not None else args.truncation - 1
    trunc = max(2, args.truncation - 1 - args.degree)
    c = affine_series(args.c0, args.cx, args.cy, trunc)
    d_series = affine_series(args.d0, args.dx, args.dy, trunc)

    print(f"C = {describe(args.c0, args.cx, args.cy)}, "
          f"D = {describe(args.d0, args.dx, args.dy)}")
    print(f"linear-trace invariant of (C, D): {obstruction(c, d_series)}")
    print(f"degree {args.degree}, truncation {args.truncation}, "
          f"decision order {order}")
    print()
    print(f"{'seed':>6}  {'verdict':<16} {'fail@':>5}  {'certificate':<12} {'time':>7}")

    tally: dict[str, int] = {}
    rejected = 0
    first_outcome = None
    first = Instance(d=args.degree, N=args.truncation, C=c, D=d_series, seed=args.start_seed,
                     coeff_bound=args.coeff_bound)
    for found, (instance, sigma, guard) in enumerate(
            itertools.islice(guarded_builds(first), max(args.count, 0)), start=1):
        rejected = instance.seed - args.start_seed + 1 - found
        start = time.monotonic()
        outcome = decide(sigma, order, guard)
        elapsed = time.monotonic() - start
        if first_outcome is None:
            first_outcome = outcome
        tally[outcome.verdict] = tally.get(outcome.verdict, 0) + 1
        fail_at = outcome.failing_degree if outcome.failing_degree is not None else ""
        cert = ""
        if outcome.certificate is not None:
            cert = ("verified" if verify_farkas(outcome.failing_system,
                                                outcome.certificate)
                    else "INVALID")
        print(f"{instance.seed:>6}  {outcome.verdict:<16} {fail_at:>5}  {cert:<12} "
              f"{elapsed:6.2f}s")

    print()
    print(f"verdicts: {tally}   (guard rejected {rejected} seeds)")
    if args.stages and first_outcome is not None:
        print()
        print(staged_report(first_outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
