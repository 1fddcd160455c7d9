#!/usr/bin/env python3
"""Scan circle samples across scales and tabulate betti numbers.

For each sample size n the script builds the chord metric on n evenly
spaced points of the unit circle and reports betti numbers of the limit
homology at each scale. The (1, 1) cells mark the window where the
sample looks like the circle it came from; below it the sample falls
apart into points, above it the complex fills in and kills the loop.
Bad arguments print one error line and exit with status 2.
"""

import argparse
import math
import sys
from fractions import Fraction

from vrips import SemiPseudometric, limit_homology, scale_base
from vrips.documents import scale_range
from vrips.relations import closing_offset, space_of_size


def chord_metric(n: int, digits: int = 8) -> SemiPseudometric:
    """Pairwise chord lengths, rounded to exact decimal fractions."""
    def chord(i: int, j: int) -> Fraction:
        angle = math.pi * abs(i - j) / n
        return Fraction(str(round(2 * math.sin(angle), digits)))

    rows = tuple(
        tuple(chord(i, j) if i != j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return SemiPseudometric(space_of_size(n), rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, nargs="+", default=[8, 12, 16, 20])
    ap.add_argument("--scales", default="1/10:6/5:1/10",
                    help="inclusive range LO:HI:STEP, exact (default 1/10:6/5:1/10)")
    ap.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    args = ap.parse_args(argv)

    try:
        if args.max_dim < 1:
            raise ValueError("--max-dim must be at least 1")
        metrics = {n: chord_metric(n) for n in args.points}
        scales = scale_range(args.scales)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = ["scale"] + [f"n={n}" for n in args.points]
    print("\t".join(header))
    for q in scales:
        cells = [str(q)]
        for n in args.points:
            d = metrics[n]
            base = scale_base(d, q, [closing_offset(d, q)])
            betti = limit_homology(base, max_dim=args.max_dim).result.betti
            cells.append(",".join(str(b) for b in betti[: args.max_dim]))
        print("\t".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
