#!/usr/bin/env python3
"""Micro-benchmark of `CycNum` multiplication and inversion.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/bench_exactnum.py --seed N

For each conductor in 1, 8, 24, 32 and 48 the seed draws VALUES elements of
Q(zeta_N) whose power-basis coefficients are small fractions (numerator in
-9..9, denominator in 1..4; at conductor 1 every value is rational).  A round
multiplies every value by the next one, or inverts every value, and the time
per operation is the round's time over VALUES.  One line per op and
conductor gives the median over ROUNDS rounds in microseconds.  The script
uses only the public `CycNum` interface, so it runs unchanged on any
revision.
"""

import argparse
import platform
import random
import statistics
import sys
import time
from fractions import Fraction

from fuscat.exactnum import CycNum, euler_phi

CONDUCTORS = (1, 8, 24, 32, 48)
VALUES = 8
ROUNDS = 11


def draw_values(rng, n):
    values = []
    while len(values) < VALUES:
        a = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(euler_phi(n))])
        if not a.is_zero():
            values.append(a)
    return values


def median_us(op, values):
    pairs = list(zip(values, values[1:] + values[:1]))
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        if op == "mul":
            for a, b in pairs:
                a * b
        else:
            for a, _b in pairs:
                a.inverse()
        times.append((time.perf_counter() - start) / len(pairs))
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    print(f"# seed={args.seed} rounds={ROUNDS} values={VALUES} "
          f"python={platform.python_version()}")
    for n in CONDUCTORS:
        values = draw_values(rng, n)
        for op in ("mul", "inverse"):
            print(f"op={op} conductor={n} phi={euler_phi(n)} "
                  f"median_us={median_us(op, values):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
