#!/usr/bin/env python3
"""Micro-benchmark of `CycNum` construction, multiplication and inversion.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/bench_exactnum.py --seed N

For each conductor in 1, 8, 24, 32 and 48 the seed draws VALUES elements of
Q(zeta_N) whose power-basis coefficients are small fractions (numerator in
-9..9, denominator in 1..4; at conductor 1 every value is rational).  A round
multiplies every value by the next one, or inverts every value, and the time
per operation is the round's time over VALUES.  The two construction ops
build every value again REPEATS times per round from its numerators and
denominator, each doubled so that the normalizer divides by a gcd of at
least 2: `from_ints` calls `CycNum._from_ints(n, nums, den)` (irrational
values wherever phi(N) > 1, unless every coefficient past the first was
drawn zero), and `rational` calls `CycNum._rational(n, num, den)` on the
first numerator.  One line per op and conductor gives the
median over ROUNDS rounds in microseconds.  Multiplication and inversion go
through the public interface only; the construction ops call the two
normalizers, whose signatures are as above on every revision that has them.
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
OPS = ("mul", "inverse", "from_ints", "rational")
VALUES = 8
ROUNDS = 11
REPEATS = 200


def draw_values(rng, n):
    values = []
    while len(values) < VALUES:
        a = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(euler_phi(n))])
        if not a.is_zero():
            values.append(a)
    return values


def run_round(op, values, pairs, forms):
    if op == "mul":
        for a, b in pairs:
            a * b
    elif op == "inverse":
        for a in values:
            a.inverse()
    elif op == "from_ints":
        from_ints = CycNum._from_ints
        for _ in range(REPEATS):
            for n, nums, den in forms:
                from_ints(n, nums, den)
    else:
        rational = CycNum._rational
        for _ in range(REPEATS):
            for n, nums, den in forms:
                rational(n, nums[0], den)


def median_us(op, values):
    pairs = list(zip(values, values[1:] + values[:1]))
    forms = [(a.conductor, [2 * x for x in a._nums], 2 * a._den)
             for a in values]
    per_round = len(values) * (1 if op in ("mul", "inverse") else REPEATS)
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run_round(op, values, pairs, forms)
        times.append((time.perf_counter() - start) / per_round)
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    print(f"# seed={args.seed} rounds={ROUNDS} values={VALUES} "
          f"repeats={REPEATS} python={platform.python_version()}")
    for n in CONDUCTORS:
        values = draw_values(rng, n)
        for op in OPS:
            print(f"op={op} conductor={n} phi={euler_phi(n)} "
                  f"median_us={median_us(op, values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
