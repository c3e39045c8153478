#!/usr/bin/env python3
"""How the arrangement of points drives their regularity.

Walks the two extremes for d points in projective N-space: all of them
on one line (regularity d, the worst case) and points in general
position (regularity roughly d/N, the best case), then sweeps the
planted maximal collinear length between the extremes to show the
regularity tracking the longest secant.
"""

import argparse
import random

from zeroreg.harness import GeneratorSpec, gen_scheme
from zeroreg.normality import (
    finite_scheme_regularity,
    hilbert_function_values,
    min_normal_degree,
)
from zeroreg.scheme import invariant_t, max_collinear_length, span_dim


def describe(tag, x):
    phi = hilbert_function_values(x, min_normal_degree(x))
    print("%-28s d=%d  span=%d  t=%d  max collinear=%d" % (
        tag, x.degree, span_dim(x), invariant_t(x), max_collinear_length(x)))
    print("    phi = %s -> regularity %d" % (phi, finite_scheme_regularity(x)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--ambient", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    d, n = args.degree, args.ambient

    print("=== %d points in P^%d, three ways ===\n" % (d, n))

    collinear = gen_scheme(GeneratorSpec(n, degree=d, collinear=d, seed=args.seed))
    describe("all on one line:", collinear)
    print("    phi grows by one per degree along a line, so the last point")
    print("    is only reached in degree d - 1 = %d.\n" % (d - 1))

    general = gen_scheme(GeneratorSpec(n, degree=d, general_position=True,
                                       seed=args.seed))
    describe("general position:", general)
    k = -((1 - d) // n)
    print("    independent conditions accumulate N = %d per degree," % n)
    print("    so phi reaches d by degree ceil((d-1)/N) = %d.\n" % k)

    print("--- sweeping the longest secant from %d down to 3 ---" % d)
    rng = random.Random(args.seed)
    for c in range(d, 2, -1):
        x = gen_scheme(GeneratorSpec(n, degree=d, collinear=c,
                                     seed=rng.randrange(2**32)))
        r = finite_scheme_regularity(x)
        print("  %2d collinear -> regularity %2d  %s" % (
            c, r, "(= secant length)" if r == c else ""))
    print("\nOnce no secant dominates, the ambient dimension takes over.")


if __name__ == "__main__":
    main()
