#!/usr/bin/env python3
"""Projecting a parameterized space curve and watching its fibers.

Takes the degree-5 rational normal curve in P^5 and projects it twice.
Projected all the way to a line, every fiber has total length equal to
the curve degree — the projection is flat, and the fibers sweep out the
whole curve.  Projected to a plane from a generic center, the fibers
over image points are small: almost every point of the image curve has
a single preimage, finitely many have two, and each fiber respects the
length-plus-tangency budget that constrains generic projections.
Finishes with hyperplane sections, whose length is capped by the degree.
"""

import argparse
import random
from fractions import Fraction

from zeroreg.projection import (
    RationalCurve,
    curve_fiber,
    curve_linear_section_length,
    mather_inequality,
    plane_fiber,
    project_point,
    yk_counts,
)
from zeroreg.scheme import LinearSubspace, subspace_from_rows


def rational_normal_curve(degree):
    forms = []
    for i in range(degree + 1):
        row = [0] * (degree + 1)
        row[i] = 1
        forms.append(tuple(row))
    return RationalCurve(forms)


def random_center(rng, curve, codim):
    n = curve.ambient
    while True:
        rows = [tuple(Fraction(rng.randrange(-9, 10)) for _ in range(n + 1))
                for _ in range(codim)]
        try:
            center = LinearSubspace(n, rows)
            if codim == 2:
                curve_fiber(curve, center, (1, 0))
            else:
                plane_fiber(curve, center, (1, 0, 0))
        except ValueError:
            continue
        return center


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=5)
    ap.add_argument("--seed", type=int, default=23)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    curve = rational_normal_curve(args.degree)
    n = curve.ambient
    print("curve: %r, nondegenerate: %s" % (curve, curve.is_nondegenerate()))

    print("\n=== projection to a line ===")
    pencil = random_center(rng, curve, 2)
    flat = True
    for y in [(1, 0), (0, 1), (1, 1), (1, -2), (2, 3)]:
        f = curve_fiber(curve, pencil, y)
        flat &= f.total == curve.degree
        print("  over (%2s:%2s): total %d  rational germs %s  clusters %s" % (
            y[0], y[1], f.total,
            [g.length for g in f.germs], list(f.clusters)))
    print("  every fiber totals %d (the projection is flat): %s"
          % (curve.degree, flat))

    print("\n=== projection to a plane ===")
    center = random_center(rng, curve, 3)
    print("  sampling fibers over images of rational parameters t:")
    lengths, budget = [], True
    for t in range(-5, 6):
        y = project_point(curve.point(1, Fraction(t)), center).coords
        f = plane_fiber(curve, center, y)
        check = mather_inequality(f, 1)
        budget &= check.holds
        lengths.append(f.total)
    print("  fiber totals: %s" % lengths)
    print("  multiple-point counts (targets with length >= k): %s"
          % yk_counts(lengths))
    print("  every fiber within the budget (2*len - 1 summed <= 2): %s" % budget)

    print("\n  steering the center through a chord plants a double point:")
    p0, p1 = curve.point(1, 0), curve.point(1, 1)
    chord = tuple(a + b for a, b in zip(p0.coords, p1.coords))
    while True:
        rows = [chord] + [tuple(Fraction(rng.randrange(-9, 10))
                                for _ in range(n + 1)) for _ in range(2)]
        try:
            center = subspace_from_rows(rows, n)
            if center.dim != 2:
                continue
            f = plane_fiber(curve, center, project_point(curve.point(1, 0), center).coords)
        except ValueError:
            continue
        break
    check = mather_inequality(f, 1)
    print("  fiber over the chord image: total %d, germs at t=0 and t=1: %s" % (
        f.total, [g.length for g in f.germs]))
    print("  budget total %d <= %d: the inequality is tight at a double point"
          % (check.total, check.bound))

    print("\n=== hyperplane sections ===")
    for _ in range(3):
        h = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(n + 1))
        if all(c == 0 for c in h):
            continue
        length = curve_linear_section_length(curve, LinearSubspace(n, [h]))
        print("  section length %d  (cap: curve degree %d)"
              % (length, curve.degree))


if __name__ == "__main__":
    main()
