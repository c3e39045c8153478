#!/usr/bin/env python3
"""A census of the plane fibers a generic projection can produce.

Fibers of a generic projection onto a plane are finite schemes subject
to a sharp budget: over a source of dimension n, the local lengths and
tangency defects must sum to at most n + 1.  For n = 5 and n = 6 that
budget admits a short list of fiber shapes.  This script generates one
random instance of each shape, classifies it, and confirms that the
predicted normality degree is exact and that the associated form family
separates the fiber there.
"""

import argparse
import random

from zeroreg.exactalg import QQ
from zeroreg.harness import _FIBER_TYPES, _gen_fiber_instance
from zeroreg.normality import min_normal_degree
from zeroreg.projection import classify_fiber, recipe_for_fiber
from zeroreg.scheme import max_collinear_length, span_dim
from zeroreg.separation import recipe_separates


def recipe_summary(recipe, k):
    if recipe.standard:
        extra = recipe.dims()
        high = {j: v for j, v in extra.items() if j > 2}
        tag = "standard family" + (" + %r" % high if high else "")
    else:
        tag = "powers of one line up to %d" % max(recipe.levels())
    return "%s at degree %d" % (tag, k)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print("%-14s %s" % ("shape", "degree span col germs | predicted  separating family"))
    print("-" * 78)
    all_ok = True
    for label in _FIBER_TYPES:
        x, n = _gen_fiber_instance(rng, QQ, label)
        profile = classify_fiber(x, n)
        lengths = "+".join(
            str(g.length) for g in sorted(x.germs, key=lambda g: -g.length))
        recipe, k = recipe_for_fiber(profile)
        exact = min_normal_degree(x) == profile.predicted_normality
        separated = recipe_separates(x, recipe, k)
        all_ok &= exact and separated and profile.case == label
        print("%-14s   %d     %d    %d   %-11s|    %d       %s%s" % (
            profile.case, x.degree, span_dim(x), max_collinear_length(x),
            lengths, profile.predicted_normality, recipe_summary(recipe, k),
            "" if exact and separated else "  MISMATCH"))
    print("-" * 78)
    print("all %d shapes: classification, prediction and separation agree: %s"
          % (len(_FIBER_TYPES), all_ok))
    print("\nShapes over n = 5 fit a length budget of 6; over n = 6 the extra")
    print("unit of budget admits longer secants, a five-point germ"
          " configuration, and")
    print("the conic shape, which needs its own one-higher separating degree.")


if __name__ == "__main__":
    main()
