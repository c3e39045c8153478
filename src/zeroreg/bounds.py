"""Closed-form regularity bounds for projective varieties of degree d
and codimension e.

Everything here is plain exact arithmetic over the integers (or
rationals, for Hilbert-polynomial evaluation): the geometric hypotheses
behind each formula — smoothness, linear normality, vanishing of
cohomology — are the caller's responsibility and are only recorded in
docstrings and source tags, never verified.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction


def eisenbud_goto_bound(d: int, e: int) -> int:
    """The conjectural bound d - e + 1 (a theorem for integral curves
    and smooth surfaces)."""
    return d - e + 1


def bel_bound(n: int, d: int, e: int) -> int:
    """The Bertram-Ein-Lazarsfeld bound min(e, n) * d - n + 1 for smooth
    n-folds."""
    return min(e, n) * d - n + 1


def recipe_regularity_bound(d: int, e: int, dims, dim_v1: int = 0,
                            dim_v2: int = 0, case: int = 1) -> int:
    """Regularity bound produced by a splitting recipe: `dims` maps each
    level j >= 3 to the number of extra generators at that level.

    Case 1 charges (j - 2) per level-j generator on top of d - e + 1.
    Case 2 starts from d - e + 1 - 2*dim_v1 - dim_v2 and charges (j - 3)
    per generator, counting levels j >= 4 only.  Case 2's validity is
    conditional on the dual bundle hypotheses; the value is computed
    unconditionally.
    """
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    if dim_v1 < 0 or dim_v2 < 0 or any(v < 0 for v in dims.values()):
        raise ValueError("dimensions must be nonnegative")
    if any(j < 3 for j in dims):
        raise ValueError("recipe levels start at 3")
    base = d - e + 1
    if case == 1:
        return base + sum((j - 2) * v for j, v in dims.items())
    return (base - 2 * dim_v1 - dim_v2
            + sum((j - 3) * v for j, v in dims.items() if j >= 4))


class BoundQuery:
    """Degree/codimension data plus the flags the bound table branches
    on.  `contained_in_quadric` is three-valued: True, False, or None
    for unknown."""

    __slots__ = ("n", "d", "e", "smooth", "contained_in_quadric", "integral")

    def __init__(self, n: int, d: int, e: int, smooth: bool = True,
                 contained_in_quadric=None, integral: bool = True):
        if n < 1 or d < 1 or e < 1:
            raise ValueError("dimension, degree and codimension must be positive")
        if d < e + 1:
            warnings.warn("degree < codimension + 1: the variety cannot be "
                          "nondegenerate", stacklevel=2)
        self.n = n
        self.d = d
        self.e = e
        self.smooth = bool(smooth)
        self.contained_in_quadric = contained_in_quadric
        self.integral = bool(integral)


class KnownBound:
    __slots__ = ("value", "source", "bel")

    def __init__(self, value: int, source: str, bel: int):
        self.value = value
        self.source = source
        self.bel = bel

    def __repr__(self):
        return "KnownBound(%d from %s; bel %d)" % (self.value, self.source, self.bel)


def known_regularity_bound(q: BoundQuery, quadric_generators: bool = False) -> KnownBound:
    """Sharpest published regularity bound for the query, together with
    the Bertram-Ein-Lazarsfeld fallback.

    Dimensions 1-4 use the classical d - e + 1 ladder; dimensions 5 and
    6 in codimension 3 branch on containment in a quadric (unknown picks
    the safe larger value); codimension >= 4 uses the +10 / +20 results.
    `quadric_generators` asserts the homogeneous ideal has e - 1
    independent quadric generators, which conditionally restores
    d - e + 1.
    """
    n, d, e = q.n, q.d, q.e
    bel = bel_bound(n, d, e)
    eg = eisenbud_goto_bound(d, e)
    if quadric_generators:
        return KnownBound(eg, "conditional-quadric-generators", bel)
    if n == 1 and q.integral:
        return KnownBound(eg, "integral-curve", bel)
    if n in (2, 3, 4) and q.smooth:
        return KnownBound(eg + {2: 0, 3: 1, 4: 4}[n], "smooth-%dfold" % n, bel)
    if n == 5 and q.smooth:
        if e == 3:
            if q.contained_in_quadric is True:
                return KnownBound(d + 4, "dim5-on-quadric", bel)
            if q.contained_in_quadric is False:
                return KnownBound(d - 5, "dim5-off-quadric", bel)
            return KnownBound(d + 4, "dim5-quadric-unknown", bel)
        if e >= 4:
            return KnownBound(eg + 10, "dim5", bel)
    if n == 6 and q.smooth:
        if e == 3:
            if q.contained_in_quadric is True:
                return KnownBound(d + 8, "dim6-on-quadric", bel)
            if q.contained_in_quadric is False:
                return KnownBound(d, "dim6-off-quadric", bel)
            return KnownBound(d + 8, "dim6-quadric-unknown", bel)
        if e >= 4:
            return KnownBound(eg + 20, "dim6", bel)
    return KnownBound(bel, "bel", bel)


def linearly_normal_refinement(n: int, d: int, e: int) -> int:
    """Refined bound for linearly normal smooth 5- and 6-folds of
    codimension e >= 4: d - e + 1 - 2(e-1) - e(e-1)/2 plus 4 or 10."""
    if n not in (5, 6):
        raise ValueError("the refinement covers dimensions 5 and 6")
    if e < 4:
        raise ValueError("the refinement needs codimension >= 4")
    tail = 4 if n == 5 else 10
    return (d - e + 1) - 2 * (e - 1) - e * (e - 1) // 2 + tail


class SurfaceBound:
    __slots__ = ("normality_threshold", "regularity_bound")

    def __init__(self, normality_threshold: int, regularity_bound: int):
        self.normality_threshold = normality_threshold
        self.regularity_bound = regularity_bound


def integral_surface_bound(d: int, e: int) -> SurfaceBound:
    """For an integral surface: m-normality from the threshold
    (d-e)(d+2) - d - 2 on, and regularity at most (d-e+1)d - (2e+1).
    The two closed forms satisfy threshold + 1 = bound."""
    if d - e < 2:
        raise ValueError("the surface bound needs d - e >= 2")
    threshold = (d - e) * (d + 2) - d - 2
    bound = (d - e + 1) * d - (2 * e + 1)
    if threshold + 1 != bound:
        raise AssertionError("the two closed forms disagree")
    return SurfaceBound(threshold, bound)


def hilbert_polynomial_regularity_bound(d: int, e: int, coefficients) -> int:
    """(d - e + 1) + P(d - e) for a Hilbert polynomial P given by its
    ascending rational coefficients; a non-integral value is rounded up
    with a warning."""
    t = Fraction(d - e)
    value = Fraction(0)
    for c in reversed(list(coefficients)):
        value = value * t + Fraction(c)
    total = Fraction(d - e + 1) + value
    if total.denominator != 1:
        warnings.warn("non-integral bound %s rounded up" % total, stacklevel=2)
        return math.ceil(total)
    return int(total)


class PushforwardCheck:
    __slots__ = ("value", "inequality_holds")

    def __init__(self, value: int, inequality_holds: bool):
        self.value = value
        self.inequality_holds = inequality_holds


def pushforward_c1(d: int, rho_a: int) -> PushforwardCheck:
    """First Chern number 1 - rho_a - d of the pushed-forward structure
    sheaf of a degree-d curve with arithmetic genus rho_a; the flag
    records whether it is at most -d (true exactly when rho_a >= 1)."""
    if d < 1 or rho_a < 0:
        raise ValueError("need d >= 1 and rho_a >= 0")
    value = 1 - rho_a - d
    return PushforwardCheck(value, value <= -d)


def complete_intersection_regularity(degrees) -> int:
    """Sum of the hypersurface degrees minus (r - 1) for a complete
    intersection of r hypersurfaces."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("a complete intersection needs at least one degree")
    if any(x < 1 for x in degrees):
        raise ValueError("degrees must be >= 1")
    return sum(degrees) - len(degrees) + 1
