"""Linear projections: scheme fibers, fiber classification for
dimension-5 and dimension-6 sources, and finite projections of
parameterized rational curves.

Projecting from a center Lambda (a linear subspace) sends a point x to
the tuple of values of the cutting forms of Lambda at x.  For a finite
scheme the fibers partition the germs: each germ lands, with its full
length, in the fiber over the image of its support point.

A fiber's separating family (`recipe_for_fiber`) is read off its
profile: its degree is the predicted normality degree (n for Y6 and
Y7), and it is the powers of one line for a non-Y fiber on a line.

For a rational curve given by an (N+1)-tuple of coprime degree-d binary
forms, projecting to a line or to a plane pulls fibers back to divisors
on P^1: the parameters in the fiber over y = (u_0 : ... : u_r), u_i0
its first nonzero coordinate, are the common zeros of the minors
u_i0 x_j - u_j x_i0 of the composed forms x_j (one binary form over a
line, the gcd of two over a plane).  Multiplicities come from exact
square-free decomposition; rational parameters are expanded into
curvilinear germs, irrational ones are reported as clusters by degree
and multiplicity.

Projections run on ints, and centers and curves hold only ints: a
center's cutting forms on one common scale (`LinearSubspace.int_forms`)
and a curve's forms by one denominator (`RationalCurve.int_forms`).
`project_point` takes the former at a point's int vector, and
`RationalCurve.composed_forms` composes them with the latter; a common
scale moves neither a projective point nor the zeros of a pencil.  The
fiber's binary form, its gcds and squarefree factors (`forms`), and the
points and jets at its parameters are int polynomials and int vectors
fed to `ProjPoint` and the `CurvilinearGerm` constructor.  Scalars are
built only for the output: a fiber's image and its rational parameters.
"""

from __future__ import annotations

from fractions import Fraction

from zeroreg.exactalg import Matrix, QQ
from zeroreg.forms import (
    binary_degree,
    binary_eval,
    binary_gcd_many,
    binary_is_zero,
    poly_degree,
    poly_normalize,
    poly_taylor_shift,
    squarefree_decomposition,
    squarefree_rational_roots,
)
from zeroreg.normality import hilbert_function
from zeroreg.scheme import (
    CurvilinearGerm,
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    max_collinear_length,
    span_dim,
)
from zeroreg.separation import line_power_recipe, standard_recipe, t_monomial


class CenterMeetsScheme(ValueError):
    """A support point of the scheme lies in the projection center."""


class CenterMeetsCurve(ValueError):
    """The projection center intersects the curve."""


class CurveContainedInSubspace(ValueError):
    """The curve lies inside the subspace being intersected."""


class DuplicateFiberSupport(ValueError):
    """Two fiber parameters map to the same curve point (a node)."""


class NonCurvilinearFiber(ValueError):
    """A multiple fiber point sits where the parameterization is not an
    immersion, so the fiber is not curvilinear."""


# ---------------------------------------------------------------------------
# projections of finite schemes


def _coord_key(point: ProjPoint):
    lead = next(v for v in point.vec if v)
    return tuple(Fraction(v, lead) for v in point.vec)


def project_point(point: ProjPoint, center: LinearSubspace) -> ProjPoint:
    """The values of the cutting forms at the point, as a point: the
    forms' `int_forms` at its int vector, one common scale away."""
    vals = point.field.ints([sum(c * x for c, x in zip(f, point.vec))
                             for f in center.int_forms])
    if not any(vals):
        raise CenterMeetsScheme("point lies in the projection center")
    return ProjPoint(vals, point.field)


def project_scheme(scheme: FiniteScheme, center: LinearSubspace):
    """Fibers of the projection, as (image point, selector) pairs with
    the selectors picking out whole germs; fiber lengths sum to the
    degree.  The list is sorted by image coordinates."""
    if len(center.int_forms) < 2:
        raise ValueError("projection target needs at least two cutting forms")
    if center.ambient != scheme.ambient:
        raise ValueError("center and scheme live in different spaces")
    if center.field is not scheme.field:
        raise ValueError("center and scheme lie over different fields")
    buckets = {}
    for idx, g in enumerate(scheme.germs):
        image = project_point(g.support, center)
        buckets.setdefault(image, []).append(idx)
    fibers = []
    for image in sorted(buckets, key=_coord_key):
        selector = tuple(
            scheme.germs[i].length if i in buckets[image] else 0
            for i in range(len(scheme.germs))
        )
        fibers.append((image, selector))
    return fibers


def yk_counts(fiber_lengths) -> dict:
    """Map k to the number of fibers of length at least k."""
    lengths = list(fiber_lengths)
    out = {}
    for k in range(1, max(lengths, default=0) + 1):
        c = sum(1 for l in lengths if l >= k)
        if c:
            out[k] = c
    return out


class MatherCheck:
    __slots__ = ("total", "bound", "holds")

    def __init__(self, total: int, bound: int):
        self.total = total
        self.bound = bound
        self.holds = total <= bound

    def __repr__(self):
        return "MatherCheck(total=%d, bound=%d, holds=%r)" % (self.total, self.bound, self.holds)


def _fiber_lengths(fiber) -> list:
    if isinstance(fiber, FiniteScheme):
        return [g.length for g in fiber.germs]
    if isinstance(fiber, CurveFiber):
        lengths = [g.length for g in fiber.germs]
        for deg, mult in fiber.clusters:
            lengths.extend([mult] * deg)
        return lengths
    return [int(l) for l in fiber]


def mather_inequality(fiber, n: int) -> MatherCheck:
    """Sum of (local length + local length - 1) over the fiber compared
    with n + 1; every fiber of a generic projection of a smooth n-fold
    satisfies it."""
    lengths = _fiber_lengths(fiber)
    return MatherCheck(sum(2 * l - 1 for l in lengths), n + 1)


# ---------------------------------------------------------------------------
# fiber classification inside a plane


class FiberProfile:
    __slots__ = (
        "n",
        "degree",
        "support_size",
        "span",
        "max_collinear",
        "reduced",
        "mather_total",
        "case",
        "predicted_normality",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def to_jsonable(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return "FiberProfile(case=%r, degree=%d, predicted=%r)" % (
            self.case, self.degree, self.predicted_normality,
        )


def _small_fiber_prediction(d: int, span: int):
    if d == 1:
        return 0
    if span == 1:
        return d - 1
    if d <= span + 1:
        return 1
    return 2


def classify_fiber(fiber: FiniteScheme, n: int) -> FiberProfile:
    """Case label and predicted minimal normality degree for a fiber of
    a generic projection of a smooth n-fold (n = 5 or 6) from a line.

    Labels for n = 5: small, 1.i, 1.ii, 1.iii, 2.i, 2.ii, Y6,
    impossible, high-span.  For n = 6: small, 5.line, 5.span2,
    5.span2.4sec, 6.line, 6.span2, 6.span2.4sec, 6.span2.5sec,
    6.span2.conic, Y7, impossible, high-span.
    """
    if n not in (5, 6):
        raise ValueError("classification implemented for n = 5 and n = 6")
    d = fiber.degree
    if d > n + 2:
        raise ValueError("fiber length exceeds n + 2")
    reduced = all(g.length == 1 for g in fiber.germs)
    mather = mather_inequality(fiber, n)
    span = span_dim(fiber)
    col = max_collinear_length(fiber)
    base = dict(
        n=n,
        degree=d,
        support_size=len(fiber.germs),
        span=span,
        max_collinear=col,
        reduced=reduced,
        mather_total=mather.total,
    )

    def profile(case, predicted):
        return FiberProfile(case=case, predicted_normality=predicted, **base)

    if not mather.holds:
        return profile("impossible", None)
    if span > 2:
        return profile("high-span", None)
    if d <= 4:
        return profile("small", _small_fiber_prediction(d, span))

    if n == 5:
        if d == 5:
            if reduced:
                if span == 1:
                    return profile("1.i", 4)
                if col >= 4:
                    return profile("1.ii", 3)
                return profile("1.iii", 2)
            if span == 1:
                return profile("2.i", 4)
            return profile("2.ii", 3 if col >= 4 else 2)
        # d == 6; the multiplicity inequality already forced reducedness
        if col >= 4:
            return profile("Y6", col - 1)
        return profile("Y6", 2 if hilbert_function(fiber, 2) == 6 else 3)

    # n == 6
    if d == 5:
        if span == 1:
            return profile("5.line", 4)
        if col >= 4:
            return profile("5.span2.4sec", 3)
        return profile("5.span2", 2)
    if d == 6:
        if span == 1:
            return profile("6.line", 5)
        if col == 5:
            return profile("6.span2.5sec", 4)
        if col == 4:
            return profile("6.span2.4sec", 3)
        if hilbert_function(fiber, 2) == 6:
            return profile("6.span2", 2)
        return profile("6.span2.conic", 3)
    # d == 7, reduced forced
    return profile("Y7", col - 1 if col >= 5 else 3)


def recipe_for_fiber(profile: FiberProfile):
    """The separating family prescribed for the fiber's case, as a
    (recipe, degree) pair, or None when no case family applies (small,
    impossible and high-span fibers).  Both are read off the profile:
    the degree k is the predicted normality degree, or n for Y6 and Y7;
    a fiber on a line takes the powers of that line up to k, and every
    other case the standard family plus T1^j for 3 <= j <= k.  The
    recipe's variables are not bound per fiber: `recipe_space` always
    takes U = x_0 and T_i = x_i."""
    case = profile.case
    if case in ("small", "impossible", "high-span"):
        return None
    if case in ("Y6", "Y7"):
        k = profile.n
    else:
        k = profile.predicted_normality
        if profile.span == 1:
            return line_power_recipe(k), k
    return standard_recipe(extra={j: [t_monomial(2, (j, 0))] for j in range(3, k + 1)}), k


# ---------------------------------------------------------------------------
# rational curves and their finite projections


class RationalCurve:
    """A base-point-free parameterization P^1 -> P^N by binary forms of
    one common degree, with exact rational coefficients, kept as ints
    only: `int_forms` are the given forms (ints or Fractions) times one
    common denominator (`field.cleared`, so ints stay as given).  They
    parameterize the same curve, and points, jets, fibers and a
    document read them."""

    __slots__ = ("int_forms", "field")

    def __init__(self, forms, field=QQ):
        if field is not QQ:
            raise ValueError("rational curves are supported over Q only")
        forms = list(forms)
        if len(forms) < 2:
            raise ValueError("need at least two coordinate forms")
        widths = {len(f) for f in forms}
        if len(widths) != 1:
            raise ValueError("coordinate forms must share one degree")
        width = next(iter(widths))
        if width < 2:
            raise ValueError("the parameterization must have degree >= 1")
        flat, _ = field.cleared([c for f in forms for c in f])
        int_forms = tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width))
        nonzero = [f for f in int_forms if not binary_is_zero(f)]
        if not nonzero:
            raise ValueError("the zero tuple does not parameterize a curve")
        if binary_degree(binary_gcd_many(nonzero)) != 0:
            raise ValueError("coordinate forms share a zero (a base point)")
        self.int_forms, self.field = int_forms, field

    @property
    def ambient(self) -> int:
        return len(self.int_forms) - 1

    @property
    def degree(self) -> int:
        return binary_degree(self.int_forms[0])

    def point(self, s, t) -> ProjPoint:
        """The image of (s : t), ints or Fractions."""
        s, t = self.field.ints([s, t])
        return ProjPoint([binary_eval(f, s, t) for f in self.int_forms], self.field)

    def jet(self, s0, t0, length: int):
        """Taylor expansions of the homogeneous coordinates in a local
        parameter u at (s0 : t0), as length-`length` int series on one
        common scale.  With (s0 : t0) = (s : t) coprime ints and s > 0
        they are f(s, t + s u) for f in `int_forms` (s^D times the
        expansion of f(1, t/s + u)); at (0 : 1) they are f(u, 1)."""
        st = self.field.normal_form(self.field.ints([s0, t0]))
        if st is None:
            raise ValueError("(0 : 0) is not a parameter value")
        s, t = st
        if not s:
            return tuple(poly_taylor_shift(f[::-1], 0, length) for f in self.int_forms)
        d = self.degree
        powers = [1]
        for _ in range(max(d, length)):
            powers.append(powers[-1] * s)
        # f(s, t + s u) = F(t + s u) with F(x) = sum_i c_i s^(d-i) x^i
        return tuple(
            tuple(c * powers[k] for k, c in enumerate(poly_taylor_shift(
                [c * powers[d - i] for i, c in enumerate(f)], t, length)))
            for f in self.int_forms)

    def composed_forms(self, subspace):
        """The cutting forms of `subspace` composed with the curve, as int
        binary forms on one common scale: they are read off
        `subspace.int_forms`, so the ratios between the composed forms
        are the true ones."""
        if subspace.field is not self.field:
            raise ValueError("the subspace and the curve lie over different fields")
        out = []
        for g in subspace.int_forms:
            form = [0] * (self.degree + 1)
            for c, f in zip(g, self.int_forms):
                if c:
                    for i, x in enumerate(f):
                        form[i] += c * x
            out.append(tuple(form))
        return out

    def is_nondegenerate(self) -> bool:
        """True when the image spans the whole ambient space (possible
        only for degree >= ambient)."""
        return Matrix(self.int_forms, field=self.field).rank() == self.ambient + 1

    def __repr__(self):
        return "RationalCurve(degree=%d in P^%d)" % (self.degree, self.ambient)


def _germ_at_parameter(curve: RationalCurve, s0, t0, length: int) -> CurvilinearGerm:
    """The length-L germ of the curve at (s0 : t0).  The jet's constant
    terms are the curve's point, never all zero, so the constructor's
    only complaint is a degenerate arc: a cusp, reported as
    NonCurvilinearFiber."""
    try:
        return CurvilinearGerm(curve.jet(s0, t0, length), curve.field)
    except ValueError:
        raise NonCurvilinearFiber(
            "parameterization is not an immersion at a multiple fiber point"
        ) from None


class CurveFiber:
    """A fiber of a finite projection of a rational curve: curvilinear
    germs at the rational parameters, irrational parameters summarized
    as (degree, multiplicity) clusters, and the total length."""

    __slots__ = ("image", "germs", "parameters", "clusters", "total")

    def __init__(self, image, germs, parameters, clusters, total):
        self.image = image
        self.germs = tuple(germs)
        self.parameters = tuple(parameters)
        self.clusters = tuple(clusters)
        self.total = total

    def scheme(self) -> FiniteScheme:
        if self.clusters:
            raise ValueError("fiber has irrational points; no exact scheme over Q")
        return FiniteScheme(self.germs)

    def __repr__(self):
        return "CurveFiber(total=%d, germs=%d, clusters=%r)" % (
            self.total, len(self.germs), list(self.clusters),
        )


def _fiber_from_binary_form(curve: RationalCurve, image, form) -> CurveFiber:
    """Decompose the divisor of a nonzero binary form into germs on the
    curve (rational roots) and clusters (irrational ones).

    One squarefree decomposition serves both: a factor of multiplicity m
    gives each of its rational roots multiplicity m, and its remaining
    degree, if any, one (degree, m) cluster."""
    total = binary_degree(form)
    g = poly_normalize(form)
    inf_mult = total - poly_degree(g)
    parameters = [((0, 1), inf_mult)] if inf_mult else []
    finite, clusters = [], []
    for fac, mult in squarefree_decomposition(g):
        roots = squarefree_rational_roots(fac)
        finite += [((1, r), mult) for r in roots]
        if poly_degree(fac) > len(roots):
            clusters.append((poly_degree(fac) - len(roots), mult))
    parameters += sorted(finite)
    accounted = sum(m for _, m in parameters) + sum(d * m for d, m in clusters)
    if accounted != total:
        raise AssertionError("fiber decomposition lost multiplicity")
    germs = [_germ_at_parameter(curve, s0, t0, m) for (s0, t0), m in parameters]
    supports = [g_.support for g_ in germs]
    if len(set(supports)) != len(supports):
        raise DuplicateFiberSupport(
            "distinct parameters map to one point; the fiber is not a disjoint union of arcs"
        )
    return CurveFiber(image, germs, parameters, clusters, total)


# a target's name, and its coordinate count as a number and as a word
_TARGETS = {"line": (2, "two"), "plane": (3, "three")}


def _fiber_over(curve: RationalCurve, center: LinearSubspace, y, target) -> CurveFiber:
    """Fiber over y in the target line or plane.  With u the int
    coordinates of y and i0 the first nonzero one, the parameters over y
    are the common zeros of the minors u_i0 x_j - u_j x_i0 of the
    composed forms: their gcd.  Over a line there is one minor, of the
    curve's degree."""
    r, count = _TARGETS[target]
    if center.ambient != curve.ambient or len(center.int_forms) != r:
        raise ValueError("center must be cut by exactly %s forms in the curve's space" % count)
    composed = curve.composed_forms(center)
    if binary_degree(binary_gcd_many(composed)) != 0:
        raise CenterMeetsCurve("center intersects the curve")
    if len(y) != r:
        raise ValueError("a point of the target %s has %s coordinates, got %d"
                         % (target, count, len(y)))
    ys = tuple(curve.field(c) for c in y)
    if all(v == 0 for v in ys):
        raise ValueError("(%s) is not a point of the target %s" % (" : ".join("0" * r), target))
    us, _ = curve.field.cleared(ys)
    i0 = next(i for i, v in enumerate(us) if v)
    minors = [tuple(us[i0] * xj - us[j] * xi for xj, xi in zip(composed[j], composed[i0]))
              for j in range(r) if j != i0]
    minors = [m for m in minors if not binary_is_zero(m)]
    if not minors:
        raise AssertionError("projection collapses the curve despite a disjoint center")
    h = binary_gcd_many(minors)
    if binary_degree(h) == 0:
        return CurveFiber(ys, (), (), (), 0)
    return _fiber_from_binary_form(curve, ys, h)


def curve_fiber(curve: RationalCurve, center: LinearSubspace, y) -> CurveFiber:
    """Fiber over y in P^1 of the projection from a center of dimension
    N - 2; always of total length equal to the curve's degree."""
    return _fiber_over(curve, center, y, "line")


def plane_fiber(curve: RationalCurve, center: LinearSubspace, y) -> CurveFiber:
    """Fiber over y in P^2 of the projection from a center of dimension
    N - 3; total length 0 when y is not on the image curve."""
    return _fiber_over(curve, center, y, "plane")


def curve_linear_section_length(curve: RationalCurve, subspace: LinearSubspace) -> int:
    """Length of the scheme-theoretic intersection of the parameterized
    curve with a linear subspace."""
    if subspace.ambient != curve.ambient:
        raise ValueError("subspace lives in the wrong ambient space")
    nonzero = [f for f in curve.composed_forms(subspace) if not binary_is_zero(f)]
    if not nonzero:
        raise CurveContainedInSubspace("every cutting form vanishes on the curve")
    return binary_degree(binary_gcd_many(nonzero))


# ---------------------------------------------------------------------------
# codimension formulas for the generic-projection loci


def schubert_codim(t: int, N: int, k: int, n: int) -> int:
    """Codimension t(N - k - n + t) in the Grassmannian G(k, N) of the
    k-planes meeting an n-fold in a subspace of dimension >= t - 1."""
    if min(t, N, k, n) < 0:
        raise ValueError("arguments must be nonnegative")
    return t * (N - k - n + t)


def tangency_locus_codim(q: int) -> int:
    """Expected codimension q(q + 1) of the locus of points whose
    tangency with a generic center has corank q."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return q * (q + 1)


def secant_locus_dim_bound(n: int, k: int) -> int:
    """Dimension bound n + 1 + k for the locus of (n + 2 - k)-secant
    lines of a smooth n-fold."""
    if not 1 <= k <= n + 1:
        raise ValueError("k must satisfy 1 <= k <= n + 1")
    return n + 1 + k
