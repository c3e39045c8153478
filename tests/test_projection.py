import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg.normality import hilbert_function, min_normal_degree
from zeroreg.projection import (
    CenterMeetsCurve,
    CenterMeetsScheme,
    CurveContainedInSubspace,
    DuplicateFiberSupport,
    FiberProfile,
    NonCurvilinearFiber,
    RationalCurve,
    classify_fiber,
    curve_fiber,
    curve_linear_section_length,
    mather_inequality,
    plane_fiber,
    project_point,
    project_scheme,
    recipe_for_fiber,
    schubert_codim,
    secant_locus_dim_bound,
    tangency_locus_codim,
    yk_counts,
)
from zeroreg.exactalg import QQ, Matrix
from zeroreg.scheme import (
    CurvilinearGerm,
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    apply_matrix,
    germ_on_line,
    make_germ,
    reduced_germ,
)
from zeroreg.separation import recipe_separates


def points_scheme(pts):
    return FiniteScheme([reduced_germ(p) for p in pts])


TWISTED_CUBIC = RationalCurve([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
CONIC = RationalCurve([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# projections of finite schemes


def test_generic_point_projection_separates_three_points():
    X = points_scheme([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    center = LinearSubspace(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    # the center is the point (0:0:0:1); no support touches it
    fibers = project_scheme(X, center)
    assert len(fibers) == 3
    assert all(sum(sel) == 1 for _, sel in fibers)
    assert sum(sum(sel) for _, sel in fibers) == X.degree


def test_projection_merges_points_collinear_with_center():
    # (1,0,0,0) and (1,1,1,1) are collinear with the center point
    # (2,1,1,1), so they land on one image; the third point stays apart
    X = points_scheme([(1, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 5)])
    center = LinearSubspace(3, [(1, -2, 0, 0), (0, 1, -1, 0), (0, 1, 0, -1)])
    assert center.contains_point(ProjPoint((2, 1, 1, 1)))
    fibers = project_scheme(X, center)
    lengths = sorted(sum(sel) for _, sel in fibers)
    assert lengths == [1, 2]
    merged = next(sel for _, sel in fibers if sum(sel) == 2)
    assert merged == (1, 1, 0)


def test_projection_keeps_whole_germ_in_one_fiber():
    g = germ_on_line((1, 0, 0, 0), (0, 1, 2, 0), 3)
    X = FiniteScheme([g, reduced_germ((0, 0, 0, 1))])
    # center point (0:1:1:0) is off the line joining the two supports
    center = LinearSubspace(3, [(1, 0, 0, 0), (0, -1, 1, 0), (0, 0, 0, 1)])
    fibers = project_scheme(X, center)
    assert sorted(sum(sel) for _, sel in fibers) == [1, 3]


def test_projection_center_through_support_is_rejected():
    X = points_scheme([(1, 0, 0, 0), (0, 1, 0, 0)])
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(CenterMeetsScheme):
        project_scheme(X, center)
    with pytest.raises(CenterMeetsScheme):
        project_point(ProjPoint((1, 0, 0, 0)), center)


def test_projection_is_deterministically_sorted():
    pts = [(1, 5, 0, 0), (1, 1, 0, 0), (1, 3, 0, 1)]
    X = points_scheme(pts)
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    first = project_scheme(X, center)
    second = project_scheme(X, center)
    assert first == second
    keys = [tuple(p.coords) for p, _ in first]
    assert keys == sorted(keys)


def test_fiber_length_sum_is_scheme_degree_on_random_input():
    rng = random.Random(7)
    for _ in range(25):
        pts = set()
        while len(pts) < 5:
            cand = [rng.randint(-3, 3) for _ in range(4)]
            if any(cand):
                pts.add(ProjPoint(cand))
        X = FiniteScheme([reduced_germ(p) for p in pts])
        center = LinearSubspace(3, [(1, 0, 0, rng.randint(1, 9)),
                                    (0, 1, 0, rng.randint(1, 9)),
                                    (0, 0, 1, rng.randint(1, 9))])
        try:
            fibers = project_scheme(X, center)
        except CenterMeetsScheme:
            continue
        assert sum(sum(sel) for _, sel in fibers) == X.degree


def test_yk_counts_example():
    assert yk_counts([3, 1, 1]) == {1: 3, 2: 1, 3: 1}
    assert yk_counts([1, 1, 1, 1]) == {1: 4}
    assert yk_counts([]) == {}


def test_mather_inequality_on_reduced_fibers():
    six = points_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)])
    check = mather_inequality(six, 5)
    assert (check.total, check.bound, check.holds) == (6, 6, True)
    assert mather_inequality([1] * 7, 5).holds is False
    assert mather_inequality([1] * 7, 6).holds is True


def test_mather_inequality_counts_multiple_points_twice():
    # a double point contributes 2 + 1 = 3
    assert mather_inequality([2, 1, 1, 1], 5).total == 6
    assert mather_inequality([2, 2, 1], 5).total == 7
    assert mather_inequality([2, 2, 1], 5).holds is False
    assert mather_inequality([2, 2, 1], 6).holds is True


# ---------------------------------------------------------------------------
# fiber classification


LINE_PTS = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)]
GENERAL_5 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
ALIGNED_4 = [(1, 1, 1), (2, 1, 1), (3, 1, 1), (-1, 1, 1)]  # on T1 = T2


def double_on_line(point, direction):
    return germ_on_line(point, direction, 2)


def conic_points(us):
    return [(1, u, u * u) for u in us]


def check_profile(scheme, n, case, predicted, recipe_position_ok=True):
    prof = classify_fiber(scheme, n)
    assert prof.case == case
    assert prof.predicted_normality == predicted
    if predicted is not None:
        assert min_normal_degree(scheme) == predicted
    hit = recipe_for_fiber(prof)
    if hit is not None and recipe_position_ok:
        recipe, k = hit
        assert recipe_separates(scheme, recipe, k)
    return prof


def test_five_collinear_points():
    prof = check_profile(points_scheme(LINE_PTS), 5, "1.i", 4)
    assert prof.span == 1 and prof.reduced


def test_four_collinear_plus_one():
    check_profile(points_scheme(ALIGNED_4 + [(1, 1, 0)]), 5, "1.ii", 3)


def test_five_points_no_four_collinear():
    prof = check_profile(points_scheme(GENERAL_5), 5, "1.iii", 2)
    assert prof.max_collinear == 2


def test_double_point_with_three_more_on_a_line():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 0))]
                     + [reduced_germ(p) for p in [(1, 1, 0), (1, 2, 0), (1, 3, 0)]])
    check_profile(X, 5, "2.i", 4)


def test_double_point_spanning_case_without_long_secant():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 1))]
                     + [reduced_germ(p) for p in [(0, 1, 0), (1, 2, 3), (1, 5, 1)]])
    prof = check_profile(X, 5, "2.ii", 2)
    assert not prof.reduced and prof.support_size == 4


def test_double_point_spanning_case_with_four_secant():
    X = FiniteScheme([double_on_line((1, 1, 1), (1, 0, 0))]
                     + [reduced_germ(p) for p in [(2, 1, 1), (3, 1, 1), (1, 1, 0)]])
    prof = check_profile(X, 5, "2.ii", 3)
    assert prof.max_collinear == 4


def test_six_point_fiber_general_position():
    X = points_scheme(GENERAL_5 + [(1, 4, 9)])
    assert hilbert_function(X, 2) == 6  # not on a conic
    check_profile(X, 5, "Y6", 2, recipe_position_ok=False)


def test_six_point_fiber_on_a_conic():
    X = points_scheme(conic_points([0, 1, 2, 3, 4, 5]))
    assert hilbert_function(X, 2) == 5
    check_profile(X, 5, "Y6", 3)


def test_six_point_fiber_with_four_secant():
    X = points_scheme(LINE_PTS[:4] + [(1, 0, 1), (1, 1, 1)])
    check_profile(X, 5, "Y6", 3)


def test_six_point_fiber_with_five_secant():
    X = points_scheme(LINE_PTS + [(1, 0, 1)])
    check_profile(X, 5, "Y6", 4)


def test_six_collinear_points():
    X = points_scheme(LINE_PTS + [(1, 5, 0)])
    check_profile(X, 5, "Y6", 5)


def test_nonreduced_length_six_fiber_is_impossible_for_n5():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 1))]
                     + [reduced_germ(p) for p in [(0, 1, 0), (1, 2, 3), (1, 5, 1), (1, -1, 2)]])
    prof = classify_fiber(X, 5)
    assert prof.case == "impossible"
    assert prof.predicted_normality is None
    assert prof.mather_total == 7


def test_two_double_points_fiber_depends_on_n():
    X = FiniteScheme([double_on_line((1, 1, 1), (1, 0, 0)),
                      double_on_line((3, 1, 1), (1, 0, 0)),
                      reduced_germ((1, 1, 0))])
    assert classify_fiber(X, 5).case == "impossible"
    check_profile(X, 6, "5.span2.4sec", 3)


def test_n6_labels_for_degree_five_fibers():
    check_profile(points_scheme(LINE_PTS), 6, "5.line", 4)
    check_profile(points_scheme(GENERAL_5), 6, "5.span2", 2)
    check_profile(points_scheme(ALIGNED_4 + [(1, 1, 0)]), 6, "5.span2.4sec", 3)
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 1))]
                     + [reduced_germ(p) for p in [(0, 1, 0), (1, 2, 3), (1, 5, 1)]])
    check_profile(X, 6, "5.span2", 2)


def test_n6_six_collinear():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 0))]
                     + [reduced_germ(p) for p in [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)]])
    check_profile(X, 6, "6.line", 5)


def test_n6_five_secant_fiber():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 0))]
                     + [reduced_germ(p) for p in [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1)]])
    prof = check_profile(X, 6, "6.span2.5sec", 4)
    assert prof.max_collinear == 5


def test_n6_four_secant_fiber():
    X = FiniteScheme([double_on_line((1, 1, 1), (1, 0, 0))]
                     + [reduced_germ(p) for p in [(2, 1, 1), (3, 1, 1), (1, 1, 0), (1, 0, 1)]])
    check_profile(X, 6, "6.span2.4sec", 3)


def test_n6_generic_double_point_fiber():
    X = FiniteScheme([double_on_line((1, 0, 0), (0, 1, 1))]
                     + [reduced_germ(p) for p in [(0, 1, 0), (1, 2, 3), (1, 5, 1), (1, -1, 2)]])
    assert hilbert_function(X, 2) == 6
    check_profile(X, 6, "6.span2", 2)


def test_n6_double_point_fiber_on_a_conic():
    arc = make_germ((1, 0, 0), 0, [(0, 1), (0, 0)])  # 2-jet of (1, t, t^2)
    X = FiniteScheme([arc] + [reduced_germ(p) for p in conic_points([1, 2, 3, 4])])
    assert hilbert_function(X, 2) == 5
    # move the conic off the coordinate frame: the case family is
    # coordinate-bound and needs the frame in general position
    moved = apply_matrix(X, Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert hilbert_function(moved, 2) == 5
    prof = check_profile(moved, 6, "6.span2.conic", 3)
    assert prof.max_collinear == 2


def test_n6_seven_point_fibers():
    X = points_scheme([(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 3), (1, 5, 1), (1, 4, 9), (1, -1, 2)])
    check_profile(X, 6, "Y7", 3)
    Y = points_scheme(LINE_PTS + [(1, 0, 1), (1, 1, 1)])
    check_profile(Y, 6, "Y7", 4)
    Z = points_scheme([(1, u, 0) for u in range(7)])
    check_profile(Z, 6, "Y7", 6)


def test_n6_impossible_fibers():
    X = FiniteScheme([double_on_line((1, 1, 1), (1, 0, 0)),
                      double_on_line((3, 1, 1), (1, 0, 0))]
                     + [reduced_germ(p) for p in [(1, 1, 0), (1, 0, 1)]])
    assert classify_fiber(X, 6).case == "impossible"  # total 8 > 7
    Y = FiniteScheme([germ_on_line((1, 0, 0), (0, 1, 1), 3)]
                     + [reduced_germ(p) for p in [(0, 1, 0), (1, 2, 3), (1, 5, 1)]])
    assert classify_fiber(Y, 6).case == "impossible"  # 5 + 3 > 7


def test_small_and_out_of_range_fibers():
    assert classify_fiber(points_scheme([(1, 2, 3)]), 5).case == "small"
    assert classify_fiber(points_scheme([(1, 2, 3)]), 5).predicted_normality == 0
    two = check_profile(points_scheme([(1, 0, 0), (0, 1, 0)]), 5, "small", 1)
    assert two.span == 1
    check_profile(points_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 5, "small", 1)
    check_profile(points_scheme([(1, 0, 0), (1, 1, 0), (1, 2, 0)]), 5, "small", 2)
    check_profile(points_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]), 6, "small", 2)
    check_profile(points_scheme([(1, u, 0) for u in range(4)]), 6, "small", 3)
    spanning = points_scheme([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
    prof = classify_fiber(spanning, 5)
    assert prof.case == "high-span"
    assert prof.predicted_normality is None


def test_classify_fiber_preconditions():
    X = points_scheme(GENERAL_5)
    with pytest.raises(ValueError):
        classify_fiber(X, 4)
    big = points_scheme([(1, u, u * u * u) for u in range(8)])
    with pytest.raises(ValueError):
        classify_fiber(big, 5)  # 8 > n + 2
    assert classify_fiber(big, 6).case == "impossible"  # 8 > n + 1


def test_fiber_profile_is_jsonable():
    prof = classify_fiber(points_scheme(GENERAL_5), 5)
    data = prof.to_jsonable()
    assert data["case"] == "1.iii"
    assert data["predicted_normality"] == 2
    assert data["degree"] == 5 and data["n"] == 5
    assert isinstance(data["reduced"], bool)


# Every leaf of classify_fiber's tree, with Y6 and Y7 on a line and on
# both sides of their collinear thresholds, as (n, case, degree, span,
# max collinear, reduced, predicted) and its separating family as
# (kind, degree): the powers T1^j of one line for j <= degree ("line"),
# or the standard family plus T1^j for 3 <= j <= degree ("standard").
_RECIPE_LEAVES = [
    (5, "small", 1, 0, 1, True, 0, None),
    (5, "small", 4, 1, 4, True, 3, None),
    (5, "small", 4, 2, 3, True, 2, None),
    (5, "small", 3, 2, 2, True, 1, None),
    (5, "impossible", 5, 2, 3, False, None, None),
    (5, "high-span", 5, 3, 2, True, None, None),
    (5, "1.i", 5, 1, 5, True, 4, ("line", 4)),
    (5, "1.ii", 5, 2, 4, True, 3, ("standard", 3)),
    (5, "1.iii", 5, 2, 3, True, 2, ("standard", 2)),
    (5, "2.i", 5, 1, 5, False, 4, ("line", 4)),
    (5, "2.ii", 5, 2, 4, False, 3, ("standard", 3)),
    (5, "2.ii", 5, 2, 3, False, 2, ("standard", 2)),
    (5, "Y6", 6, 1, 6, True, 5, ("standard", 5)),
    (5, "Y6", 6, 2, 5, True, 4, ("standard", 5)),
    (5, "Y6", 6, 2, 4, True, 3, ("standard", 5)),
    (5, "Y6", 6, 2, 3, True, 2, ("standard", 5)),
    (5, "Y6", 6, 2, 3, True, 3, ("standard", 5)),
    (6, "small", 4, 1, 4, True, 3, None),
    (6, "impossible", 7, 2, 3, False, None, None),
    (6, "high-span", 6, 3, 2, True, None, None),
    (6, "5.line", 5, 1, 5, True, 4, ("line", 4)),
    (6, "5.span2.4sec", 5, 2, 4, True, 3, ("standard", 3)),
    (6, "5.span2", 5, 2, 3, True, 2, ("standard", 2)),
    (6, "6.line", 6, 1, 6, True, 5, ("line", 5)),
    (6, "6.span2.5sec", 6, 2, 5, True, 4, ("standard", 4)),
    (6, "6.span2.4sec", 6, 2, 4, True, 3, ("standard", 3)),
    (6, "6.span2", 6, 2, 3, True, 2, ("standard", 2)),
    (6, "6.span2.conic", 6, 2, 3, True, 3, ("standard", 3)),
    (6, "Y7", 7, 1, 7, True, 6, ("standard", 6)),
    (6, "Y7", 7, 2, 5, True, 4, ("standard", 6)),
    (6, "Y7", 7, 2, 4, True, 3, ("standard", 6)),
]


@pytest.mark.parametrize(
    "n, case, d, span, col, reduced, predicted, family", _RECIPE_LEAVES,
    ids=["n%d-%s-span%d-col%d-pred%s" % (leaf[:2] + leaf[3:5] + leaf[6:7])
         for leaf in _RECIPE_LEAVES])
def test_recipe_for_fiber_on_every_leaf(n, case, d, span, col, reduced, predicted, family):
    lengths = [1] * d if reduced else [2] + [1] * (d - 2)
    prof = FiberProfile(n=n, degree=d, support_size=len(lengths), span=span,
                        max_collinear=col, reduced=reduced,
                        mather_total=sum(2 * l - 1 for l in lengths), case=case,
                        predicted_normality=predicted)
    hit = recipe_for_fiber(prof)
    if family is None:
        assert hit is None
        return
    (kind, degree), (recipe, k) = family, hit
    assert k == degree
    assert recipe.standard == (kind == "standard")
    low = 3 if recipe.standard else 0
    assert recipe.spaces == {j: ({(j, 0): 1},) for j in range(low, degree + 1)}


# ---------------------------------------------------------------------------
# rational curves


def test_rational_curve_validation():
    with pytest.raises(ValueError):
        RationalCurve([(1, 0)])
    with pytest.raises(ValueError):
        RationalCurve([(1, 0), (0, 1, 1)])
    with pytest.raises(ValueError):
        RationalCurve([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        # both coordinates vanish at (0 : 1)
        RationalCurve([(1, 1, 0), (0, 1, 0)])
    assert TWISTED_CUBIC.degree == 3
    assert TWISTED_CUBIC.ambient == 3
    assert CONIC.point(1, 2) == ProjPoint((1, 2, 4))
    assert TWISTED_CUBIC.point(0, 1) == ProjPoint((0, 0, 0, 1))


def test_curve_nondegeneracy():
    assert TWISTED_CUBIC.is_nondegenerate()
    plane_conic_in_p3 = RationalCurve([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    assert not plane_conic_in_p3.is_nondegenerate()


def test_curve_jet_matches_symbolic_expansion():
    u = sympy.symbols("u")
    jet = TWISTED_CUBIC.jet(1, 2, 3)
    for series, expr in zip(jet, [1, (2 + u), (2 + u) ** 2, (2 + u) ** 3]):
        expanded = sympy.Poly(sympy.expand(expr), u).all_coeffs()[::-1]
        expanded = (expanded + [0, 0, 0])[:3]
        assert [sympy.nsimplify(c) for c in series] == expanded
    at_infinity = TWISTED_CUBIC.jet(0, 1, 2)
    assert at_infinity == ((0, 0), (0, 0), (0, 1), (1, 0))


def test_curve_jet_at_a_fractional_parameter_is_a_scaled_expansion():
    # the curve keeps its forms times 6; at (s : t) = (2 : -1) the int jet
    # is s^D times the expansion of those int forms in u at t/s = -1/2,
    # and gives the germ the scalar expansion gives
    forms = [(1, 0, 0, 0, 0), (0, Fraction(1, 2), 0, 0, 0), (0, 0, 0, 1, 0),
             (0, 0, Fraction(1, 3), 0, 1)]
    curve = RationalCurve(forms)
    assert curve.int_forms == tuple(tuple(6 * c for c in f) for f in forms)
    u = sympy.symbols("u")
    scalar_jet = []
    for f in curve.int_forms:
        expr = sympy.expand(sum(sympy.Rational(c) * (sympy.Rational(-1, 2) + u) ** i
                                for i, c in enumerate(f)))
        coeffs = sympy.Poly(expr, u).all_coeffs()[::-1] + [0] * 4
        scalar_jet.append(tuple(Fraction(int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
                                for c in coeffs[:3]))
    jet = curve.jet(2, -1, 3)
    assert jet == curve.jet(Fraction(-4), Fraction(2), 3)
    scale = jet[0][0] / scalar_jet[0][0]
    assert scale == 2 ** 4
    assert jet == tuple(tuple(scale * c for c in s) for s in scalar_jet)
    assert CurvilinearGerm(jet, QQ).series == CurvilinearGerm(scalar_jet, QQ).series


def test_conic_fiber_with_two_reduced_points():
    center = LinearSubspace(2, [(1, 0, 0), (0, 0, 1)])  # the point (0:1:0)
    fib = curve_fiber(CONIC, center, (1, 1))
    assert fib.total == 2
    assert sorted(tuple(g.support.coords) for g in fib.germs) == [
        (1, -1, 1), (1, 1, 1)]
    assert all(g.length == 1 for g in fib.germs)
    assert fib.clusters == ()
    X = curve_fiber(CONIC, center, (1, 1)).scheme()
    assert X.degree == 2


def test_conic_fiber_with_double_point():
    center = LinearSubspace(2, [(1, 0, 0), (0, 0, 1)])
    fib = curve_fiber(CONIC, center, (1, 0))
    assert fib.total == 2
    assert len(fib.germs) == 1
    g = fib.germs[0]
    assert g.length == 2
    assert g.support == ProjPoint((1, 0, 0))
    assert g.int_rows()[1] == [0, 1, 0]


def test_chord_center_meets_curve():
    chord = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(CenterMeetsCurve):
        curve_fiber(TWISTED_CUBIC, chord, (1, 1))


def test_twisted_cubic_fiber_with_irrational_cluster():
    center = LinearSubspace(3, [(1, 0, 0, -1), (0, 1, 1, -1)])
    fib = curve_fiber(TWISTED_CUBIC, center, (1, 0))
    assert fib.total == 3
    assert len(fib.germs) == 1
    assert fib.germs[0].support == ProjPoint((1, 0, 0, 0))
    assert fib.clusters == ((2, 1),)  # the two conjugate roots of s^2+st-t^2
    with pytest.raises(ValueError):
        fib.scheme()


def test_planted_tangential_fiber():
    # center inside {x = 0, z = w}: meets the tangent line at (1:0:0:0)
    center = LinearSubspace(3, [(1, 0, 0, 0), (0, 0, 1, -1)])
    fib = curve_fiber(TWISTED_CUBIC, center, (1, 0))
    assert fib.total == 3
    assert sorted(g.length for g in fib.germs) == [1, 2]
    double = next(g for g in fib.germs if g.length == 2)
    assert double.support == ProjPoint((1, 0, 0, 0))
    assert fib.clusters == ()


def test_flatness_every_fiber_has_full_length():
    center = LinearSubspace(3, [(1, 0, 0, -1), (0, 1, 1, -1)])
    lengths = set()
    for y in [(1, 0), (0, 1), (1, 1), (1, -2), (2, 3), (5, 1), (1, 7)]:
        fib = curve_fiber(TWISTED_CUBIC, center, y)
        lengths.add(fib.total)
    assert lengths == {3}


def test_fiber_images_are_consistent():
    center = LinearSubspace(3, [(1, 0, 0, -1), (0, 1, 1, -1)])
    fib = curve_fiber(TWISTED_CUBIC, center, (2, 3))
    for g in fib.germs:
        image = project_point(g.support, center)
        assert image == ProjPoint((2, 3))


def test_fibers_of_centers_with_fractional_forms_lie_over_their_image():
    # cutting forms with different denominators: the composed forms must
    # keep their true ratio, which project_point checks independently
    curve = RationalCurve([(1, 0, 0, 0), (0, Fraction(1, 2), 0, 0), (0, 0, 1, 0),
                           (0, Fraction(-1, 3), 0, 1)])
    pencil = LinearSubspace(3, [(Fraction(1, 2), 0, 1, 0), (0, Fraction(2, 3), 0, Fraction(1, 5))])
    plane = LinearSubspace(3, [(Fraction(1, 2), 0, 0, 0), (0, Fraction(1, 3), 0, 0),
                               (0, 0, Fraction(1, 7), -1)])
    for center, fiber in ((pencil, curve_fiber), (plane, plane_fiber)):
        for t in (-1, 2, Fraction(1, 2)):
            y = project_point(curve.point(1, t), center).coords
            fib = fiber(curve, center, y)
            assert fib.germs
            for g in fib.germs:
                assert project_point(g.support, center) == ProjPoint(y)


def test_nodal_curve_fiber_reports_duplicate_support():
    # coordinates s(t^2 - s^2), t(t^2 - s^2), s^3: the parameters (1:1)
    # and (1:-1) both hit the node (0:0:1)
    nodal = RationalCurve([(-1, 0, 1, 0), (0, -1, 0, 1), (1, 0, 0, 0)])
    center = LinearSubspace(2, [(0, 1, 0), (0, 0, 1)])  # the point (1:0:0)
    with pytest.raises(DuplicateFiberSupport):
        curve_fiber(nodal, center, (0, 1))


def test_cuspidal_curve_fiber_is_not_curvilinear():
    cusp = RationalCurve([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    center = LinearSubspace(2, [(1, 0, 0), (0, 0, 1)])  # the point (0:1:0)
    with pytest.raises(NonCurvilinearFiber):
        curve_fiber(cusp, center, (1, 0))


def test_plane_fiber_generic_point_is_simple():
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
    fib = plane_fiber(TWISTED_CUBIC, center, (1, 1, 0))
    assert fib.total == 1
    assert fib.germs[0].support == ProjPoint((1, 1, 1, 1))


def test_plane_fiber_through_chord_has_two_points():
    # the center point (1:0:0:1) lies on the chord joining the parameter
    # values (1:0) and (0:1)
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
    fib = plane_fiber(TWISTED_CUBIC, center, (0, 0, 1))
    assert fib.total == 2
    assert sorted(tuple(g.support.coords) for g in fib.germs) == [
        (0, 0, 0, 1), (1, 0, 0, 0)]
    assert mather_inequality(fib, 1).holds


def test_plane_fiber_off_the_curve_is_empty():
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
    fib = plane_fiber(TWISTED_CUBIC, center, (1, 1, 1))
    assert fib.total == 0
    assert fib.germs == ()


@pytest.mark.parametrize("y", [(1, 1), (1, 1, 0, 5)])
def test_plane_fiber_needs_three_target_coordinates(y):
    # (1, 1) used to raise IndexError, and (1, 1, 0, 5) dropped its last
    # coordinate and gave the fiber over (1 : 1 : 0)
    center = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
    with pytest.raises(ValueError, match="three coordinates, got %d" % len(y)):
        plane_fiber(TWISTED_CUBIC, center, y)


# the twisted cubic's fiber routines on bad input: a center cut by the
# wrong number of forms or in another space, a point of the wrong
# length, and the zero point; each message as the routine raises it
_LINE_CENTER = LinearSubspace(3, [(1, 0, 0, -1), (0, 1, 1, -1)])
_PLANE_CENTER = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
_FIBER_ERRORS = [
    (curve_fiber, _PLANE_CENTER, (1, 1),
     "center must be cut by exactly two forms in the curve's space"),
    (curve_fiber, LinearSubspace(2, [(1, 0, 0), (0, 0, 1)]), (1, 1),
     "center must be cut by exactly two forms in the curve's space"),
    (curve_fiber, _LINE_CENTER, (1,), "a point of the target line has two coordinates, got 1"),
    (curve_fiber, _LINE_CENTER, (1, 1, 0),
     "a point of the target line has two coordinates, got 3"),
    (curve_fiber, _LINE_CENTER, (0, Fraction(0)), "(0 : 0) is not a point of the target line"),
    (plane_fiber, _LINE_CENTER, (1, 1, 1),
     "center must be cut by exactly three forms in the curve's space"),
    (plane_fiber, LinearSubspace(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), (1, 1, 1),
     "center must be cut by exactly three forms in the curve's space"),
    (plane_fiber, _PLANE_CENTER, (1, 1),
     "a point of the target plane has three coordinates, got 2"),
    (plane_fiber, _PLANE_CENTER, (1, 1, 0, 5),
     "a point of the target plane has three coordinates, got 4"),
    (plane_fiber, _PLANE_CENTER, (0, 0, Fraction(0)),
     "(0 : 0 : 0) is not a point of the target plane"),
]


@pytest.mark.parametrize("fiber, center, y, message", _FIBER_ERRORS,
                         ids=["%s-%d" % (e[0].__name__, i) for i, e in enumerate(_FIBER_ERRORS)])
def test_fiber_routines_reject_bad_input(fiber, center, y, message):
    with pytest.raises(ValueError) as err:
        fiber(TWISTED_CUBIC, center, y)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_plane_fiber_center_on_curve_is_rejected():
    center = LinearSubspace(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(CenterMeetsCurve):
        plane_fiber(TWISTED_CUBIC, center, (1, 1, 1))


def test_linear_section_lengths_of_twisted_cubic():
    plane = LinearSubspace(3, [(0, 0, 0, 1)])
    assert curve_linear_section_length(TWISTED_CUBIC, plane) == 3
    tangent = LinearSubspace(3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert curve_linear_section_length(TWISTED_CUBIC, tangent) == 2
    chord = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert curve_linear_section_length(TWISTED_CUBIC, chord) == 2
    generic_line = LinearSubspace(3, [(1, 0, 0, -1), (0, 1, 1, -1)])
    assert curve_linear_section_length(TWISTED_CUBIC, generic_line) == 0


def test_linear_section_bound_for_nondegenerate_curves():
    # a hyperplane section of a nondegenerate curve in P^3 has length
    # at most d - (N - 1 - r) = d - 1 only for lines (r = 1)
    d, N = TWISTED_CUBIC.degree, TWISTED_CUBIC.ambient
    tangent = LinearSubspace(3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert curve_linear_section_length(TWISTED_CUBIC, tangent) <= d - (N - 1 - 1)


def test_curve_contained_in_subspace():
    flat = RationalCurve([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    hyper = LinearSubspace(3, [(0, 0, 0, 1)])
    with pytest.raises(CurveContainedInSubspace):
        curve_linear_section_length(flat, hyper)


def _count_fractions(monkeypatch):
    """A counter of Fraction constructions, arithmetic results included."""
    made = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_curve_fibers_build_fractions_only_for_their_output(monkeypatch):
    # (s^4 : s^3 t / 2 : s t^3 : t^4 + s^2 t^2 / 3): the fiber over (1 : 0)
    # of the pencil x_0, x_3 is a double point at (1 : 0) and a conjugate
    # pair; the plane center (1 : 0 : 0 : 1) lies on the chord of the
    # twisted cubic through (1 : 0) and (0 : 1)
    forms = [(1, 0, 0, 0, 0), (0, Fraction(1, 2), 0, 0, 0), (0, 0, 0, 1, 0),
             (0, 0, Fraction(1, 3), 0, 1)]
    curve = RationalCurve(forms)
    assert curve.int_forms == tuple(tuple(6 * c for c in f) for f in forms)
    pencil = LinearSubspace(3, [(1, 0, 0, 0), (0, 0, 0, 1)])
    plane = LinearSubspace(3, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)])
    made = _count_fractions(monkeypatch)
    fibers = [curve_fiber(curve, pencil, y) for y in [(1, 0), (3, 1), (0, 1)]]
    fibers += [plane_fiber(TWISTED_CUBIC, plane, y) for y in [(0, 0, 1), (1, 1, 0), (1, 1, 1)]]
    outputs = sum(len(f.image) + len(f.parameters) for f in fibers)
    assert made[0] <= outputs
    assert [f.total for f in fibers] == [4, 4, 4, 2, 1, 0]
    assert (fibers[0].parameters, fibers[0].clusters) == ((((1, 0), 2),), ((2, 1),))
    # points and jets are ints throughout
    third, minus_half = Fraction(1, 3), Fraction(-1, 2)
    made[0] = 0
    assert curve.point(2, third) == ProjPoint((1296, 108, 6, 13))
    assert all(type(c) is int for s in curve.jet(1, minus_half, 3) for c in s)
    assert made[0] == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=12, max_size=12),
       st.lists(st.integers(-3, 3), min_size=8, max_size=8),
       st.integers(-5, 5))
def test_random_line_projection_fibers_have_full_length(cs, ls, yt):
    try:
        curve = RationalCurve([tuple(cs[0:3]), tuple(cs[3:6]), tuple(cs[6:9]), tuple(cs[9:12])])
    except ValueError:
        return
    try:
        center = LinearSubspace(3, [tuple(ls[0:4]), tuple(ls[4:8])])
    except ValueError:
        return
    try:
        fib = curve_fiber(curve, center, (1, yt))
    except (CenterMeetsCurve, DuplicateFiberSupport, NonCurvilinearFiber):
        return
    assert fib.total == curve.degree
    for g in fib.germs:
        assert project_point(g.support, center) == ProjPoint((1, yt))


# ---------------------------------------------------------------------------
# codimension counts


def test_schubert_codim_values():
    assert schubert_codim(1, 9, 1, 6) == 3
    assert schubert_codim(2, 9, 1, 6) == 8
    assert schubert_codim(0, 7, 2, 4) == 0
    with pytest.raises(ValueError):
        schubert_codim(-1, 9, 1, 6)


def test_tangency_locus_codim_values():
    assert [tangency_locus_codim(q) for q in range(4)] == [0, 2, 6, 12]
    with pytest.raises(ValueError):
        tangency_locus_codim(-1)


def test_secant_locus_dim_bound_values():
    assert secant_locus_dim_bound(5, 1) == 7
    assert secant_locus_dim_bound(6, 7) == 14
    with pytest.raises(ValueError):
        secant_locus_dim_bound(5, 0)
    with pytest.raises(ValueError):
        secant_locus_dim_bound(5, 7)
