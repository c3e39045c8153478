from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zeroreg.bounds import (
    BoundQuery,
    bel_bound,
    complete_intersection_regularity,
    eisenbud_goto_bound,
    hilbert_polynomial_regularity_bound,
    integral_surface_bound,
    known_regularity_bound,
    linearly_normal_refinement,
    pushforward_c1,
    recipe_regularity_bound,
)


def test_recipe_case1_three_level_example():
    # three level-3, two level-4, one level-5 generator: +10 over d-e+1
    for d in (12, 20, 33):
        assert recipe_regularity_bound(d, 4, {3: 3, 4: 2, 5: 1}) == (d - 4 + 1) + 10


def test_recipe_case1_codim3_ladder():
    for d in (10, 17):
        assert recipe_regularity_bound(d, 3, {3: 1, 4: 1, 5: 1, 6: 1}) == d + 8
        assert recipe_regularity_bound(d, 3, {3: 1, 4: 1, 5: 1}) == d + 4


def test_recipe_case2_example():
    for d in (9, 25):
        got = recipe_regularity_bound(d, 3, {4: 2, 5: 1}, dim_v1=2, dim_v2=3, case=2)
        assert got == d - 5


def test_recipe_case2_ignores_level_three():
    with_l3 = recipe_regularity_bound(14, 4, {3: 7, 4: 1}, 1, 2, case=2)
    without = recipe_regularity_bound(14, 4, {4: 1}, 1, 2, case=2)
    assert with_l3 == without


def test_recipe_rejects_bad_input():
    with pytest.raises(ValueError):
        recipe_regularity_bound(10, 3, {}, case=3)
    with pytest.raises(ValueError):
        recipe_regularity_bound(10, 3, {3: -1})
    with pytest.raises(ValueError):
        recipe_regularity_bound(10, 3, {2: 1})
    with pytest.raises(ValueError):
        recipe_regularity_bound(10, 3, {4: 1}, dim_v1=-2, case=2)


def test_bound_table_low_dimensions():
    assert known_regularity_bound(BoundQuery(1, 9, 2)).value == 8
    assert known_regularity_bound(BoundQuery(2, 9, 2)).value == 8
    assert known_regularity_bound(BoundQuery(3, 9, 2)).value == 9
    assert known_regularity_bound(BoundQuery(4, 9, 2)).value == 12


def test_bound_table_dimension_five():
    assert known_regularity_bound(
        BoundQuery(5, 12, 3, contained_in_quadric=True)).value == 16
    assert known_regularity_bound(
        BoundQuery(5, 12, 3, contained_in_quadric=False)).value == 7
    unknown = known_regularity_bound(BoundQuery(5, 12, 3))
    assert unknown.value == 16
    assert unknown.source == "dim5-quadric-unknown"
    assert known_regularity_bound(BoundQuery(5, 12, 6)).value == (12 - 6 + 1) + 10


def test_bound_table_dimension_six():
    assert known_regularity_bound(
        BoundQuery(6, 12, 3, contained_in_quadric=True)).value == 20
    assert known_regularity_bound(
        BoundQuery(6, 12, 3, contained_in_quadric=False)).value == 12
    assert known_regularity_bound(BoundQuery(6, 12, 3)).value == 20
    assert known_regularity_bound(BoundQuery(6, 12, 5)).value == (12 - 5 + 1) + 20


def test_bound_table_falls_back_to_bel():
    rough = known_regularity_bound(BoundQuery(2, 9, 2, smooth=False, integral=False))
    assert rough.source == "bel"
    assert rough.value == bel_bound(2, 9, 2) == 2 * 9 - 2 + 1
    tall = known_regularity_bound(BoundQuery(7, 15, 4))
    assert tall.source == "bel"
    assert tall.value == 4 * 15 - 7 + 1


def test_bound_table_conditional_quadric_generators():
    got = known_regularity_bound(BoundQuery(5, 12, 4), quadric_generators=True)
    assert got.value == 9
    assert got.source == "conditional-quadric-generators"


def test_bound_reports_bel_alongside():
    got = known_regularity_bound(BoundQuery(5, 12, 4))
    assert got.bel == 44
    assert (got.value, got.source, got.bel) == (19, "dim5", 44)


def test_low_dimension_bounds_at_least_eisenbud_goto():
    for n in (1, 2, 3, 4):
        for d, e in ((8, 2), (11, 5), (20, 3)):
            got = known_regularity_bound(BoundQuery(n, d, e))
            assert got.value >= eisenbud_goto_bound(d, e)


def test_degenerate_degree_warns():
    with pytest.warns(UserWarning):
        BoundQuery(3, 4, 5)


def test_query_rejects_nonpositive_data():
    with pytest.raises(ValueError):
        BoundQuery(0, 5, 2)
    with pytest.raises(ValueError):
        BoundQuery(3, 5, 0)


def test_linearly_normal_refinement_examples():
    assert linearly_normal_refinement(5, 20, 4) == 9
    assert linearly_normal_refinement(6, 20, 4) == 15


@pytest.mark.parametrize("e", [4, 5, 6, 7, 8])
def test_refinement_matches_case2_recipe(e):
    d = 30
    base = recipe_regularity_bound(d, e, {4: 2, 5: 1},
                                   dim_v1=e - 1, dim_v2=e * (e - 1) // 2, case=2)
    assert linearly_normal_refinement(5, d, e) == base
    assert linearly_normal_refinement(6, d, e) == base + 6


def test_refinement_rejects_out_of_scope():
    with pytest.raises(ValueError):
        linearly_normal_refinement(4, 20, 4)
    with pytest.raises(ValueError):
        linearly_normal_refinement(5, 20, 3)


def test_integral_surface_example():
    got = integral_surface_bound(10, 3)
    assert got.normality_threshold == 72
    assert got.regularity_bound == 73


def test_integral_surface_small_case():
    got = integral_surface_bound(5, 3)
    assert got.normality_threshold == 7
    assert got.regularity_bound == 8


@given(e=st.integers(1, 10), gap=st.integers(2, 25))
def test_integral_surface_forms_agree(e, gap):
    got = integral_surface_bound(e + gap, e)
    assert got.normality_threshold + 1 == got.regularity_bound


def test_integral_surface_needs_room():
    with pytest.raises(ValueError):
        integral_surface_bound(4, 3)


def test_hilbert_polynomial_bound_examples():
    # P(t) = t^2 + 2 evaluated at d - e = 2 gives 6, plus d - e + 1 = 3
    assert hilbert_polynomial_regularity_bound(5, 3, [2, 0, 1]) == 9
    assert hilbert_polynomial_regularity_bound(7, 4, []) == 4
    assert hilbert_polynomial_regularity_bound(10, 8, [0, 1]) == 5


def test_hilbert_polynomial_bound_rounds_up_with_warning():
    with pytest.warns(UserWarning):
        got = hilbert_polynomial_regularity_bound(5, 3, [Fraction(1, 2)])
    assert got == 4


def test_pushforward_chern_examples():
    got = pushforward_c1(4, 1)
    assert got.value == -4 and got.inequality_holds
    got = pushforward_c1(3, 0)
    assert got.value == -2 and not got.inequality_holds
    got = pushforward_c1(1, 0)
    assert got.value == 0 and not got.inequality_holds


@given(d=st.integers(1, 50), rho=st.integers(0, 50))
def test_pushforward_inequality_iff_positive_genus(d, rho):
    assert pushforward_c1(d, rho).inequality_holds == (rho >= 1)


def test_pushforward_rejects_bad_input():
    with pytest.raises(ValueError):
        pushforward_c1(0, 1)
    with pytest.raises(ValueError):
        pushforward_c1(3, -1)


def test_complete_intersection_examples():
    assert complete_intersection_regularity([2, 2, 2]) == 4
    assert complete_intersection_regularity([2, 3, 4]) == 7
    assert complete_intersection_regularity([6]) == 6


def test_complete_intersection_rejects_bad_input():
    with pytest.raises(ValueError):
        complete_intersection_regularity([])
    with pytest.raises(ValueError):
        complete_intersection_regularity([2, 0])


def test_helper_bounds():
    assert eisenbud_goto_bound(12, 4) == 9
    assert bel_bound(5, 12, 4) == 44
    assert bel_bound(3, 10, 7) == 3 * 10 - 3 + 1
