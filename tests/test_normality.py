import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg import normality
from zeroreg.exactalg import QQ, Matrix, prime_field
from zeroreg.forms import monomials_of_degree
from zeroreg.normality import (
    SchemeEvaluator,
    finite_scheme_regularity,
    hilbert_function,
    hilbert_function_values,
    is_k_normal,
    min_normal_degree,
    normality_threshold_bound,
    secant_normality_verdict,
)
from zeroreg.scheme import (
    FiniteScheme,
    germ_on_line,
    make_germ,
    reduced_germ,
    span_dim,
)


def points(*pts, field=None):
    if field is None:
        return FiniteScheme([reduced_germ(p) for p in pts])
    return FiniteScheme([reduced_germ(p, field) for p in pts], field)


COLLINEAR_5 = points((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0))
GENERAL_5 = points((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))


def test_hilbert_function_collinear():
    assert hilbert_function_values(COLLINEAR_5, 5) == [1, 2, 3, 4, 5, 5]
    assert min_normal_degree(COLLINEAR_5) == 4
    assert finite_scheme_regularity(COLLINEAR_5) == 5


def test_hilbert_function_general_points():
    x = points((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    assert hilbert_function(x, 1) == 3
    assert hilbert_function(x, 2) == 4
    assert finite_scheme_regularity(x) == 3
    assert hilbert_function_values(GENERAL_5, 3) == [1, 3, 5, 5]
    assert finite_scheme_regularity(GENERAL_5) == 3


def test_two_points_anywhere():
    x = points((1, 0, 0, 0), (1, 1, 1, 1))
    assert hilbert_function_values(x, 2) == [1, 2, 2]
    assert finite_scheme_regularity(x) == 2
    assert is_k_normal(x, 1) and not is_k_normal(x, 0)


def test_single_germ_arcs():
    conic = FiniteScheme([make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])])
    assert hilbert_function(conic, 1) == 3
    assert finite_scheme_regularity(conic) == 2
    straight = FiniteScheme([germ_on_line((1, 0, 0), (0, 1, 0), 3)])
    assert hilbert_function_values(straight, 3) == [1, 2, 3, 3]
    assert finite_scheme_regularity(straight) == 3


def test_phi_rejects_negative():
    with pytest.raises(ValueError):
        hilbert_function(GENERAL_5, -1)


def sympy_phi(scheme, k):
    # independent route: rank of the functional matrix built symbolically
    t = sympy.Symbol("t")
    rows = []
    for g in scheme.germs:
        coords = []
        for i in range(g.ambient + 1):
            jet = (1,) if i == g.chart else g.jets[i]
            coords.append(sum(sympy.Rational(c) * t**j for j, c in enumerate(jet)))
        for j in range(g.length):
            row = []
            for mon in itertools.product(*[range(k + 1)] * (g.ambient + 1)):
                if sum(mon) != k:
                    continue
                expr = sympy.prod([coords[i] ** e for i, e in enumerate(mon)])
                row.append(sympy.expand(expr).coeff(t, j))
            rows.append(row)
    return sympy.Matrix(rows).rank()


def test_phi_matches_sympy_on_mixed_scheme():
    x = FiniteScheme(
        [
            make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)]),
            germ_on_line((0, 0, 1), (1, 1, 0), 2),
            reduced_germ((1, 5, 2)),
        ]
    )
    assert x.degree == 6
    for k in range(1, 5):
        assert hilbert_function(x, k) == sympy_phi(x, k)


def test_evaluation_matrix_shape_and_rank():
    # the full d x C(N+k, N) matrix, one column per degree-k monomial, has
    # the rank that the operator recurrence reports
    ev = SchemeEvaluator(GENERAL_5)
    cols = [ev.column(mon) for mon in monomials_of_degree(3, 2)]
    m = Matrix([[col[i] for col in cols] for i in range(GENERAL_5.degree)])
    assert (m.nrows, m.ncols) == (5, 6)
    assert m.rank() == hilbert_function(GENERAL_5, 2)


def _monomial_rank(x, k):
    """Reference phi: the rank of the full d x C(N+k, N) evaluation
    matrix, one column per degree-k monomial, from germ.evaluate_form."""
    rows = [[] for _ in range(x.degree)]
    for mon in monomials_of_degree(x.ambient + 1, k):
        col = [v for g in x.germs for v in g.evaluate_form({mon: 1})]
        for row, v in zip(rows, col):
            row.append(v)
    return Matrix(rows, field=x.field).rank()


def _rand_chart_scheme(rng, field):
    """Up to four germs of total length <= 8 in P^2 or P^3, each in a
    random chart, with jet tails over denominators 1..5 that differ from
    germ to germ."""
    n = rng.choice([2, 3])
    while True:
        germs, budget = [], 8
        for _ in range(rng.randint(2, 4)):
            coords = [rng.randint(-3, 3) for _ in range(n + 1)]
            if not any(coords) or budget == 0:
                continue
            chart = rng.choice([i for i, c in enumerate(coords) if c])
            length = rng.randint(1, min(3, budget))
            den = rng.randint(1, 5)
            jets = []
            for i in range(n + 1):
                if i != chart:
                    tail = [Fraction(rng.randint(-4, 4), den) for _ in range(length - 1)]
                    jets.append([field(Fraction(coords[i], coords[chart]))] + tail)
            if length >= 2 and all(j[1] == 0 for j in jets):
                jets[0][1] = field(Fraction(1, den))
            germs.append(make_germ(coords, chart, jets, field))
            budget -= length
        try:
            return FiniteScheme(germs, field)
        except ValueError:
            continue


def _rand_sparse_scheme(rng, field):
    """Germs of length up to 6 whose series have zero coefficients, in
    random charts of P^2 or P^3: some straight (no term past t^1), the
    others with tails drawn from 0, small values and multiples of 7
    (zero over F_7), so the operators' rows have gaps."""
    n = rng.choice([2, 3])
    while True:
        germs, budget = [], 8
        for _ in range(rng.randint(1, 3)):
            coords = [rng.randint(-3, 3) for _ in range(n + 1)]
            if not any(coords) or budget == 0:
                continue
            chart = rng.choice([i for i, c in enumerate(coords) if c])
            length = rng.randint(1, min(6, budget))
            straight = rng.random() < 0.4
            jets = []
            for i in range(n + 1):
                if i != chart:
                    tail = [0 if straight and k > 1
                            else rng.choice((0, 0, 7, -14, Fraction(7, 2), 1, -2))
                            for k in range(1, length)]
                    jets.append([field(Fraction(coords[i], coords[chart]))]
                                + [field(c) for c in tail])
            if length >= 2 and all(j[1] == 0 for j in jets):
                jets[rng.randrange(n)][1] = field(1)
            germs.append(make_germ(coords, chart, jets, field))
            budget -= length
        try:
            return FiniteScheme(germs, field)
        except ValueError:
            continue


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers())
def test_operator_phi_matches_the_monomial_matrix(field, seed):
    # every degree from 0 to d, past saturation included, against the
    # rank of the full monomial matrix; the germs sit in different charts
    # with different jet denominators, so the integer operators must
    # share one scale, and long germs with zero series coefficients
    # leave gaps in the operators' flat rows
    rng = random.Random(seed)
    for x in (_rand_chart_scheme(rng, field), _rand_sparse_scheme(rng, field)):
        ev = SchemeEvaluator(x)
        for k in range(x.degree + 1):
            assert ev.phi(k) == _monomial_rank(x, k)


def test_operator_phi_with_charts_and_denominators_that_differ():
    # the operators of one germ must share one scale: clearing each jet
    # by its own denominator, or leaving the chart coordinate at 1 while
    # the jets are scaled (per germ or by one common denominator), moves
    # these points onto a line and drops phi to 2
    three_points = FiniteScheme([
        make_germ((1, 1, 3), 1, [(1,), (3,)]),
        make_germ((3, -1, -1), 0, [(Fraction(-1, 3),), (Fraction(-1, 3),)]),
        make_germ((1, -3, -1), 1, [(Fraction(-1, 3),), (Fraction(1, 3),)]),
    ])
    point_and_tangent = FiniteScheme([
        make_germ((2, 0, -1), 0, [(0,), (Fraction(-1, 2),)]),
        make_germ((-1, 0, 1), 2, [(-1, 0), (0, Fraction(-1, 4))]),
    ])
    for x in (three_points, point_and_tangent):
        assert hilbert_function_values(x, 3) == [1, 3, 3, 3]
        assert [_monomial_rank(x, k) for k in range(4)] == [1, 3, 3, 3]


def _rand_germ_scheme(rng, field):
    """Random reduced points and line germs of length <= 3 in P^2 or P^3."""
    while True:
        n = rng.choice([2, 3])
        germs = []
        for _ in range(rng.randint(1, 4)):
            pt = [rng.randint(-3, 3) for _ in range(n + 1)]
            direction = [rng.randint(-3, 3) for _ in range(n + 1)]
            length = rng.randint(1, 3)
            try:
                germs.append(germ_on_line(pt, direction, length, field) if length > 1
                             else reduced_germ(pt, field))
            except (ValueError, ZeroDivisionError):
                pass
        try:
            return FiniteScheme(germs, field)
        except ValueError:
            continue


@pytest.mark.parametrize("field", [QQ, prime_field(7)])
def test_hilbert_function_values_saturate_at_the_degree(field, monkeypatch):
    # once phi reaches d the remaining entries are filled without ranks;
    # they must agree with phi computed degree by degree
    ranked = []
    phi = SchemeEvaluator.phi
    monkeypatch.setattr(SchemeEvaluator, "phi", lambda self, k: ranked.append(k) or phi(self, k))
    rng = random.Random(8)
    for _ in range(15):
        x = _rand_germ_scheme(rng, field)
        ranked.clear()
        values = hilbert_function_values(x, x.degree + 2)
        assert ranked == list(range(values.index(x.degree) + 1))
        assert values == [hilbert_function(x, k) for k in range(x.degree + 3)]


def test_phi_over_prime_field():
    F = prime_field(101)
    x = points((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), field=F)
    assert hilbert_function_values(x, 4) == [1, 2, 3, 4, 5]


# the 8 points of the line x2 = 0 over F_7 and (0:0:1): every line of
# P^2 meets x2 = 0, so every linear form vanishes somewhere on the
# support and no chart in a linear form avoids it
F7_LINE_AND_POINT = points(*[(1, a, 0) for a in range(7)], (0, 1, 0), (0, 0, 1),
                           field=prime_field(7))


def test_phi_where_no_linear_form_avoids_the_support():
    x = F7_LINE_AND_POINT
    values = [1, 3, 4, 5, 6, 7, 8, 9, 9, 9]
    assert hilbert_function_values(x, 9) == values
    assert [_monomial_rank(x, k) for k in range(10)] == values


@pytest.mark.parametrize("x, images", [(GENERAL_5, 9), (F7_LINE_AND_POINT, 69)],
                         ids=["general-5", "f7-line-and-point"])
def test_one_operator_image_per_candidate_monomial(x, images, monkeypatch):
    # a step maps each standard monomial m by x_i for i >= last(m) only:
    # mapping every pivot by every operator would take 12 and 102 images
    calls = []
    times = normality._times
    monkeypatch.setattr(normality, "_times", lambda op, vec: calls.append(1) or times(op, vec))
    ev = SchemeEvaluator(x)
    assert ev.phi(x.degree) == x.degree
    assert len(calls) == images


def test_normality_threshold_bound_examples():
    # collinear: span 1, t = 1, so the proved threshold is (5-2)/1 + 1 = 4
    assert normality_threshold_bound(COLLINEAR_5) == 4
    assert min_normal_degree(COLLINEAR_5) == 4
    # general position in the plane: t = 2, threshold (5-3)/2 + 1 = 2
    assert normality_threshold_bound(GENERAL_5) == 2
    # a simplex: d = n + 1 is immediately 1-normal
    assert normality_threshold_bound(points((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1


def rand_points(rng, n, target):
    from zeroreg.scheme import ProjPoint

    pts = set()
    while len(pts) < target:
        cand = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        if any(cand):
            pts.add(ProjPoint(cand))
    return [p.coords for p in pts]


def test_threshold_is_always_valid():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.choice([2, 3])
        x = points(*rand_points(rng, n, rng.randint(2, 7)))
        k0 = normality_threshold_bound(x)
        assert is_k_normal(x, k0)
        assert min_normal_degree(x) <= k0


def test_secant_verdict_planted_secant():
    # five plane points, four on a line: normality first fails at
    # degree d - n - 1 = 2 and the line is a 4-secant
    x = points((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 1, 1))
    v = secant_normality_verdict(x)
    assert (v.degree, v.span) == (5, 2)
    assert v.normal_at_d_minus_n is True
    assert v.normal_at_d_minus_n_1 is False
    assert v.max_collinear == 4
    assert v.has_long_secant is True
    assert v.equivalence_holds is True


def test_secant_verdict_no_secant():
    # only three collinear among five: no 4-secant, and no normality gap
    x = points((1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1))
    v = secant_normality_verdict(x)
    assert v.has_long_secant is False
    assert v.normal_at_d_minus_n is True
    assert v.normal_at_d_minus_n_1 is True
    assert v.equivalence_holds is True
    assert set(v.to_jsonable()) == {
        "degree",
        "span",
        "normal_at_d_minus_n",
        "normal_at_d_minus_n_1",
        "max_collinear",
        "has_long_secant",
        "equivalence_holds",
    }


def test_secant_verdict_degree_guard():
    # d = span + 1 is below the regime of the dichotomy
    x = points((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        secant_normality_verdict(x)
    with pytest.raises(ValueError):
        secant_normality_verdict(points((1, 0, 0), (0, 1, 0)))


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_phi_shape_properties(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    x = points(*rand_points(rng, n, rng.randint(2, 6)))
    d = x.degree
    ev = SchemeEvaluator(x)
    values = [ev.phi(k) for k in range(d)]
    assert values[0] == 1
    # non-decreasing, bounded by the degree, and saturated by k = d - 1
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= d for v in values)
    assert values[-1] == d
    assert values[1] == span_dim(x) + 1
