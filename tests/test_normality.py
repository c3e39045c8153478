import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
            coords.append(sum(sympy.Rational(c) * t**j for j, c in enumerate(g.hom_series(i))))
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
    # the rank that the streamed, early-stopping phi reports
    ev = SchemeEvaluator(GENERAL_5)
    cols = [ev.column(mon) for mon in monomials_of_degree(3, 2)]
    m = Matrix([[col[i] for col in cols] for i in range(GENERAL_5.degree)])
    assert (m.nrows, m.ncols) == (5, 6)
    assert m.rank() == hilbert_function(GENERAL_5, 2)


def test_phi_reaches_every_support_with_the_first_columns(monkeypatch):
    # x_0 vanishes at two of the points, so graded-lex order would keep
    # the rank below d until the monomials free of x_0 at the end of the
    # degree; pure powers first reach d with d columns
    x = points((1, 2, 3, 5), (0, 1, 4, 2), (0, 3, 1, 1), (1, -1, 2, 7), (2, 1, 1, 3))
    seen = []
    column = SchemeEvaluator.column
    monkeypatch.setattr(SchemeEvaluator, "column",
                        lambda self, mon: seen.append(mon) or column(self, mon))
    for k in (2, 6):
        seen.clear()
        assert SchemeEvaluator(x).phi(k) == 5
        assert len(seen) == 5
        assert seen[:4] == [tuple(k * (i == j) for i in range(4)) for j in range(4)]


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
