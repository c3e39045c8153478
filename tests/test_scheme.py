import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg.exactalg import QQ, Matrix, prime_field
from zeroreg.forms import monomials_of_degree, series_mul, series_of_constant
from zeroreg.scheme import (
    CurvilinearGerm,
    EnumerationCapExceeded,
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    apply_matrix,
    contact_length,
    enumerate_subschemes,
    germ_on_line,
    invariant_t,
    make_germ,
    max_collinear_length,
    reduced_germ,
    span_dim,
    subspace_from_rows,
)


def scheme_of_points(pts, field=None):
    if field is None:
        return FiniteScheme([reduced_germ(p) for p in pts])
    return FiniteScheme([reduced_germ(p, field) for p in pts], field)


P2_GENERAL_5 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
P3_GENERAL_6 = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 1, 1),
    (1, 2, 4, 8),
]


def test_fixture_positions_verified_by_sympy():
    # the fixtures really are in general position
    for triple in itertools.combinations(P2_GENERAL_5, 3):
        assert sympy.Matrix(triple).rank() == 3
    for triple in itertools.combinations(P3_GENERAL_6, 3):
        assert sympy.Matrix(triple).rank() == 3
    for quad in itertools.combinations(P3_GENERAL_6, 4):
        assert sympy.Matrix(quad).rank() == 4


def test_proj_point_normalization():
    p = ProjPoint((0, 2, 4))
    assert p.coords == (Fraction(0), Fraction(1), Fraction(2))
    assert p == ProjPoint((0, 3, 6))
    assert hash(p) == hash(ProjPoint((0, 1, 2)))
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))


def test_reduced_germ_and_span():
    x = scheme_of_points(P2_GENERAL_5)
    assert x.degree == 5
    assert span_dim(x) == 2
    collinear = scheme_of_points([(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert span_dim(collinear) == 1
    assert span_dim(scheme_of_points([(1, 2, 3)])) == 0


def test_germ_validation():
    with pytest.raises(ValueError, match="constant term"):
        make_germ((1, 2, 3), 0, [(5, 1), (3, 0)])
    with pytest.raises(ValueError, match="degenerate arc"):
        make_germ((1, 2, 3), 0, [(2, 0), (3, 0)])
    with pytest.raises(ValueError, match="common length"):
        make_germ((1, 2, 3), 0, [(2, 1), (3,)])
    # duplicate supports rejected at the scheme level
    with pytest.raises(ValueError, match="distinct"):
        FiniteScheme([reduced_germ((1, 1, 1)), reduced_germ((2, 2, 2))])


def test_evaluate_form_against_sympy_series():
    t = sympy.Symbol("t")
    g = make_germ((1, 2, 3), 0, [(2, 1, 0), (3, 0, 5)])
    # f = x0*x2 - x1^2
    f = {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}
    got = g.evaluate_form(f)
    sy = (3 + 5 * t**2) - (2 + t) ** 2
    want = sympy.Poly(sympy.expand(sy), t).all_coeffs()[::-1]
    for k in range(3):
        w = want[k] if k < len(want) else 0
        assert got[k] == Fraction(int(w))


def _uncached_composition(g, form):
    """Reference: every monomial rebuilt from the coordinate series of the
    arc by repeated multiplication, chart coordinate included."""
    out = series_of_constant(0, g.length, g.field)
    for mon, coeff in form.items():
        term = series_of_constant(coeff, g.length, g.field)
        for i, e in enumerate(mon):
            for _ in range(e):
                term = series_mul(term, g.hom_series(i), g.length)
        out = tuple(a + b for a, b in zip(out, term))
    return out


def _rand_germ(rng, field, length):
    n = rng.choice([2, 3])
    while True:
        coords = [rng.randint(-3, 3) for _ in range(n + 1)]
        chart = rng.randrange(n + 1)
        if coords[chart] % 7:
            break
    lead = field(coords[chart])
    jets = []
    for i in range(n + 1):
        if i != chart:
            tail = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(length - 1)]
            jets.append([field(coords[i]) / lead] + tail)
    if length >= 2 and all(j[1] == 0 for j in jets):
        jets[0][1] = field(1)
    return make_germ(coords, chart, jets, field)


@pytest.mark.parametrize("field", [QQ, prime_field(7)])
def test_cached_germ_evaluation_matches_uncached_reference(field):
    rng = random.Random(19)
    for length in range(1, 5):
        for _ in range(6):
            g = _rand_germ(rng, field, length)
            nvars = g.ambient + 1
            # several degrees, in no order, on the same germ
            for k in (3, 0, 5, 1, 3):
                mons = monomials_of_degree(nvars, k)
                form = {m: Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                        for m in rng.sample(mons, min(len(mons), 4))}
                form = {m: c for m, c in form.items() if c}
                assert g.evaluate_form(form) == _uncached_composition(g, form)


def test_invariant_t_general_position():
    assert invariant_t(scheme_of_points(P2_GENERAL_5)) == 2
    assert invariant_t(scheme_of_points(P3_GENERAL_6)) == 3


def test_invariant_t_small_and_degenerate():
    # a single point
    assert invariant_t(scheme_of_points([(1, 0, 0)])) == 1
    # two points span a line
    assert invariant_t(scheme_of_points([(1, 0, 0), (0, 1, 0)])) == 1
    # 4 points in P^3, general: no dependent level up to the degree
    assert invariant_t(scheme_of_points(P3_GENERAL_6[:4])) == 3
    # three collinear among five: a trisecant line forces t = 1
    pts = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1)]
    assert invariant_t(scheme_of_points(pts)) == 1
    # six points in P^3 with four coplanar (x3 = 0) but no three collinear
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 2, 3, 4)]
    for triple in itertools.combinations(pts, 3):
        assert sympy.Matrix(triple).rank() == 3
    assert invariant_t(scheme_of_points(pts)) == 2


def test_invariant_t_nonreduced():
    # a straight length-3 germ is a collinear triple infinitesimally
    straight = FiniteScheme([germ_on_line((1, 0, 0), (0, 1, 0), 3)])
    assert invariant_t(straight) == 1
    # an arc of a smooth conic has every length-3 piece spanning a plane
    conic = make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])
    assert invariant_t(FiniteScheme([conic])) == 2


def test_max_collinear_reduced():
    pts = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1)]
    n, line = max_collinear_length(scheme_of_points(pts))
    assert n == 3
    for p in pts[:3]:
        assert line.contains_point(ProjPoint(p))
    n, _ = max_collinear_length(scheme_of_points(P2_GENERAL_5))
    assert n == 2
    assert max_collinear_length(scheme_of_points([(1, 2, 3)])) == (1, None)


def test_max_collinear_scores_each_distinct_line_once(monkeypatch):
    # five aligned points and one off them: 15 pair lines, 6 distinct
    from zeroreg import scheme

    calls = []
    original = scheme.contact_length

    def counted(x, line):
        calls.append(line)
        return original(x, line)

    monkeypatch.setattr(scheme, "contact_length", counted)
    pts = [(1, k, 0) for k in range(5)] + [(0, 0, 1)]
    n, line = max_collinear_length(scheme_of_points(pts))
    assert n == 5 and all(line.contains_point(ProjPoint(p)) for p in pts[:5])
    assert len(calls) == 6


def test_max_collinear_tangent_direction():
    # conic arc: the tangent line meets to order exactly 2
    conic = make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])
    n, line = max_collinear_length(FiniteScheme([conic]))
    assert n == 2
    assert line.contains_point(ProjPoint((1, 0, 0)))
    # straight germ: full length on its line
    straight = FiniteScheme([germ_on_line((1, 2, 0), (0, 1, 0), 4, )])
    n, line = max_collinear_length(straight)
    assert n == 4
    # a length-2 germ pointing at a reduced companion point
    p, q = (1, 0, 0), (1, 3, 0)
    direction = tuple(Fraction(b) - Fraction(a) for a, b in zip(p, q))
    x = FiniteScheme([germ_on_line(p, direction, 2), reduced_germ(q)])
    n, line = max_collinear_length(x)
    assert n == 3
    assert line.contains_point(ProjPoint(q))


def test_contact_length_hyperplane():
    # germ on the line x2 = 0 has full contact with that hyperplane
    g = germ_on_line((1, 0, 0), (0, 1, 0), 3)
    h = LinearSubspace(2, [(0, 0, 1)])
    assert contact_length(g, h) == 3
    # the conic arc (1, t, t^2) meets x1 = 0 to order 1, x2 = 0 to order 2
    conic = make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])
    assert contact_length(conic, LinearSubspace(2, [(0, 1, 0)])) == 1
    assert contact_length(conic, LinearSubspace(2, [(0, 0, 1)])) == 2


def test_subspace_helpers():
    line = subspace_from_rows([(1, 0, 0, 0), (0, 1, 0, 0)], 3)
    assert line.dim == 1
    assert line.contains_point(ProjPoint((2, 5, 0, 0)))
    assert not line.contains_point(ProjPoint((0, 0, 1, 0)))
    plane = subspace_from_rows([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 3)
    assert plane.dim == 2
    # two proportional vectors span a point, not a line
    assert subspace_from_rows([(1, 1, 1), (2, 2, 2)], 2).dim == 0
    with pytest.raises(ValueError, match="independent"):
        LinearSubspace(2, [(1, 0, 0), (2, 0, 0)])


def test_enumerate_subschemes_counts():
    x = scheme_of_points([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert len(list(enumerate_subschemes(x, 2))) == 6
    y = FiniteScheme(
        [germ_on_line((1, 0, 0), (0, 1, 0), 2), make_germ((0, 0, 1), 2, [(0, 1, 0), (0, 0, 1)])]
    )
    sels = list(enumerate_subschemes(y, 3))
    assert sorted(sels) == [(0, 3), (1, 2), (2, 1)]
    # selectors reconstruct schemes of the right degree
    for sel in sels:
        assert y.truncated(sel).degree == 3


def test_enumeration_cap(monkeypatch):
    pts = [(1, i, i * i) for i in range(13)]
    x = scheme_of_points(pts)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_subschemes(x, 2))
    monkeypatch.setenv("REGLAB_CAP", "20")
    assert len(list(enumerate_subschemes(x, 1))) == 13


def test_prime_field_scheme():
    F = prime_field(101)
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    x = scheme_of_points(pts, field=F)
    assert span_dim(x) == 2
    assert invariant_t(x) == 2


def rand_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(rows).det() != 0:
            return Matrix(rows)


def test_apply_matrix_preserves_invariants():
    rng = random.Random(7)
    conic = make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])
    x = FiniteScheme(
        [conic, reduced_germ((0, 0, 1)), reduced_germ((1, 5, 1)), germ_on_line((0, 1, 0), (1, 0, 1), 2)]
    )
    for _ in range(5):
        m = rand_invertible(rng, 3)
        y = apply_matrix(x, m)
        assert y.degree == x.degree
        assert span_dim(y) == span_dim(x)
        assert invariant_t(y) == invariant_t(x)
        assert max_collinear_length(y)[0] == max_collinear_length(x)[0]
        # supports transform as expected
        for g_old, g_new in zip(x.germs, y.germs):
            image = [sum(a * b for a, b in zip(row, g_old.support.coords)) for row in m.data]
            assert g_new.support == ProjPoint(image)


@settings(max_examples=60, deadline=None)
@given(st.integers())
def test_trisecant_dichotomy_in_plane(seed):
    # for reduced plane schemes: t = 1 exactly when some line is trisecant
    rng = random.Random(seed)
    pts = set()
    while len(pts) < rng.randint(2, 6):
        pts.add(ProjPoint((1, rng.randint(-3, 3), rng.randint(-3, 3))))
    x = FiniteScheme([reduced_germ(p) for p in pts])
    t = invariant_t(x)
    n, _ = max_collinear_length(x)
    if x.degree == 2:
        assert t == 1
    elif n >= 3:
        assert t == 1
    else:
        assert t == 2


def test_truncate_roundtrip():
    g = make_germ((1, 2, 3), 0, [(2, 1, 4), (3, 0, 5)])
    assert g.truncate(3) is g
    short = g.truncate(2)
    assert short.length == 2
    assert short.jets[1] == (Fraction(2), Fraction(1))
    assert g.truncate(1).length == 1
    with pytest.raises(ValueError):
        g.truncate(0)
    with pytest.raises(ValueError):
        g.truncate(4)


# ---------------------------------------------------------------------------
# the row view against the compositions it replaced: truncated schemes for
# invariant_t, series of linear forms along the arc for contact_length, and
# support/velocity lines for max_collinear_length


def _random_scheme(rng, field, n, max_degree=10):
    """Up to four germs of lengths 1-4 at small coordinates, some of them
    straight, so collinear and dependent configurations come up often."""
    germs, seen = [], set()
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, 4)
        if sum(g.length for g in germs) + length > max_degree:
            break
        coords = [rng.randint(-1, 1) for _ in range(n + 1)]
        if not any(coords):
            continue
        p = ProjPoint(coords, field)
        if p in seen:
            continue
        seen.add(p)
        chart = next(i for i, c in enumerate(p.coords) if c != 0)
        # a third of the germs are straight: no jet term past t^1
        straight = rng.random() < 0.3
        jets = [
            [p.coords[i]]
            + [field(0 if straight and k > 1 else rng.choice((0, 0, 1, -1, 2)))
               for k in range(1, length)]
            for i in range(n + 1)
            if i != chart
        ]
        if length >= 2 and all(j[1] == 0 for j in jets):
            jets[rng.randrange(n)][1] = field(1)
        germs.append(make_germ(p, chart, jets, field))
    return FiniteScheme(germs, field)


def _random_subspace(rng, x):
    """A subspace of dimension 0 .. N - 1 spanned by germ rows and random
    vectors, so that contacts of every size occur."""
    n, field = x.ambient, x.field
    while True:
        rows = []
        for _ in range(rng.randint(1, n)):
            if rng.random() < 0.7:
                g = rng.choice(x.germs)
                rows.append(g.linear_rows()[rng.randrange(g.length)])
            else:
                rows.append([field(rng.randint(-2, 2)) for _ in range(n + 1)])
        sub = subspace_from_rows(rows, n, field)
        if 0 <= sub.dim <= n - 1:
            return sub


def _invariant_t_reference(x):
    d = x.degree
    if d == 1:
        return 1
    for s in range(2, min(d, x.ambient + 2) + 1):
        for sel in enumerate_subschemes(x, s):
            if Matrix(x.truncated(sel).linear_rows(), field=x.field).rank() < s:
                return s - 2
    return d - 1


def _contact_reference(x, sub):
    """Per germ, the least order along the arc of a cutting form."""
    n = x.ambient
    total = 0
    for g in x.germs:
        orders = []
        for f in sub.cutting_forms:
            form = {tuple(int(i == j) for j in range(n + 1)): c for i, c in enumerate(f) if c}
            series = g.evaluate_form(form)
            orders.append(next((k for k, v in enumerate(series) if v != 0), g.length))
        total += min(orders, default=g.length)
    return total


def _max_collinear_reference(x):
    n, field = x.ambient, x.field
    lines = [
        subspace_from_rows([a.support.coords, b.support.coords], n, field)
        for a, b in itertools.combinations(x.germs, 2)
    ]
    for g in x.germs:
        if g.length >= 2:
            velocity = [field(0) if j is None else j[1] for j in g.jets]
            lines.append(subspace_from_rows([g.support.coords, velocity], n, field))
    if not lines:
        return x.degree
    return max(_contact_reference(x, line) for line in lines)


@pytest.mark.parametrize("field", [QQ, prime_field(7)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_view_matches_the_old_compositions(field, n):
    rng = random.Random(1000 * n + (0 if field is QQ else 7))
    levels = set()
    for _ in range(12):
        x = _random_scheme(rng, field, n)
        t = invariant_t(x)
        assert t == _invariant_t_reference(x)
        levels.add(t)
        for _ in range(4):
            sub = _random_subspace(rng, x)
            assert contact_length(x, sub) == _contact_reference(x, sub)
            for g in x.germs:
                assert contact_length(g, sub) == _contact_reference(FiniteScheme([g]), sub)
        longest, line = max_collinear_length(x)
        assert longest == _max_collinear_reference(x)
        if line is not None:
            assert line.dim == 1 and contact_length(x, line) == longest
    # the cases reach dependent subschemes, not only general position
    assert min(levels) == 1


def test_germ_rows_are_the_coordinate_coefficients():
    g = make_germ((2, 1, 7), 1, [(2, -1, 4), (7, 0, 1)])
    assert g.linear_rows() == [[2, 1, 7], [-1, 0, 0], [4, 0, 1]]
    x = FiniteScheme([g, reduced_germ((1, 0, 0))])
    assert x.linear_rows() == g.linear_rows() + [[1, 0, 0]]
    for k in range(1, 4):
        assert g.truncate(k).linear_rows() == g.linear_rows()[:k]
