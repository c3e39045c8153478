import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg import exactalg
from zeroreg.exactalg import QQ, ColumnSpace, Matrix, prime_field
from zeroreg.forms import monomials_of_degree, series_mul
from zeroreg.harness import GenerationExhausted, GeneratorSpec, _draw_germ, gen_scheme
from zeroreg.jsonio import scheme_dumps, scheme_loads
from zeroreg.projection import RationalCurve, _germ_at_parameter, project_point
from zeroreg.scheme import (
    DEFAULT_ENUM_CAP,
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


FIELDS = [QQ, prime_field(7), prime_field(2**31 - 1)]


def _lead_one(coords, field):
    """Reference: the scalars of a point scaled so the first nonzero
    coordinate is 1, as points were stored before they kept ints."""
    lead = next((c for c in coords if field(c) != 0), None)
    return None if lead is None else tuple(field(Fraction(c, lead)) for c in coords)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS),
       st.lists(st.integers(-6, 6), min_size=2, max_size=5),
       st.lists(st.integers(-6, 6), min_size=2, max_size=5),
       st.integers(-4, 4), st.integers(1, 3))
def test_proj_point_matches_the_lead_one_normalisation(field, a, b, num, den):
    b = (b + a)[:len(a)]
    ref_a, ref_b = _lead_one(a, field), _lead_one(b, field)
    if ref_a is None:
        with pytest.raises(ValueError, match="nonzero coordinate"):
            ProjPoint(a, field)
        return
    p = ProjPoint(a, field)
    assert p.coords == ref_a and p.ambient == len(a) - 1
    assert p.vec == field.normal_form(field.ints(a))
    # any nonzero multiple, as ints or as scalars, is the same point
    if field(num) != 0:
        scaled = ProjPoint([Fraction(num, den) * c for c in a], field)
        assert scaled == p and hash(scaled) == hash(p) and scaled.coords == ref_a
    if ref_b is not None:
        q = ProjPoint(b, field)
        assert (p == q) == (ref_a == ref_b)
        if p == q:
            assert hash(p) == hash(q)


def test_points_and_scalars_of_two_fields_do_not_compare():
    F = prime_field(7)
    with pytest.raises(TypeError):
        ProjPoint((1, 2), QQ) == ProjPoint((1, 2), F)
    with pytest.raises(TypeError):
        ProjPoint((1, 2), F) == ProjPoint((1, 2), prime_field(11))
    with pytest.raises(TypeError):
        ProjPoint((1, 2), F).coords[1] == Fraction(2)


def _arith(field):
    """Scalars with arithmetic for the references, and the way back to
    `field`: Fractions over Q, sympy's GF(p) over F_p."""
    if field is QQ:
        return Fraction, QQ
    K = sympy.GF(field.modulus, symmetric=False)

    def lift(x):
        x = Fraction(x.value if type(x) is field else x)
        return K(x.numerator) / K(x.denominator)
    return lift, lambda v: field(int(v))


def _series_quotient(a, b):
    """Reference: the truncated power series a / b over scalars, b[0] a
    unit, by the recursion the Fraction series division used."""
    inv0 = b[0] ** 0 / b[0]
    out = []
    for n in range(len(a)):
        s = a[n] - sum((b[i] * out[n - i] for i in range(1, n + 1)), a[0] * 0)
        out.append(inv0 * s)
    return tuple(out)


def _constant_series(c, length, field):
    return (field(c),) + (field(0),) * (length - 1)


def _hom_series(g, i):
    """Reference: coordinate i along the arc as scalars, from the jets,
    the chart coordinate being 1."""
    return _constant_series(1, g.length, g.field) if i == g.chart else g.jets[i]


def _scalar_rows(x):
    """Reference: the scheme's functionals on linear forms, one row per
    germ and t^k, read off the scalar coordinate series."""
    return [[_hom_series(g, i)[k] for i in range(x.ambient + 1)]
            for g in x.germs for k in range(g.length)]


def _scalar_views(support, chart, jets, field):
    """Reference: jets and int_rows of a germ built from scalar jets in
    the chart, as germs were stored before they kept int series."""
    length = len(next(j for j in jets if j is not None))
    hom = [_constant_series(1, length, field) if i == chart else tuple(jets[i])
           for i in range(len(jets))]
    rows = [[s[k] for s in hom] for k in range(length)]
    return tuple(jets), [field.ints(r) for r in rows]


def _assert_views(g, want):
    jets, int_rows = want
    assert g.jets == jets
    assert g.int_rows() == int_rows
    assert all(type(v) is int for row in g.int_rows() for v in row)
    den = g.series[g.chart][0]
    assert g.series[g.chart] == (den,) + (0,) * (g.length - 1)
    assert den > 0 if g.field is QQ else den == 1


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2**32))
def test_germ_views_match_the_scalar_construction(field, length, seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    coords = [rng.randint(-4, 4) for _ in range(n + 1)]
    chart = rng.randrange(n + 1)
    if field(coords[chart]) == 0:
        coords[chart] = 1
    jets = [None if i == chart else
            (field(Fraction(c, coords[chart])),)
            + tuple(field(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                    for _ in range(length - 1))
            for i, c in enumerate(coords)]
    if length >= 2 and all(j[1] == 0 for j in jets if j is not None):
        jets[(chart + 1) % (n + 1)] = jets[(chart + 1) % (n + 1)][:1] + (field(1),) * (length - 1)
    g = make_germ(coords, chart, [j for j in jets if j is not None], field)
    _assert_views(g, _scalar_views(ProjPoint(coords, field), chart, jets, field))
    for k in range(1, length + 1):
        short = [None if j is None else j[:k] for j in jets]
        _assert_views(g.truncate(k), _scalar_views(g.support, chart, short, field))
    # the arc point + t * direction, divided by its first unit series
    direction = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in coords]
    lift, back = _arith(field)
    base = [lift(c) for c in ProjPoint(coords, field).coords]
    series = [((c, lift(v)) + (lift(0),) * length)[:length] for c, v in zip(base, direction)]
    unit = next(i for i, s in enumerate(series) if s[0] != 0)
    ref = [None if i == unit else tuple(map(back, _series_quotient(s, series[unit])))
           for i, s in enumerate(series)]
    if length >= 2 and all(j[1] == 0 for j in ref if j is not None):
        with pytest.raises(ValueError, match="degenerate arc"):
            germ_on_line(coords, direction, length, field)
        return
    g = germ_on_line(coords, direction, length, field)
    assert (g.chart, g.support) == (unit, ProjPoint(coords, field))
    _assert_views(g, _scalar_views(g.support, unit, ref, field))


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
    for series in ([(1, 0), (2, 1), (3,)], [(), (), ()]):
        with pytest.raises(ValueError, match="nonempty series of one common length"):
            CurvilinearGerm(series)
    with pytest.raises(ValueError, match="all vanish"):
        CurvilinearGerm([(0, 1), (0, 2)])
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
    """Reference: every monomial rebuilt from the scalar coordinate series
    of the arc by repeated multiplication, chart coordinate included,
    on `_arith`'s scalars."""
    lift, back = _arith(g.field)
    out = _constant_series(0, g.length, lift)
    for mon, coeff in form.items():
        term = _constant_series(coeff, g.length, lift)
        for i, e in enumerate(mon):
            for _ in range(e):
                term = series_mul(term, [lift(v) for v in _hom_series(g, i)], g.length)
        out = tuple(a + b for a, b in zip(out, term))
    return tuple(map(back, out))


def _rand_germ(rng, field, length):
    n = rng.choice([2, 3])
    while True:
        coords = [rng.randint(-3, 3) for _ in range(n + 1)]
        chart = rng.randrange(n + 1)
        if coords[chart] % 7:
            break
    jets = []
    for i in range(n + 1):
        if i != chart:
            tail = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(length - 1)]
            jets.append([field(Fraction(coords[i], coords[chart]))] + tail)
    if length >= 2 and all(j[1] == 0 for j in jets):
        jets[0][1] = field(1)
    return make_germ(coords, chart, jets, field)


def _assert_same_scalars(got, want):
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_cached_germ_evaluation_matches_uncached_reference(field):
    rng = random.Random(19)
    for length in range(1, 6):
        for _ in range(6):
            g = _rand_germ(rng, field, length)
            nvars = g.ambient + 1
            # several degrees, in no order, on the same germ; the last two
            # forms are not homogeneous
            for degrees in ((3,), (0,), (5,), (1,), (3,), (0, 2, 5), (1, 4)):
                mons = [m for k in degrees for m in monomials_of_degree(nvars, k)]
                form = {m: Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                        for m in rng.sample(mons, min(len(mons), 4))}
                form = {m: c for m, c in form.items() if c}
                _assert_same_scalars(g.evaluate_form(form), _uncached_composition(g, form))
    # chart 2, its coordinate raised to the powers 4 and 3, next to a
    # constant term
    g = make_germ((2, 3, 1), 2, [(2, Fraction(1, 3), -1, 4), (3, 2, 0, Fraction(-5, 2))], field)
    form = {(0, 0, 4): Fraction(1, 2), (1, 1, 3): Fraction(-3), (2, 0, 1): Fraction(5, 4),
            (0, 0, 0): Fraction(1)}
    _assert_same_scalars(g.evaluate_form(form), _uncached_composition(g, form))


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
    assert max_collinear_length(scheme_of_points(pts)) == 3
    assert max_collinear_length(scheme_of_points(P2_GENERAL_5)) == 2
    assert max_collinear_length(scheme_of_points([(1, 2, 3)])) == 1


def test_max_collinear_scores_each_distinct_line_once(monkeypatch):
    # five aligned points and one off them: 15 pair lines, 6 distinct;
    # lines are scored on their rows and none becomes a subspace
    from zeroreg import scheme

    calls = []
    original = scheme.subspace_from_rows

    def counted(rows, ambient, field=QQ):
        calls.append(rows)
        return original(rows, ambient, field)

    monkeypatch.setattr(scheme, "subspace_from_rows", counted)
    pts = [(1, k, 0) for k in range(5)] + [(0, 0, 1)]
    assert max_collinear_length(scheme_of_points(pts)) == 5
    assert calls == []


def test_max_collinear_tangent_direction():
    # conic arc: the tangent line meets to order exactly 2
    conic = make_germ((1, 0, 0), 0, [(0, 1, 0), (0, 0, 1)])
    assert max_collinear_length(FiniteScheme([conic])) == 2
    # straight germ: full length on its line
    straight = FiniteScheme([germ_on_line((1, 2, 0), (0, 1, 0), 4, )])
    assert max_collinear_length(straight) == 4
    # a length-2 germ pointing at a reduced companion point
    p, q = (1, 0, 0), (1, 3, 0)
    direction = tuple(Fraction(b) - Fraction(a) for a, b in zip(p, q))
    x = FiniteScheme([germ_on_line(p, direction, 2), reduced_germ(q)])
    assert max_collinear_length(x) == 3


def test_max_collinear_length_three_germ_tangent_to_a_secant():
    # a length-3 germ at r, tangent to the line through the supports p and
    # q: a straight germ lies on the line to order 3, a curved one to 2
    p, q, r = (1, 0, 0), (1, 2, 0), (1, 1, 0)

    def longest(jets, field=QQ):
        x = FiniteScheme([reduced_germ(p, field), reduced_germ(q, field),
                          make_germ(r, 0, jets, field)], field)
        return max_collinear_length(x)

    assert longest([(1, 1, 0), (0, 0, 0)]) == 2 + 3
    assert longest([(1, 1, 0), (0, 0, 1)]) == 2 + 2
    assert longest([(1, 1, 5), (0, 0, 1)]) == 2 + 2
    # over F_7 a t^2 coefficient of 7 vanishes: the germ is straight
    F = prime_field(7)
    assert longest([(1, 1, 0), (0, 0, 7)], F) == 2 + 3
    assert longest([(1, 1, 0), (0, 0, 8)], F) == 2 + 2
    # tangent off the secant: the germ meets it in its support only, and
    # its own tangent line (two) does not beat the secant (three)
    x = FiniteScheme([reduced_germ(p), reduced_germ(q), make_germ(r, 0, [(1, 0, 0), (0, 1, 0)])])
    assert max_collinear_length(x) == 3


def test_max_collinear_on_reduced_points_reduces_no_rows(monkeypatch):
    # 80 points in P^3, 12 of them on one line: the search groups the
    # supports by the keys of their pairs and reduces no row
    counts = {"add": 0, "reduce": 0}

    def counted(name):
        original = getattr(ColumnSpace, name)

        def wrapper(self, vec):
            counts[name] += 1
            return original(self, vec)

        monkeypatch.setattr(ColumnSpace, name, wrapper)

    counted("add")
    counted("reduce")
    rng = random.Random(4)
    aligned = [(1, k, 2 * k, 3) for k in range(12)]
    pts = set(aligned)
    while len(pts) < 80:
        pts.add(tuple(rng.randint(-20, 20) for _ in range(4)))
    x = scheme_of_points(aligned + sorted(pts - set(aligned)))
    assert max_collinear_length(x) == 12
    assert counts == {"add": 0, "reduce": 0}


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


def _scalar_kernel_forms(rows, ambient, field):
    """The int forms of the scalar path: the kernel basis of the rows as
    scalars (`Matrix.kernel_basis`), cleared back by `field.ints` of all
    their coefficients on one common scale."""
    forms = Matrix(rows, field=field, ncols=ambient + 1).kernel_basis()
    flat, width = field.ints([c for f in forms for c in f]), ambient + 1
    return [flat[k:k + width] for k in range(0, len(flat), width)]


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
def test_subspace_from_rows_matches_the_scalar_kernel_path(p):
    field = QQ if p == 0 else prime_field(p)
    rng = random.Random(3500 + p % 1000)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(rng.randint(0, n))]
        if rows and rng.random() < 0.4:
            # a dependent row
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)])
        if rows and rng.random() < 0.4:
            # a row with a common factor
            k = rng.randrange(len(rows))
            rows[k] = [rng.choice((2, 3, 6, 7)) * x for x in rows[k]]
        rng.shuffle(rows)
        sub = subspace_from_rows(rows, n, field)
        want = _scalar_kernel_forms(rows, n, field)
        assert len(sub.int_forms) == len(want) and sub.dim == n - len(want)
        if want:
            # one common nonzero scale away: one projective class
            assert field.normal_form([c for f in sub.int_forms for c in f]) == field.normal_form(
                [c for f in want for c in f])
        for _ in range(4):
            if rows and rng.random() < 0.5:
                vec = [sum(rng.randint(-2, 2) * r[i] for r in rows) for i in range(n + 1)]
            else:
                vec = [rng.randint(-5, 5) for _ in range(n + 1)]
            if not any(field.ints(vec)):
                continue
            point = ProjPoint(vec, field)
            values = [sum(c * x for c, x in zip(f, point.vec)) for f in want]
            assert sub.contains_point(point) == (not any(field.ints(values)))
            if any(field.ints(values)):
                assert project_point(point, sub) == ProjPoint(values, field)
    for rows in ([(1, 0, 0), (0, 1)], [(1, 0, 0, 0)]):
        with pytest.raises(ValueError):
            subspace_from_rows(rows, 2, field)


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_subspaces_and_curves_hold_only_ints(monkeypatch):
    F = prime_field(7)
    built = [
        LinearSubspace(3, [(1, 0, 2, 0), (0, 3, 0, 1)]),
        LinearSubspace(3, [(Fraction(1, 2), 0, 2, 0), (0, Fraction(-3, 4), 0, 1)]),
        LinearSubspace(3, [(F(1), 0, F(5), 0), (0, Fraction(1, 2), 0, F(3))], F),
        RationalCurve([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        RationalCurve([(Fraction(1, 2), 0, 0), (0, Fraction(2, 3), 0), (0, 0, 1)]),
    ]
    # a scalar of another field is refused, not read
    for make in (lambda: ProjPoint([F(1), 2, 3]), lambda: LinearSubspace(2, [(F(1), 2, 3)]),
                 lambda: RationalCurve([(F(1), 0), (0, 1)])):
        with pytest.raises(TypeError):
            make()

    # subspace_from_rows builds no scalar: every scalar builder refuses
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    def refuse(*args, **kwargs):
        raise AssertionError("a field element was built")

    monkeypatch.setattr(exactalg, "Fraction", NoFraction)
    monkeypatch.setattr(type(QQ), "__call__", refuse)
    monkeypatch.setattr(type(QQ), "scalar", staticmethod(refuse))
    for field in (QQ, F, prime_field(2**31 - 1)):
        if field is not QQ:
            monkeypatch.setattr(field, "__init__", refuse)
            monkeypatch.setattr(field, "scalar", staticmethod(refuse))
        # a kernel over the denominator 6, and two rows that span a point
        built.append(subspace_from_rows([(2, 1, 0, 0), (0, 3, 1, 0)], 3, field))
        built.append(subspace_from_rows([(1, 1, 1, 1), (2, 2, 2, 2)], 3, field))
    assert built[5].int_forms == ((1, -2, 6, 0), (0, 0, 0, 6))
    for obj in built:
        held = [getattr(obj, slot) for slot in type(obj).__slots__ if slot != "field"]
        assert all(type(v) is int for v in _leaves(held)), obj


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
    monkeypatch.delenv("REGLAB_CAP", raising=False)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_subschemes(x, 2))
    with pytest.raises(EnumerationCapExceeded, match="degree 13 exceeds the enumeration cap 12"):
        invariant_t(x)
    monkeypatch.setenv("REGLAB_CAP", "20")
    assert len(list(enumerate_subschemes(x, 1))) == 13
    # points of a conic: no three collinear, every four dependent
    assert invariant_t(x) == 2


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
        assert max_collinear_length(y) == max_collinear_length(x)
        # supports transform as expected
        for g_old, g_new in zip(x.germs, y.germs):
            image = [sum(a * b for a, b in zip(row, g_old.support.coords)) for row in m.data]
            assert g_new.support == ProjPoint(image)


@pytest.mark.parametrize("field", [QQ, prime_field(7)])
def test_apply_matrix_refuses_a_singular_matrix(field):
    # rank 2: (1:0:0), (0:1:0) and (1:1:1) would land on one line
    x = FiniteScheme([reduced_germ(c, field) for c in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]], field)
    with pytest.raises(ValueError, match=r"singular matrix \[\[1, 0, 0\], \[0, 1, 0\], \[1, 1, 0\]\]"):
        apply_matrix(x, Matrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]], field=field))
    # singular over F_7 only: the determinant is 7
    m = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 7]], field=field)
    if field is QQ:
        assert apply_matrix(x, m).degree == 3
    else:
        with pytest.raises(ValueError, match="singular matrix"):
            apply_matrix(x, m)


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
    n = max_collinear_length(x)
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


def _assert_normalised(g):
    """The germ invariant every reader of `series` relies on."""
    field, length = g.field, g.length
    den = g.series[g.chart][0]
    assert g.series[g.chart] == (den,) + (0,) * (length - 1)
    assert den > 0 if field is QQ else den == 1
    flat = tuple(c for s in g.series for c in s)
    assert field.normal_form(flat, g.chart * length) == flat
    assert g.support.field is field
    assert g.support == ProjPoint([s[0] for s in g.series], field)


@pytest.mark.parametrize("field", [QQ, prime_field(7)])
def test_germs_from_every_path_are_normalised(field):
    # the chart series (2, 3, 1) and the direction's chart entry make two
    # chart series that are not constant before the constructor clears them
    germs = [CurvilinearGerm([(2, 3, 1), (1, 5, 7), (4, 0, 2)], field),
             CurvilinearGerm([(0, 1), (Fraction(1, 2), 3), (3, Fraction(2, 3))], field, 2),
             reduced_germ((3, 6, 9), field), reduced_germ((0, 2, 3), field, 2),
             make_germ((2, 4, 6), 0, [(2, Fraction(1, 2), 4), (3, 0, 5)], field),
             germ_on_line((1, 2, 3), (1, 1, 0), 3, field),
             _draw_germ(random.Random(3), ProjPoint((0, 2, 5), field), 4, (-3, 3), field)]
    germs += [g.truncate(2) for g in germs if g.length > 2]
    x = FiniteScheme(germs[:4], field)
    germs += apply_matrix(x, Matrix([[1, 2, 0], [0, 1, 3], [1, 0, 2]], field=field)).germs
    germs += scheme_loads(scheme_dumps(x)).germs
    if field is QQ:
        curve = RationalCurve([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
        germs.append(_germ_at_parameter(curve, 2, -1, 3))
    for g in germs:
        _assert_normalised(g)
    assert germs[0].chart == 0 and germs[1].chart == 2


def _two_pass_normal_form(vec, lead=None):
    """Reference: the rational normal form as a generator over the
    entries, the sign folded into each quotient."""
    x = next((v for v in vec if v), 0) if lead is None else vec[lead]
    if not x:
        return None
    g = gcd(*vec)
    return tuple(v // g for v in vec) if x > 0 else tuple(-v // g for v in vec)


def test_rational_normal_form_matches_the_two_pass_reference():
    rng = random.Random(2626)
    cases = dict.fromkeys(("negative lead", "content > 1", "content 1", "zero lead",
                           "all zeros"), 0)
    for _ in range(3000):
        vec = [rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(rng.randint(1, 6))]
        vec = [v * rng.choice((1, 1, rng.randint(-6, 6))) for v in vec]
        for lead in (None, rng.randrange(len(vec))):
            got, want = QQ.normal_form(vec, lead), _two_pass_normal_form(vec, lead)
            assert got == want and (got is None or type(got) is tuple)
            x = next((v for v in vec if v), 0) if lead is None else vec[lead]
            cases["all zeros"] += not any(vec)
            cases["zero lead"] += lead is not None and not x and any(vec)
            cases["negative lead"] += x < 0
            cases["content > 1"] += bool(x) and gcd(*vec) > 1
            cases["content 1"] += bool(x) and gcd(*vec) == 1
    assert min(cases.values()) > 100, cases


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_germ_support_matches_the_two_pass_construction(field):
    # the support was the point of the normalised block's constant terms,
    # taken through `field.ints` and the normal form once more
    rng = random.Random(26 + (0 if field is QQ else field.modulus % 1000))
    shapes = set()
    for _ in range(400):
        n, length = rng.randint(1, 4), rng.randint(1, 4)
        fractions = rng.random() < 0.5
        series = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if fractions
                   else rng.randint(-9, 9) * rng.choice((1, 6)) for _ in range(length)]
                  for _ in range(n + 1)]
        # a later chart leaves a first constant term of either sign
        charts = [i for i, s in enumerate(series) if field.ints([s[0]])[0]]
        try:
            g = CurvilinearGerm(series, field, rng.choice(charts) if charts else None)
        except ValueError:
            continue
        constants = [s[0] for s in g.series]
        want = (_two_pass_normal_form(QQ.ints(constants)) if field is QQ
                else field.normal_form(field.ints(constants)))
        assert type(g.support) is ProjPoint and g.support.field is field
        assert g.support.vec == want and g.support == ProjPoint(constants, field)
        assert hash(g.support) == hash(ProjPoint(constants, field))
        assert g.support.coords == ProjPoint(constants, field).coords
        if field is QQ:
            shapes.add((fractions, next(c for c in constants if c) < 0, gcd(*constants) > 1))
        else:
            shapes.add((fractions, g.chart > next(i for i, c in enumerate(constants) if c)))
    # Fraction and int series; over Q constants with a negative lead and
    # with content above 1, which the support divides out; over F_p
    # charts after the first nonzero constant
    assert len(shapes) == (8 if field is QQ else 4)


# ---------------------------------------------------------------------------
# the row view and the searches on it against what they replaced: every
# truncated scheme ranked afresh for invariant_t, series of linear forms
# along the arc for contact_length, and every candidate line built as a
# subspace and scored by contact_length for max_collinear_length


def _random_scheme(rng, field, n, max_degree=DEFAULT_ENUM_CAP, box=1):
    """Up to five germs of lengths 1-4 at small coordinates, some of them
    straight, so collinear and dependent configurations come up often.
    With box > 1, one to three germs of lengths 2-4 come first, then
    reduced points, all with coordinates and jet terms in [-box, box]:
    the search then reduces the germs' deeper rows with large entries
    and carries the points' rows down every path.  A draw that keeps no
    germ (zero or repeated coordinates) is redrawn."""
    if box == 1:
        term = lambda: rng.choice((0, 0, 1, -1, 2))
    else:
        term = lambda: rng.randint(-box, box)
    germs = []
    while not germs:
        seen = set()
        if box == 1:
            lengths = (rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        else:
            lengths = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
            lengths += [1] * rng.randint(1, 8)
        for length in lengths:
            if sum(g.length for g in germs) + length > max_degree:
                break
            coords = [rng.randint(-box, box) for _ in range(n + 1)]
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
                + [field(0 if straight and k > 1 else term()) for k in range(1, length)]
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
                rows.append(_scalar_rows(FiniteScheme([g]))[rng.randrange(g.length)])
            else:
                rows.append([field(rng.randint(-2, 2)) for _ in range(n + 1)])
        sub = subspace_from_rows(rows, n, field)
        if 0 <= sub.dim <= n - 1:
            return sub


def _row_matroid(x):
    """(R, K, free) for the scheme's rows: their rank, the number K = d - R
    of independent dependencies among them, and whether some row lies in
    none, its Gale column being zero (removing it drops the rank)."""
    rows = _scalar_rows(x)
    rank = Matrix(rows, field=x.field).rank()
    free = any(Matrix(rows[:i] + rows[i + 1:], field=x.field, ncols=len(rows[0])).rank() < rank
               for i in range(len(rows)))
    return rank, len(rows) - rank, free


def _invariant_t_reference(x):
    """Every selector of every degree, level by level, ranked afresh."""
    d = x.degree
    if d == 1:
        return 1
    for s in range(2, min(d, x.ambient + 2) + 1):
        for sel in enumerate_subschemes(x, s):
            if Matrix(_scalar_rows(x.truncated(sel)), field=x.field).rank() < s:
                return s - 2
    return d - 1


def _contact_reference(x, sub):
    """Per germ, the least order along the arc of a cutting form."""
    n = x.ambient
    total = 0
    for g in x.germs:
        orders = []
        for f in sub.int_forms:
            form = {tuple(int(i == j) for j in range(n + 1)): c for i, c in enumerate(f) if c}
            series = g.evaluate_form(form)
            orders.append(next((k for k, v in enumerate(series) if v != 0), g.length))
        total += min(orders, default=g.length)
    return total


def _max_collinear_reference(x):
    """Every candidate line (support pairs, then tangent lines) built as
    a subspace and scored by contact_length; the best score."""
    if x.ambient <= 1:
        return x.degree
    n, field = x.ambient, x.field
    lines = [
        subspace_from_rows([a.support.coords, b.support.coords], n, field)
        for a, b in itertools.combinations(x.germs, 2)
    ]
    lines += [subspace_from_rows(_scalar_rows(FiniteScheme([g]))[:2], n, field)
              for g in x.germs if g.length >= 2]
    return max((contact_length(x, line) for line in lines), default=x.degree)


def _check_row_view(field, n, box):
    rng = random.Random(1000 * n + (0 if field is QQ else field.modulus % 1000)
                        + 10**6 * (box - 1))
    levels, degrees = set(), set()
    for _ in range(12):
        x = _random_scheme(rng, field, n, box=box)
        degrees.add(x.degree)
        t = invariant_t(x)
        assert t == _invariant_t_reference(x)
        levels.add(t)
        assert span_dim(x) + 1 == Matrix(_scalar_rows(x), field=field).rank()
        for _ in range(4):
            sub = _random_subspace(rng, x)
            assert contact_length(x, sub) == _contact_reference(x, sub)
            for g in x.germs:
                assert contact_length(g, sub) == _contact_reference(FiniteScheme([g]), sub)
        assert max_collinear_length(x) == _max_collinear_reference(x)
    # the cases reach dependent subschemes, not only general position
    assert min(levels) == 1
    assert max(degrees) > 8


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_view_matches_the_old_compositions(field, n):
    _check_row_view(field, n, box=1)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_view_matches_the_old_compositions_at_wide_coordinates(field, n):
    # large entries exercise the content division over Q, and the long
    # germs drawn first send the search through their deeper rows
    _check_row_view(field, n, box=20)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_collinear_search_matches_the_reference_on_planted_lines(field):
    # harness schemes with a planted line-subscheme: straight germs of
    # length <= 3 on the line, curved ones off it, with and without a
    # nonreduced germ routed along the line
    rng = random.Random(9 + (0 if field is QQ else field.modulus % 1000))
    compared = 0
    for n in (2, 3, 4, 5):
        for secant in (False, True):
            for _ in range(5):
                d = rng.randint(3, 12)
                spec = GeneratorSpec(n, degree=d, max_germ_length=3,
                                     collinear=rng.randint(2, d), secant=secant,
                                     box=(-8, 8), field=field, seed=rng.getrandbits(63))
                try:
                    x = gen_scheme(spec)
                except GenerationExhausted:
                    continue
                assert max_collinear_length(x) == _max_collinear_reference(x) == spec.collinear
                compared += 1
    assert compared >= 30


def _hilbert_mix_spec(rng, field):
    """A GeneratorSpec as the Hilbert suites draw them: general position,
    a planted collinear subscheme, a secant germ along it, or none, with
    germ lengths up to 3."""
    ambient, d = rng.randint(2, 5), rng.randint(2, 10)
    maxlen = rng.choice((1, 2, 2, 3, 3))
    kind = rng.choice(("general", "collinear", "secant", "plain"))
    if kind == "general":
        return GeneratorSpec(ambient, degree=max(d, ambient + 1), max_germ_length=maxlen,
                             general_position=True, box=(-9, 9), field=field,
                             seed=rng.getrandbits(63))
    d = max(d, 3)
    secant = kind == "secant" and maxlen >= 2
    collinear = rng.randint(3, d) if kind != "plain" else None
    return GeneratorSpec(ambient, degree=d, max_germ_length=maxlen, collinear=collinear,
                         secant=secant, box=(-8, 8), field=field, seed=rng.getrandbits(63))


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_invariant_t_matches_the_reference_on_hilbert_mix_schemes(field, monkeypatch):
    # counts[search]: pivot counts after the pushes of the prefix search
    # (rows, N + 1 wide) or the suffix search (Gale columns, narrower);
    # the elimination's rows are wider.  Only a germ's deeper rows are
    # reduced in a search, and one reduced below the last count comes
    # after a sibling branch that pushed past it has returned.
    counts, after_sibling = {"prefix": [], "suffix": []}, {"prefix": 0, "suffix": 0}
    push, reduce = ColumnSpace.push, ColumnSpace.reduce

    def search(vec):
        return None if len(vec) > width else "prefix" if len(vec) == width else "suffix"

    def recording_push(self, v, pending=()):
        grew = push(self, v, pending)
        if search(v):
            counts[search(v)].append(self.rank)
        return grew

    def recording_reduce(self, vec):
        seen = counts.get(search(vec))
        if seen:
            after_sibling[search(vec)] += seen[-1] > self.rank
        return reduce(self, vec)

    monkeypatch.setattr(ColumnSpace, "push", recording_push)
    monkeypatch.setattr(ColumnSpace, "reduce", recording_reduce)
    rng = random.Random(26 + (0 if field is QQ else field.modulus % 1000))
    levels, compared, sides, width = set(), 0, {"prefix": 0, "suffix": 0}, 0
    for _ in range(144):
        try:
            x = gen_scheme(_hilbert_mix_spec(rng, field))
        except GenerationExhausted:
            continue
        width = x.ambient + 1
        for seen in counts.values():
            seen.clear()
        t = invariant_t(x)
        width = 0  # record the searches of this call alone
        assert t == _invariant_t_reference(x)
        levels.add(t)
        compared += 1
        rank, corank, _ = _row_matroid(x)
        if corank:
            sides["suffix" if corank < rank and x.degree < 2 * x.ambient + 2 else "prefix"] += 1
    assert compared >= 100
    # dependent subschemes of degree 3, both searches, and deeper rows
    # past a sibling in each (measured: at least 43 schemes a side, and
    # over F_7 25 such rows in the prefix search and 5 in the suffix one)
    assert min(levels) == 1 and max(levels) >= 3
    assert min(sides.values()) >= 40
    assert after_sibling["prefix"] >= 20 and after_sibling["suffix"] >= 5


def _embedded(x, n):
    """The scheme x of P^m as a scheme of P^n, n > m, inside the span of
    the first m + 1 coordinates: its rows then reach rank at most m + 1."""
    pad = n - x.ambient
    return FiniteScheme([CurvilinearGerm(g.series + ((0,) * g.length,) * pad, x.field, g.chart)
                         for g in x.germs], x.field)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_invariant_t_matches_the_reference_on_both_sides_of_the_row_matroid(field):
    # below d = 2(N + 1) the search side is set by the rank R of the rows
    # and the number K = d - R of dependencies; a third of the schemes
    # lie in a smaller coordinate space, so that K >= R comes up too
    rng = random.Random(31 + (0 if field is QQ else field.modulus % 1000))
    seen = set()
    for _ in range(80):
        n = rng.randint(2, 6)
        m = rng.choice((n, n, rng.randint(1, n - 1)))
        x = _random_scheme(rng, field, m, box=rng.choice((1, 1, 3)))
        if m < n:
            x = _embedded(x, n)
        t = invariant_t(x)
        assert t == _invariant_t_reference(x)
        rank, corank, free = _row_matroid(x)
        if x.degree >= 2 * (n + 1):
            seen.add("d >= 2(N + 1)")
        elif not 0 < corank < rank:
            seen.add("K = 0" if not corank else "K = R" if corank == rank else "K > R")
        else:
            seen.update(name for name, hit in (
                ("suffix, K = 1", corank == 1), ("suffix, K = R - 1", corank == rank - 1),
                ("suffix, t = 1", t == 1), ("suffix, a row in no dependency", free),
                ("suffix, a germ of length 4", max(g.length for g in x.germs) == 4)) if hit)
    assert seen == {"d >= 2(N + 1)", "K = 0", "K = R", "K > R", "suffix, K = 1",
                    "suffix, K = R - 1", "suffix, t = 1", "suffix, a row in no dependency",
                    "suffix, a germ of length 4"}


def test_invariant_t_on_general_points_searches_the_dependencies(monkeypatch):
    # d points of the rational normal curve of P^N are in linearly general
    # position, so t = N.  With K = d - N - 1 < N + 1 dependencies the
    # search walks K-wide columns: 12 points in P^9 take the C(12, 2) = 66
    # steps of the one elimination and none after it (4,072 steps in the
    # row search), and 10 points in P^5 take 122 (841 in the row search)
    steps = 0
    eliminate = exactalg._eliminate

    def counting_eliminate(*args):
        nonlocal steps
        steps += 1
        return eliminate(*args)

    monkeypatch.setattr(exactalg, "_eliminate", counting_eliminate)
    for n, d, most in ((9, 12, 66), (5, 10, 130)):
        x = scheme_of_points([[a ** k for k in range(n + 1)] for a in range(1, d + 1)])
        steps = 0
        assert invariant_t(x) == n
        assert steps <= most


def test_germ_int_rows_are_the_rows_cleared():
    g = make_germ((2, 1, 7), 1, [(2, Fraction(1, 2), 4), (7, Fraction(-1, 3), 1)])
    assert g.int_rows() == [[2, 1, 7], [3, 0, -2], [4, 0, 1]]
    assert g.int_rows() is g.int_rows()
    F = prime_field(7)
    h = make_germ((2, 1, 7), 1, [(2, -1, 4), (7, 0, 1)], F)
    assert h.int_rows() == [[2, 1, 0], [6, 0, 0], [4, 0, 1]]


def test_germ_rows_are_the_coordinate_coefficients():
    g = make_germ((2, 1, 7), 1, [(2, -1, 4), (7, 0, 1)])
    assert g.int_rows() == [[2, 1, 7], [-1, 0, 0], [4, 0, 1]]
    x = FiniteScheme([g, reduced_germ((1, 0, 0))])
    assert _scalar_rows(x) == g.int_rows() + [[1, 0, 0]]
    for k in range(1, 4):
        assert g.truncate(k).int_rows() == g.int_rows()[:k]
