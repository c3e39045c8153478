import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroreg.exactalg import QQ, prime_field
from zeroreg.forms import (
    _binary_gcd,
    _gcd,
    binary_degree,
    binary_eval,
    binary_gcd_many,
    cleared_form,
    cleared_form_values,
    evaluate_form,
    form_values,
    monomials_of_degree,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_exact_div,
    poly_mul,
    poly_normalize,
    poly_pseudo_rem,
    poly_taylor_shift,
    rational_roots,
    series_mul,
    squarefree_decomposition,
)

x = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in p])) or [0], x)


def from_sympy(q):
    return poly_normalize(tuple(Fraction(c.p, c.q) for c in reversed(q.all_coeffs())))


def rand_poly(rng, deg):
    return poly_normalize([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)])


def test_monomials_count_and_order():
    mons = monomials_of_degree(3, 2)
    assert len(mons) == 6
    assert mons[0] == (2, 0, 0)
    assert mons[-1] == (0, 0, 2)
    assert all(sum(m) == 2 for m in mons)
    # graded-lex: strictly decreasing as tuples
    assert all(a > b for a, b in zip(mons, mons[1:]))
    # binomial count in general
    assert len(monomials_of_degree(4, 3)) == 20


def test_form_evaluate_matches_substitution():
    # (x0 + 2 x1 + 3 x2)^2 + 7 x2, expanded
    f = {
        (2, 0, 0): Fraction(1), (1, 1, 0): Fraction(4), (1, 0, 1): Fraction(6),
        (0, 2, 0): Fraction(4), (0, 1, 1): Fraction(12), (0, 0, 2): Fraction(9),
        (0, 0, 1): Fraction(7),
    }
    pt = (Fraction(1), Fraction(-1), Fraction(2))
    # (1 - 2 + 6)^2 + 7*2 = 25 + 14
    assert evaluate_form(f, pt) == 39


def test_series_mul_truncates_the_product():
    a = (Fraction(2), Fraction(1), Fraction(0), Fraction(3))
    b = (Fraction(1), Fraction(5), Fraction(-2))
    assert series_mul(a, b) == (Fraction(2), Fraction(11), Fraction(1))
    assert series_mul(a, b, 2) == (2, 11)
    # over F_13, on residues
    assert [v % 13 for v in series_mul((3, 1, 7), (9, 0, 4))] == [1, 9, 10]


def _divmod_reference(a, b):
    """Long division over Q in Fractions: (q, r) with a = q b + r."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return poly_normalize(q), poly_normalize(a[: len(b) - 1])


def _monic_reference(a):
    return tuple(Fraction(c) / a[-1] for c in a)


def _gcd_reference(a, b):
    """Monic gcd over Q by Euclid on Fractions."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, _divmod_reference(a, b)[1]
    return _monic_reference(a) if a else ()


def _squarefree_reference(p):
    """Yun's decomposition over Q on Fractions, monic factors."""
    p = _monic_reference(poly_normalize(p))
    if poly_degree(p) < 1:
        return []
    dp = poly_derivative(p)
    a = _gcd_reference(p, dp)
    b = _divmod_reference(p, a)[0]
    d = _sub_reference(_divmod_reference(dp, a)[0], poly_derivative(b))
    out, i = [], 1
    while poly_degree(b) > 0:
        a = _gcd_reference(b, d)
        if poly_degree(a) > 0:
            out.append((a, i))
        b = _divmod_reference(b, a)[0]
        d = _sub_reference(_divmod_reference(d, a)[0], poly_derivative(b))
        i += 1
    return out


def _sub_reference(a, b):
    n = max(len(a), len(b))
    return poly_normalize([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                           for i in range(n)])


def _int_poly(rng, deg, box=9):
    """A random int polynomial of exact degree deg."""
    return tuple(rng.randint(-box, box) for _ in range(deg)) + (rng.choice(
        [c for c in range(-box, box + 1) if c]),)


def _planted(rng, roots, mult, quadratics):
    """A product of linear factors (den x - num), each to a power up to
    mult, times irreducible quadratics x^2 + c (c > 0), each squared or
    not: repeated roots, rational and irrational."""
    p = (rng.choice([1, -2, 3]),)
    for _ in range(roots):
        factor = (-rng.randint(-6, 6), rng.randint(1, 4))
        for _ in range(rng.randint(1, mult)):
            p = poly_mul(p, factor)
    for _ in range(quadratics):
        factor = (rng.randint(1, 5), 0, 1)
        for _ in range(rng.randint(1, 2)):
            p = poly_mul(p, factor)
    return p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers())
def test_poly_divmod_identity(da, db, seed):
    # pseudo-division: lc(b)^e a = q b + r with deg r < deg b
    rng = random.Random(seed)
    a = poly_normalize(_int_poly(rng, da))
    b = _int_poly(rng, db)
    r = poly_pseudo_rem(a, b)
    scale = b[-1] ** max(len(a) - len(b) + 1, 0)
    lhs = to_sympy(tuple(scale * c for c in a)).as_expr() - to_sympy(r).as_expr()
    assert sympy.rem(lhs, to_sympy(b).as_expr(), x) == 0
    assert poly_degree(r) < poly_degree(b) or r == ()
    assert all(type(c) is int for c in r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(0, 30), st.integers())
@example(60, 30, 1)
@example(60, 1, 2)
def test_int_divmod_matches_the_fraction_reference(da, db, seed):
    rng = random.Random(seed)
    a = _int_poly(rng, da)
    b = _int_poly(rng, db)
    q_ref, r_ref = _divmod_reference(a, b)
    scale = b[-1] ** max(len(a) - len(b) + 1, 0)
    assert poly_pseudo_rem(a, b) == tuple(scale * c for c in r_ref)
    # a primitive divisor divides exactly in Z[x]
    g = gcd(*b)
    b = tuple(c // g for c in b)
    got = poly_exact_div(poly_mul(a, b), b)
    assert got == a and all(type(c) is int for c in got)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(1, 3),
       st.integers())
@example(20, 20, 20, 3, 1)
@example(0, 20, 20, 1, 2)
def test_int_gcd_matches_the_fraction_reference(dc, da, db, mult, seed):
    # a planted common factor with repeated roots, up to degree 60
    rng = random.Random(seed)
    common = poly_mul(_int_poly(rng, dc), _planted(rng, rng.randint(0, 3), mult, 0))
    a = poly_mul(_int_poly(rng, da), common)
    b = poly_mul(_int_poly(rng, db), common)
    got = _gcd(a, b, QQ)
    assert _monic_reference(got) == _gcd_reference(a, b)
    assert got[-1] > 0 and gcd(*got) == 1 and all(type(c) is int for c in got)
    assert poly_degree(got) >= poly_degree(common)
    # binary_gcd_many: the same primitive int gcd, with the pad for s
    assert binary_gcd_many([a + (0,), b + (0, 0)]) == got + (0,)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2), st.integers(0, 12),
       st.integers())
@example(6, 4, 2, 12, 1)
def test_int_squarefree_decomposition_matches_the_fraction_reference(
        roots, mult, quadratics, extra, seed):
    rng = random.Random(seed)
    p = poly_mul(_planted(rng, roots, mult, quadratics), _int_poly(rng, extra))
    got = squarefree_decomposition(p)
    assert [(_monic_reference(f), m) for f, m in got] == _squarefree_reference(p)
    recon = (1,)
    for f, m in got:
        assert f[-1] > 0 and gcd(*f) == 1 and all(type(c) is int for c in f)
        for _ in range(m):
            recon = poly_mul(recon, f)
    # p is a rational multiple of the product
    assert poly_degree(recon) == poly_degree(p)
    assert all(c * p[-1] == d * recon[-1] for c, d in zip(recon, p))


def test_int_gcd_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        if not a or not b:
            continue
        common = rand_poly(rng, rng.randint(0, 3))
        if common:
            a, b = poly_mul(a, common), poly_mul(b, common)
        got = _gcd(a, b, QQ)
        want = from_sympy(sympy.Poly(sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr()), x))
        # equal up to a scalar: both made monic
        assert _monic_reference(got) == tuple(c / want[-1] for c in want)


def test_gcd_of_int_coefficients_is_exact():
    # the gcds stay in Z[x]: primitive ints with a positive lead, no floats
    got = _gcd((2, 1), (4, 2), QQ)
    assert got == (2, 1) and all(type(c) is int for c in got)
    got = binary_gcd_many([(0, 0, 0, 1), (0, 0, 1, 0)])
    assert got == (0, 0, 1) and all(type(c) is int for c in got)


def test_taylor_shift():
    # p(x) = x^3 - 2x + 5 at x + 2: evaluate both ways
    p = (Fraction(5), Fraction(-2), Fraction(0), Fraction(1))
    shifted = poly_taylor_shift(p, Fraction(2))
    for v in (Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2)):
        assert poly_eval(shifted, v) == poly_eval(p, v + 2)
    # truncation pads with zeros past the degree
    assert poly_taylor_shift(p, Fraction(2), length=6) == shifted + (Fraction(0), Fraction(0))
    assert poly_taylor_shift(p, Fraction(2), length=2) == shifted[:2]


def test_squarefree_decomposition():
    # (x-1)^3 (x+2)^2 (x-5)
    p = (Fraction(1),)
    for root, mult in ((1, 3), (-2, 2), (5, 1)):
        for _ in range(mult):
            p = poly_mul(p, (Fraction(-root), Fraction(1)))
    dec = squarefree_decomposition(p)
    assert sorted(m for _, m in dec) == [1, 2, 3]
    recon = (Fraction(1),)
    for fac, mult in dec:
        for _ in range(mult):
            recon = poly_mul(recon, fac)
    assert recon == p
    for fac, _ in dec:
        g = _gcd(fac, poly_derivative(fac), QQ)
        assert poly_degree(g) == 0


def test_rational_roots_known():
    # 6x^3 - 5x^2 - 2x + 1 = (x-1)(3x-1)(2x+1)
    p = (Fraction(1), Fraction(-2), Fraction(-5), Fraction(6))
    roots = rational_roots(p)
    assert roots == [(Fraction(-1, 2), 1), (Fraction(1, 3), 1), (Fraction(1), 1)]
    # multiplicity and x | p handling: x^2 (x - 3)^2 (x^2 + 1)
    q = poly_mul(poly_mul((0, 0, Fraction(1)), poly_mul((-3, Fraction(1)), (-3, Fraction(1)))), (Fraction(1), 0, Fraction(1)))
    assert rational_roots(q) == [(Fraction(0), 2), (Fraction(3), 2)]
    assert rational_roots((Fraction(1), 0, Fraction(1))) == []


def test_rational_roots_large_coefficients():
    # roots engineered with big prime numerators
    r1 = Fraction(1000003, 7)
    r2 = Fraction(-999983, 2)
    p = poly_mul((-r1.numerator, Fraction(r1.denominator)), (-r2.numerator, Fraction(r2.denominator)))
    assert rational_roots(p) == [(r2, 1), (r1, 1)]


def _divisors_reference(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _rational_roots_reference(p):
    """Rational roots by the rational root theorem: candidates +-a/b with a
    dividing the constant and b the leading coefficient of the primitive
    integer part (divisors by trial division), multiplicities by repeated
    division by x - r."""
    p = poly_normalize(p)
    roots = []
    v = 0
    while v < len(p) and p[v] == 0:
        v += 1
    if v and len(p) > 1:
        roots.append((Fraction(0), v))
    p = p[v:]
    if poly_degree(p) < 1:
        return roots
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * den) for c in p]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    candidates = {Fraction(sign * a, b) for a in _divisors_reference(ints[0])
                  for b in _divisors_reference(ints[-1]) for sign in (1, -1)}
    for r in candidates:
        m, q = 0, p
        while True:
            quo, rem = _divmod_reference(q, (-r, Fraction(1)))
            if rem:
                break
            m, q = m + 1, quo
        if m:
            roots.append((r, m))
    return sorted(roots)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3)), max_size=3),
    st.sampled_from([None, (1, 0, 1), (2, 0, 1), (1, 1, 1), (-3, 0, 2)]),
)
def test_rational_roots_match_the_divisor_reference(lead, roots, quadratic):
    # root 0 comes from a zero numerator; the quadratics have no rational root
    p = (Fraction(lead),)
    for num, den, mult in roots:
        for _ in range(mult):
            p = poly_mul(p, (Fraction(-num, den), Fraction(1)))
    if quadratic is not None:
        p = poly_mul(p, tuple(Fraction(c) for c in quadratic))
    assert rational_roots(p) == _rational_roots_reference(p)


def test_rational_roots_with_a_44_digit_irrational_factor():
    # the divisor search would factor these end coefficients; the lifting
    # never does
    n = 10000000000000000001179000000000000000001053
    r1 = Fraction(1000000000000000000000007, 30000000000000000000000067)
    r2 = Fraction(-700000000000000000000000039, 20000000000000000000000000131)
    p = poly_mul((-r1, Fraction(1)), (-r2, Fraction(1)))
    p = poly_mul(p, (Fraction(n), Fraction(0), Fraction(1)))
    assert rational_roots(p) == [(r2, 1), (r1, 1)]


def test_binary_gcd_matches_sympy():
    s, t = sympy.symbols("s t")
    rng = random.Random(3)
    for _ in range(15):
        # build binary forms with a planted common factor
        def rand_binary(deg):
            while True:
                f = tuple(Fraction(rng.randint(-4, 4)) for _ in range(deg + 1))
                if any(f):
                    return f

        common = rand_binary(rng.randint(0, 3))
        f = binary_mul_oracle(rand_binary(rng.randint(0, 3)), common)
        g = binary_mul_oracle(rand_binary(rng.randint(0, 3)), common)
        got = binary_gcd_many([f, g])
        sf = sum(sympy.Rational(c) * s ** (binary_degree(f) - i) * t**i for i, c in enumerate(f))
        sg = sum(sympy.Rational(c) * s ** (binary_degree(g) - i) * t**i for i, c in enumerate(g))
        want = sympy.gcd(sf, sg)
        want_deg = sympy.Poly(want, s, t).total_degree() if want != 1 else 0
        assert binary_degree(got) == want_deg
        # the computed gcd must divide both inputs (degree check above pins it as THE gcd)
        sgot = sum(sympy.Rational(c) * s ** (binary_degree(got) - i) * t**i for i, c in enumerate(got))
        assert sympy.simplify(sympy.div(sf, sgot, s)[1]) == 0


def binary_mul_oracle(f, g):
    df, dg = binary_degree(f), binary_degree(g)
    out = [Fraction(0)] * (df + dg + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def test_binary_gcd_pure_powers():
    # f = s^2 t^3, g = s t^4 -> gcd s t^3
    f = (0, 0, 0, Fraction(1), 0, 0)
    g = (0, 0, 0, 0, Fraction(1), 0)
    got = binary_gcd_many([f, g])
    assert binary_degree(got) == 4
    assert got[3] != 0 and all(c == 0 for i, c in enumerate(got) if i != 3)


def test_binary_gcd_over_fp_is_residues():
    # over F_7: gcd(s t (4s + t), t (4s + t) (s + t)) = t (4s + t), as
    # residues monic in t, from F_7 elements and from ints alike
    F = prime_field(7)
    f, g = (0, 4, 1, 0), (0, 4, 5, 1)
    assert _binary_gcd(f, g, F) == (0, 4, 1)
    assert _binary_gcd(tuple(F(c) for c in f), tuple(F(c) for c in g), F) == (0, 4, 1)
    # gcd(3 s^2 t, 5 s t^2) = s t: the common power of s padded on as 0
    got = _binary_gcd((0, 3, 0, 0), (0, 0, 5, 0), F)
    assert got == (0, 1, 0) and all(type(c) is int for c in got)


def test_binary_gcd_many_and_eval():
    p = (Fraction(-1), Fraction(1))  # -s + t, vanishes at (1 : 1)
    assert binary_eval(p, Fraction(1), Fraction(1)) == 0
    f = binary_mul_oracle(p, (Fraction(2), Fraction(1)))
    g = binary_mul_oracle(p, (Fraction(5), Fraction(3)))
    h = binary_gcd_many([f, g])
    assert binary_degree(h) == 1
    assert binary_eval(h, Fraction(1), Fraction(1)) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers())
def test_rational_roots_roundtrip(seed):
    rng = random.Random(seed)
    roots = []
    p = (Fraction(rng.randint(1, 3)),)
    for _ in range(rng.randint(0, 3)):
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = rng.randint(1, 2)
        roots.append((r, m))
        for _ in range(m):
            p = poly_mul(p, (-r, Fraction(1)))
    # optionally multiply in an irreducible quadratic
    if rng.random() < 0.5:
        p = poly_mul(p, (Fraction(1), Fraction(0), Fraction(1)))
    merged = {}
    for r, m in roots:
        merged[r] = merged.get(r, 0) + m
    assert rational_roots(p) == sorted(merged.items())


def _naive_evaluate(f, point, field):
    """Reference: every power by repeated multiplication, in Fractions
    over Q and on residues over F_p, the sum taken into the field."""
    lift = Fraction if field is QQ else (lambda x: field(x).value)
    total = 0
    for mon, coeff in f.items():
        v = lift(coeff)
        for x, e in zip(point, mon):
            for _ in range(e):
                v = v * lift(x)
        total = total + v
    return field(total)


def _random_scalar(rng):
    if rng.random() < 0.3:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 30))


def _random_form(rng, nvars, top, homogeneous, scalar):
    f = {}
    for _ in range(rng.randint(0, 6)):
        k = top if homogeneous else rng.randint(0, top)
        mon = rng.choice(monomials_of_degree(nvars, k))
        c = scalar(rng)
        if c:
            f[mon] = c
    return f


def _assert_matches_naive(forms, points, field):
    """form_values against the naive evaluator entry by entry, and
    evaluate_form as its one-form, one-point case.  The int core on the
    cleared points: over Q its value times 1 / (E_f D^K_f) is the
    scalar value, over F_p it is the value's residue."""
    got = form_values(forms, points, field)
    cleared = [cleared_form(f, field) for f in forms]
    vectors = [field.cleared(point) for point in points]
    core = cleared_form_values(cleared, vectors, field.modulus)
    assert len(got) == len(core) == len(forms)
    for f, row, core_row, (den, deg, _) in zip(forms, got, core, cleared):
        assert len(row) == len(core_row) == len(points)
        for point, value, v, (_, point_den) in zip(points, row, core_row, vectors):
            want = _naive_evaluate(f, point, field)
            assert value == want
            assert evaluate_form(f, point, field) == want
            assert type(v) is int
            if field is QQ:
                assert isinstance(value, Fraction)
                assert v * Fraction(1, den * point_den ** deg) == value
            else:
                assert type(value) is field
                assert 0 <= v < field.modulus and v == value.value


def test_form_values_match_naive_over_q():
    # fractional and int points, int and fractional coefficients,
    # homogeneous or not, empty forms included
    rng = random.Random(2024)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        top = rng.randint(0, 6)
        forms = [_random_form(rng, nvars, top, rng.random() < 0.5, _random_scalar)
                 for _ in range(rng.randint(0, 4))]
        points = [tuple(_random_scalar(rng) for _ in range(nvars))
                  for _ in range(rng.randint(0, 4))]
        _assert_matches_naive(forms, points, QQ)
    # non-homogeneous forms on int and fractional points with zero
    # entries, where the core's D^(K_f - |m|) factors are not all 1
    nonhomogeneous = [{(0, 0, 0): Fraction(-3, 4), (1, 0, 2): 2, (0, 2, 0): Fraction(5, 6)},
                      {(2, 0, 0): 7, (0, 0, 1): Fraction(1, 9)}]
    _assert_matches_naive(nonhomogeneous,
                          [(0, 3, 0), (Fraction(1, 2), 0, Fraction(-2, 3)), (0, 0, 0)], QQ)


def test_form_values_edge_inputs_over_q():
    assert form_values([], [(1, 2)]) == []
    assert form_values([{(1, 0): 1}], []) == [[]]
    assert evaluate_form({}, (Fraction(1, 2), 3)) == 0
    assert isinstance(evaluate_form({}, (1, 2)), Fraction)
    # ints throughout, and a constant term beside higher degrees
    f = {(0, 0): 5, (1, 0): -2, (2, 1): 3}
    assert evaluate_form(f, (2, -1)) == 5 - 4 - 12
    g = {(0, 0): Fraction(1, 3), (3, 0): Fraction(-2, 5)}
    pt = (Fraction(3, 2), Fraction(7))
    # a zero coordinate with a zero exponent contributes 1, not 0
    h = {(0, 2): Fraction(1, 4)}
    zero_pt = (0, Fraction(2, 3))
    assert evaluate_form(h, zero_pt) == Fraction(1, 9)
    _assert_matches_naive([{}, f, g, h], [(2, -1), pt, zero_pt, (0, 0)], QQ)


def test_form_values_match_naive_over_fp():
    F = prime_field(7)
    rng = random.Random(7)
    for _ in range(100):
        forms = [{mon: F(rng.randint(1, 6))
                  for mon in rng.sample(monomials_of_degree(3, 4), 4)}
                 for _ in range(rng.randint(1, 3))]
        # forms of mixed degrees, with int and Fraction coefficients that
        # map into F_7, and the empty form
        forms.append({(0, 0, 0): 3, (2, 1, 0): Fraction(1, 2)})
        forms.append({})
        points = [tuple(F(rng.randint(0, 6)) for _ in range(3))
                  for _ in range(rng.randint(1, 3))]
        _assert_matches_naive(forms, points, F)
    # non-homogeneous forms on points with zero entries; the core takes
    # Fraction coordinates to residues first
    _assert_matches_naive([{(0, 0, 0): 3, (1, 0, 2): Fraction(5, 3), (0, 2, 0): 6}],
                          [(0, 3, 0), (Fraction(1, 2), 0, F(6)), (0, 0, 0)], F)
    assert evaluate_form({}, (F(1), F(2)), F) == F(0)
