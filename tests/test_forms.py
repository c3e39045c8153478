import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg.exactalg import prime_field
from zeroreg.forms import (
    binary_degree,
    binary_eval,
    binary_from_poly,
    binary_gcd,
    binary_gcd_many,
    evaluate_form,
    factor_int,
    monomials_of_degree,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_taylor_shift,
    rational_roots,
    series_div,
    series_inverse,
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


def test_series_inverse_and_div():
    a = (Fraction(2), Fraction(1), Fraction(0), Fraction(3))
    inv = series_inverse(a)
    assert series_mul(a, inv) == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    b = (Fraction(1), Fraction(5), Fraction(-2), Fraction(1))
    q = series_div(b, a)
    assert series_mul(q, a) == b


def test_series_inverse_prime_field():
    F = prime_field(13)
    a = (F(3), F(1), F(7))
    inv = series_inverse(a)
    assert series_mul(a, inv) == (F(1), F(0), F(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers())
def test_poly_divmod_identity(da, db, seed):
    rng = random.Random(seed)
    a = rand_poly(rng, da)
    b = rand_poly(rng, db)
    if not b:
        b = (Fraction(1),)
    q, r = poly_divmod(a, b)
    lhs = to_sympy(a).as_expr()
    rhs = to_sympy(poly_mul(q, b)).as_expr() + to_sympy(r).as_expr()
    assert sympy.expand(lhs - rhs) == 0
    assert poly_degree(r) < poly_degree(b) or r == ()


def test_poly_gcd_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        if not a or not b:
            continue
        common = rand_poly(rng, rng.randint(0, 3))
        if common:
            a, b = poly_mul(a, common), poly_mul(b, common)
        got = poly_gcd(a, b)
        want = from_sympy(sympy.Poly(sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr()), x))
        # both monic by convention
        assert got == tuple(c / want[-1] for c in want)


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
        g = poly_gcd(fac, poly_derivative(fac))
        assert poly_degree(g) == 0


def test_factor_int():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(-97) == {97: 1}
    assert factor_int(1) == {}
    n = 1000003 * 1000033
    assert factor_int(n) == {1000003: 1, 1000033: 1}
    with pytest.raises(ValueError):
        factor_int(0)


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
        got = binary_gcd(f, g)
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
    got = binary_gcd(f, g)
    assert binary_degree(got) == 4
    assert got[3] != 0 and all(c == 0 for i, c in enumerate(got) if i != 3)


def test_binary_gcd_pads_with_the_field_zero():
    # over F_7: gcd(s t (4s + t), t (4s + t) (s + t)) = t (4s + t), whose
    # s^2 coefficient is padding and must be the zero of F_7
    F = prime_field(7)
    f = tuple(F(c) for c in (0, 4, 1, 0))
    g = tuple(F(c) for c in (0, 4, 5, 1))
    got = binary_gcd(f, g)
    assert got == (F(0), F(4), F(1))
    assert all(type(c) is F for c in got)
    assert all(type(c) is Fraction for c in binary_gcd((0, 0, 0, Fraction(1)), (0, 0, Fraction(1), 0)))


def test_binary_gcd_many_and_eval():
    p = binary_from_poly((Fraction(-1), Fraction(1)), 1)  # t - s... careful: coeffs ascend in t
    # p = -s + t, vanishes at (1 : 1)
    assert binary_eval(p, Fraction(1), Fraction(1)) == 0
    f = binary_mul_oracle(p, binary_from_poly((Fraction(2), Fraction(1)), 1))
    g = binary_mul_oracle(p, binary_from_poly((Fraction(5), Fraction(3)), 1))
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
    """Reference: every power by repeated multiplication in the field."""
    total = field(0)
    for mon, coeff in f.items():
        v = coeff
        for x, e in zip(point, mon):
            for _ in range(e):
                v = v * x
        total = total + v
    return total


def _random_scalar(rng):
    if rng.random() < 0.3:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 30))


def test_evaluate_form_matches_naive_over_q():
    rng = random.Random(2024)
    for _ in range(1500):
        nvars = rng.randint(1, 4)
        top = rng.randint(0, 6)
        homogeneous = rng.random() < 0.5
        f = {}
        for _ in range(rng.randint(0, 6)):
            k = top if homogeneous else rng.randint(0, top)
            mon = rng.choice(monomials_of_degree(nvars, k))
            c = _random_scalar(rng)
            if c:
                f[mon] = c
        point = tuple(_random_scalar(rng) for _ in range(nvars))
        got = evaluate_form(f, point)
        assert isinstance(got, Fraction)
        assert got == _naive_evaluate(f, point, Fraction)


def test_evaluate_form_edge_inputs_over_q():
    assert evaluate_form({}, (Fraction(1, 2), 3)) == 0
    assert isinstance(evaluate_form({}, (1, 2)), Fraction)
    # ints throughout, and a constant term beside higher degrees
    f = {(0, 0): 5, (1, 0): -2, (2, 1): 3}
    assert evaluate_form(f, (2, -1)) == 5 - 4 - 12
    g = {(0, 0): Fraction(1, 3), (3, 0): Fraction(-2, 5)}
    pt = (Fraction(3, 2), Fraction(7))
    assert evaluate_form(g, pt) == _naive_evaluate(g, pt, Fraction)
    # a zero coordinate with a zero exponent contributes 1, not 0
    assert evaluate_form({(0, 2): Fraction(1, 4)}, (0, Fraction(2, 3))) == Fraction(1, 9)


def test_evaluate_form_matches_naive_over_fp():
    F = prime_field(7)
    rng = random.Random(7)
    for _ in range(300):
        f = {mon: F(rng.randint(1, 6))
             for mon in rng.sample(monomials_of_degree(3, 4), 4)}
        point = tuple(F(rng.randint(0, 6)) for _ in range(3))
        assert evaluate_form(f, point, F) == _naive_evaluate(f, point, F)
    assert evaluate_form({}, (F(1), F(2)), F) == F(0)
