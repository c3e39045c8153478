"""Polynomial plumbing: monomials, homogeneous forms, truncated power
series, univariate polynomials and binary forms over an exact field.

Representations are deliberately plain:

* a monomial is an exponent tuple;
* a form is a dict mapping exponent tuples to scalars (zero coefficients
  are never stored);
* a truncated power series of length L is a tuple of L scalars
  (coefficients of t^0 .. t^{L-1});
* a univariate polynomial is a tuple of scalars, ascending, with no
  trailing zeros (the zero polynomial is the empty tuple);
* a binary form of degree D is a tuple (c_0, .., c_D) standing for
  sum_i c_i s^(D-i) t^i.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from zeroreg.exactalg import QQ

# ---------------------------------------------------------------------------
# monomials and homogeneous forms


def monomials_of_degree(nvars: int, k: int) -> list[tuple[int, ...]]:
    """All degree-k exponent tuples in nvars variables, graded-lex order
    (earlier variables weigh more)."""
    if nvars == 1:
        return [(k,)]
    out = []
    for e in range(k, -1, -1):
        for rest in monomials_of_degree(nvars - 1, k - e):
            out.append((e,) + rest)
    return out


def evaluate_form(f, point, field=QQ):
    """Value of the form f at the given point, as an element of `field`.

    Over Q the point and the coefficients are cleared to integers once:
    with D the common denominator of the point, n = D * point, E the
    common denominator of the coefficients and K the largest total
    degree, the value is sum_m (E a_m) n^m D^(K - |m|) / (E D^K), summed
    in Python ints and reduced to a Fraction once.  Forms need not be
    homogeneous.  Over F_p powers are taken with `**`.
    """
    if field is not QQ:
        total = field(0)
        for mon, coeff in f.items():
            v = coeff
            for x, e in zip(point, mon):
                if e:
                    v = v * x ** e
            total = total + v
        return total
    if not f:
        return Fraction(0)
    point_den = lcm(*(x.denominator for x in point))
    nums = [x.numerator * (point_den // x.denominator) for x in point]
    coeff_den = lcm(*(c.denominator for c in f.values()))
    top = max(sum(mon) for mon in f)
    total = 0
    for mon, coeff in f.items():
        v = coeff.numerator * (coeff_den // coeff.denominator)
        for x, e in zip(nums, mon):
            if e:
                v *= x ** e
        total += v * point_den ** (top - sum(mon))
    return Fraction(total, coeff_den * point_den ** top)


# ---------------------------------------------------------------------------
# truncated power series


def series_of_constant(c, length, field=QQ):
    return (field(c),) + tuple(field(0) for _ in range(length - 1))


def series_mul(a, b, length=None):
    if length is None:
        length = min(len(a), len(b))
    out = [a[0] * b[0] * 0] * length
    for i, x in enumerate(a[:length]):
        if x == 0:
            continue
        for j, y in enumerate(b[: length - i]):
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


def series_inverse(a, length=None):
    """Multiplicative inverse mod t^length; a[0] must be a unit."""
    if length is None:
        length = len(a)
    if a[0] == 0:
        raise ZeroDivisionError("series with zero constant term is not invertible")
    if isinstance(a[0], (int, Fraction)):
        inv0 = Fraction(1) / a[0]
    else:
        inv0 = a[0] ** 0 / a[0]
    out = [inv0]
    for n in range(1, length):
        s = a[0] * 0
        for i in range(1, min(n, len(a) - 1) + 1):
            s = s + a[i] * out[n - i]
        out.append(-inv0 * s)
    return tuple(out)


def series_div(a, b, length=None):
    if length is None:
        length = min(len(a), len(b))
    return series_mul(a, series_inverse(b, length), length)


# ---------------------------------------------------------------------------
# univariate polynomials


def poly_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p) -> int:
    return len(p) - 1


def poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return poly_normalize(out)


def poly_scale(a, c):
    if c == 0:
        return ()
    return tuple(c * x for x in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_normalize(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return (), ()
    if isinstance(b[-1], int):
        b = tuple(Fraction(x) for x in b)
    if isinstance(a[0], int):
        a = [Fraction(x) for x in a]
    else:
        a = list(a)
    zero = a[0] * 0
    q = [zero] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c != 0:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = a[i + j] - c * y
    return poly_normalize(q), poly_normalize(a[: len(b) - 1])


def poly_monic(a):
    if not a:
        return a
    lead = a[-1]
    return tuple(x / lead for x in a)


def poly_gcd(a, b):
    """Monic gcd over a field."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_derivative(a):
    return poly_normalize([a[i] * i for i in range(1, len(a))])


def poly_eval(a, x):
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_taylor_shift(a, r, length=None):
    """Coefficients of p(x + r); truncated to `length` terms if given."""
    n = len(a)
    limit = n if length is None else min(n, max(length, 0))
    # repeated synthetic division by (x - r) yields the Taylor coefficients
    shifted = []
    work = list(a)
    for k in range(limit):
        for i in range(n - 2, k - 1, -1):
            work[i] = work[i] + r * work[i + 1]
        shifted.append(work[k])
    if length is None:
        return poly_normalize(shifted)
    while len(shifted) < length:
        shifted.append(r * 0)
    return tuple(shifted)


def squarefree_decomposition(p):
    """Yun decomposition over Q: list of (squarefree factor, multiplicity)
    with p = lead * prod factor^mult and the factors pairwise coprime."""
    if poly_degree(p) < 1:
        return []
    p = poly_monic(p)
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b = poly_divmod(p, a)[0]
    c = poly_divmod(dp, a)[0]
    d = poly_add(c, poly_scale(poly_derivative(b), -1))
    out = []
    i = 1
    while poly_degree(b) > 0:
        a = poly_gcd(b, d)
        if poly_degree(a) > 0:
            out.append((a, i))
        b = poly_divmod(b, a)[0]
        c = poly_divmod(d, a)[0]
        d = poly_add(c, poly_scale(poly_derivative(b), -1))
        i += 1
    return out


# ---------------------------------------------------------------------------
# integer factorization (for exact rational root extraction)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) as {prime: exponent}."""
    from zeroreg.exactalg import is_probable_prime

    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor_int(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots of p (over Q) with multiplicities, sorted."""
    p = poly_normalize(p)
    if poly_degree(p) < 1:
        return []
    roots = []
    # strip x^v
    v = 0
    while p[v] == 0:
        v += 1
    if v:
        roots.append((Fraction(0), v))
        p = p[v:]
    if poly_degree(p) >= 1:
        mult = lcm(*(Fraction(c).denominator for c in p))
        ints = [int(Fraction(c) * mult) for c in p]
        g = 0
        for c in ints:
            g = gcd(g, c)
        ints = [c // g for c in ints]
        seen = set()
        for num in _divisors(ints[0]):
            for den in _divisors(ints[-1]):
                if gcd(num, den) != 1:
                    continue
                for r in (Fraction(num, den), Fraction(-num, den)):
                    if r in seen:
                        continue
                    seen.add(r)
                    if poly_eval(p, r) == 0:
                        m = 0
                        q = p
                        while True:
                            quo, rem = poly_divmod(q, (-r, Fraction(1)))
                            if rem:
                                break
                            m += 1
                            q = quo
                        roots.append((r, m))
    return sorted(roots)


# ---------------------------------------------------------------------------
# binary forms


def binary_degree(f) -> int:
    return len(f) - 1


def binary_eval(f, s, t):
    d = binary_degree(f)
    total = s * 0
    for i, c in enumerate(f):
        if c == 0:
            continue
        v = c
        for _ in range(d - i):
            v = v * s
        for _ in range(i):
            v = v * t
        total = total + v
    return total


def binary_is_zero(f) -> bool:
    return all(c == 0 for c in f)


def binary_from_poly(p, degree, field=QQ):
    """Homogenize an ascending-coefficient polynomial to the given degree."""
    if poly_degree(p) > degree:
        raise ValueError("degree too small")
    return tuple(field(p[i]) if i < len(p) else field(0) for i in range(degree + 1))


def binary_linear_combination(forms, coeffs, field=QQ):
    d = binary_degree(forms[0])
    out = [field(0)] * (d + 1)
    for f, c in zip(forms, coeffs):
        for i, x in enumerate(f):
            out[i] = out[i] + field(c) * x
    return tuple(out)


def binary_gcd(f, g):
    """gcd of two binary forms, returned as a binary form (monic-ish)."""
    if binary_is_zero(f):
        return g
    if binary_is_zero(g):
        return f
    # common powers of t (leading zero coefficients) and s (trailing zeros)
    tf = next(i for i, c in enumerate(f) if c != 0)
    tg = next(i for i, c in enumerate(g) if c != 0)
    sf = next(i for i, c in enumerate(reversed(f)) if c != 0)
    sg = next(i for i, c in enumerate(reversed(g)) if c != 0)
    t_common, s_common = min(tf, tg), min(sf, sg)
    pf = poly_normalize(f[tf:])
    pg = poly_normalize(g[tg:])
    core = poly_gcd(pf, pg)
    deg = poly_degree(core) + t_common + s_common
    out = [core[-1] * 0] * (deg + 1)
    for i, c in enumerate(core):
        out[t_common + i] = c
    return tuple(out)


def binary_gcd_many(forms):
    out = forms[0]
    for f in forms[1:]:
        out = binary_gcd(out, f)
        if binary_degree(out) == 0 and not binary_is_zero(out):
            break
    return out
