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

from fractions import Fraction
from itertools import count

from zeroreg.exactalg import QQ, is_probable_prime

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


def _power_tables(coords, top, p=None):
    """[x^0, .., x^top] for each int x in coords, reduced mod p if given."""
    tables = []
    for x in coords:
        table = [1]
        for _ in range(top):
            table.append(table[-1] * x if p is None else table[-1] * x % p)
        tables.append(table)
    return tables


def cleared_form(f, field=QQ):
    """The form f on ints: (E, K, terms) with E the common denominator of
    its coefficients (1 over F_p), K its largest total degree, and per
    monomial m the triple (E a_m, K - |m|, [(i, m_i) for m_i > 0])."""
    nums, den = field.cleared(list(f.values()))
    deg = max((sum(mon) for mon in f), default=0)
    terms = [(v, deg - sum(mon), [(i, e) for i, e in enumerate(mon) if e])
             for v, mon in zip(nums, f)]
    return den, deg, terms


def form_values(forms, points, field=QQ):
    """Values of each form at each point: row i holds forms[i] at every
    point, as elements of `field`.  Forms need not be homogeneous.

    Each form's coefficients are cleared to ints once (`cleared_form`,
    E_f their common denominator) and each point once (D its common
    denominator, n = D * point), with one power table per point.  With
    K_f the largest total degree of f, f(point) is
    sum_m (E_f a_m) n^m D^(K_f - |m|) / (E_f D^K_f), summed in Python
    ints and made a scalar once (`field.scalar`).  Over F_p, E_f = D = 1
    and the power tables hold residues.
    """
    p = field.modulus
    cleared = [cleared_form(f, field) for f in forms]
    top = max((deg for _, deg, _ in cleared), default=0)
    rows = [[] for _ in forms]
    zero = field(0)
    for point in points:
        nums, point_den = field.cleared(point)
        *tables, den_powers = _power_tables(nums + [point_den], top, p)
        for row, (den, deg, terms) in zip(rows, cleared):
            total = 0
            for v, gap, exps in terms:
                if gap:
                    v *= den_powers[gap]
                for i, e in exps:
                    v *= tables[i][e]
                total += v
            row.append(field.scalar(total, den * den_powers[deg]) if total else zero)
    return rows


def evaluate_form(f, point, field=QQ):
    """Value of the form f at the given point, as an element of `field`:
    the one-form, one-point case of `form_values`."""
    return form_values([f], [point], field)[0][0]


# ---------------------------------------------------------------------------
# truncated power series


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
    if isinstance(lead, int):
        # int / int is a float
        lead = Fraction(lead)
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
# rational roots by p-adic lifting (Loos 1983; von zur Gathen-Gerhard,
# Modern Computer Algebra, ch. 15)
#
# A squarefree primitive f in Z[x] of degree n with lead c gives the monic
# g(y) = c^(n-1) f(y/c), whose rational roots are the integers R = c x,
# |R| <= B = 1 + max|g_i|.  At a prime p where every root of g mod p is
# simple (only primes dividing the discriminant of g can fail), each R is
# the unique Newton lift of R mod p; lifted to a modulus above 2B, its
# symmetric residue is R itself.


def _integer_roots(g) -> list[int]:
    """Integer roots of a monic squarefree g in Z[y], given by its
    ascending int coefficients."""
    bound = 1 + max(abs(c) for c in g)
    dg = poly_derivative(g)
    for p in count(2):
        if not is_probable_prime(p):
            continue
        gp = [c % p for c in g]
        residues = [r for r in range(p) if poly_eval(gp, r) % p == 0]
        if all(poly_eval(dg, r) % p for r in residues):
            break
    roots = []
    for r in residues:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - poly_eval(g, r) * pow(poly_eval(dg, r), -1, m)) % m
        if 2 * r > m:
            r -= m
        if poly_eval(g, r) == 0:
            roots.append(r)
    return roots


def squarefree_rational_roots(f) -> list[Fraction]:
    """The rational roots of a monic squarefree f over Q, such as a
    factor of `squarefree_decomposition`, in no particular order."""
    # f is monic, so clearing its denominators leaves it primitive
    ints, _ = QQ.cleared(f)
    n, c = len(ints) - 1, ints[-1]
    g = [a * c ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    return [Fraction(r, c) for r in _integer_roots(g)]


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots of p (over Q) with multiplicities, sorted."""
    return sorted((r, mult) for f, mult in squarefree_decomposition(poly_normalize(p))
                  for r in squarefree_rational_roots(f))


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


def binary_linear_combination(forms, coeffs, field=QQ):
    d = binary_degree(forms[0])
    out = [field(0)] * (d + 1)
    for f, c in zip(forms, coeffs):
        if c == 0:
            continue
        for i, x in enumerate(f):
            out[i] = out[i] + field(c) * x
    return tuple(out)


def binary_gcd(f, g):
    """gcd of two binary forms, returned as a binary form (monic-ish).

    The monic gcd in t of the two polynomials f(1, t), g(1, t) already
    carries the common power of t; the common power of s is the drop in
    t-degree, padded back on as trailing zeros."""
    if binary_is_zero(f):
        return g
    if binary_is_zero(g):
        return f
    sf = next(i for i, c in enumerate(reversed(f)) if c != 0)
    sg = next(i for i, c in enumerate(reversed(g)) if c != 0)
    core = poly_gcd(poly_normalize(f), poly_normalize(g))
    return core + (core[-1] * 0,) * min(sf, sg)


def binary_gcd_many(forms):
    out = forms[0]
    for f in forms[1:]:
        out = binary_gcd(out, f)
        if binary_degree(out) == 0 and not binary_is_zero(out):
            break
    return out
