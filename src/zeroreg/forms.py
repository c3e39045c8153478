"""Polynomial plumbing: monomials, homogeneous forms, truncated power
series, univariate polynomials and binary forms over an exact field.

Representations are deliberately plain:

* a monomial is an exponent tuple;
* a form is a dict mapping exponent tuples to scalars (zero coefficients
  are never stored);
* a truncated power series of length L is a tuple of L scalars or ints
  (coefficients of t^0 .. t^{L-1});
* a univariate polynomial is a tuple of coefficients, ascending, with
  no trailing zeros (the zero polynomial is the empty tuple);
* a binary form of degree D is a tuple (c_0, .., c_D) standing for
  sum_i c_i s^(D-i) t^i.

Forms are evaluated on ints: `cleared_form_values` takes forms cleared
by `cleared_form` to int vectors and returns ints (residues over F_p),
and `form_values`, the scalar wrapper, builds one scalar per nonzero
value.  A caller that needs only which values vanish, such as the
Lemma 2.6 check in `harness`, calls the core and builds no scalars.

Polynomials and binary forms are ints inside.  `poly_pseudo_rem`,
`poly_exact_div`, `squarefree_decomposition` (primitive int factors)
and `binary_gcd_many` (a primitive int form) work in Z[x]; the gcd
under them is the primitive PRS over Q and Euclid on residues over
F_p, and it takes scalar inputs to ints first.  Scalars are built only
for the rational roots (Fractions) of `squarefree_rational_roots` and
`rational_roots`.
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


def cleared_form_values(cleared, vectors, p=None):
    """The int core of `form_values`: row i holds the forms cleared by
    `cleared_form` at every int vector, each vector an (n, D) pair.

    With (E_f, K_f) the denominator and degree of f, the entry is
    sum_m (E_f a_m) n^m D^(K_f - |m|) = E_f D^K_f f(n / D), summed in
    Python ints from one power table per vector; a residue mod p if p
    is given.  For a homogeneous form and D = 1 that is E_f f(n), a
    nonzero multiple of f's value at the point n stands for.
    """
    top = max((deg for _, deg, _ in cleared), default=0)
    rows = [[] for _ in cleared]
    for nums, den in vectors:
        *tables, den_powers = _power_tables(list(nums) + [den], top, p)
        for row, (_, deg, terms) in zip(rows, cleared):
            total = 0
            for v, gap, exps in terms:
                if gap:
                    v *= den_powers[gap]
                for i, e in exps:
                    v *= tables[i][e]
                total += v
            row.append(total if p is None else total % p)
    return rows


def form_values(forms, points, field=QQ):
    """Values of each form at each point: row i holds forms[i] at every
    point, as elements of `field`.  Forms need not be homogeneous.

    Each form's coefficients are cleared to ints once (`cleared_form`,
    E_f their common denominator) and each point once (D its common
    denominator, n = D * point).  `cleared_form_values` gives
    E_f D^K_f f(point) on ints, and each nonzero value is made a scalar
    once, over E_f D^K_f (`field.scalar`).  Over F_p, E_f = D = 1 and
    the core's values are residues.
    """
    cleared = [cleared_form(f, field) for f in forms]
    vectors = [field.cleared(point) for point in points]
    rows = cleared_form_values(cleared, vectors, field.modulus)
    scalar, zero = field.scalar, field(0)
    return [[scalar(v, den * point_den ** deg) if v else zero
             for v, (_, point_den) in zip(row, vectors)]
            for row, (den, deg, _) in zip(rows, cleared)]


def evaluate_form(f, point, field=QQ):
    """Value of the form f at the given point, as an element of `field`:
    the one-form, one-point case of `form_values`."""
    return form_values([f], [point], field)[0][0]


# ---------------------------------------------------------------------------
# truncated power series


def series_mul(a, b, length=None):
    if length is None:
        length = min(len(a), len(b))
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x == 0:
            continue
        for j, y in enumerate(b[: length - i]):
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate polynomials
#
# The gcd and the squarefree decomposition run on int polynomials.  Over Q
# a polynomial is taken to its primitive part with a positive lead, which
# has the same roots and the same divisors; over F_p to its monic residues
# (`_normal`).  Pseudo-division keeps a remainder integral without
# fractions, and a primitive divisor of an int polynomial over Q divides
# it in Z[x] (Gauss's lemma), so exact quotients stay integral too.


def poly_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p) -> int:
    return len(p) - 1


def poly_sub(a, b):
    n = max(len(a), len(b))
    return poly_normalize([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                           for i in range(n)])


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


def poly_pseudo_rem(a, b):
    """The remainder of lc(b)^e a by b for int polynomials, b nonzero and
    e = max(deg a - deg b + 1, 0): integral, since each step scales the
    running remainder by lc(b) before cancelling its top term (Knuth,
    TAOCP 2, 4.6.1, Algorithm R)."""
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    for top in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if lead != 1:
            r = [x * lead for x in r]
        if c:
            for j in range(n):
                r[top - n + j] -= c * b[j]
    return poly_normalize(r)


def poly_exact_div(a, b):
    """a / b for int polynomials where b divides a in Z[x], as a primitive
    b that divides a over Q does."""
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] // lead
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] -= c * b[j]
    return tuple(q)


def _normal(a, field):
    """The int normal form of a polynomial over `field` (scalars or ints):
    primitive with a positive lead over Q, monic residues over F_p; ()
    for zero."""
    a = poly_normalize(field.ints(a))
    return field.normal_form(a, len(a) - 1) if a else ()


def _gcd(a, b, field):
    """The gcd of two polynomials over `field` in its int normal form
    (`_normal`): over Q by the primitive PRS (Collins 1967, J. ACM 14;
    Brown-Traub 1971, J. ACM 18), over F_p by Euclid on residues.  Each
    pseudo-remainder takes one `field.ints` pass (its primitive part, or
    its residues); only the gcd is put in normal form."""
    a, b = poly_normalize(field.ints(a)), poly_normalize(field.ints(b))
    while b:
        a, b = b, poly_normalize(field.ints(poly_pseudo_rem(a, b)))
    return field.normal_form(a, len(a) - 1) if a else ()


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
    """Yun decomposition over Q of a polynomial of ints or Fractions:
    list of (squarefree factor, multiplicity) with p = c * prod
    factor^mult for a rational c, the factors pairwise coprime primitive
    int polynomials with a positive lead.  Every step stays in Z[x]: the
    gcds are primitive (`_gcd`) and each quotient is exact
    (`poly_exact_div`)."""
    p = _normal(p, QQ)
    if poly_degree(p) < 1:
        return []
    dp = poly_derivative(p)
    a = _gcd(p, dp, QQ)
    b = poly_exact_div(p, a)
    d = poly_sub(poly_exact_div(dp, a), poly_derivative(b))
    out = []
    i = 1
    while poly_degree(b) > 0:
        a = _gcd(b, d, QQ)
        if poly_degree(a) > 0:
            out.append((a, i))
        b = poly_exact_div(b, a)
        d = poly_sub(poly_exact_div(d, a), poly_derivative(b))
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
    """The rational roots of a squarefree f over Q, ints or Fractions,
    such as a factor of `squarefree_decomposition`, in no particular
    order."""
    ints = QQ.ints(f)
    n, c = len(ints) - 1, ints[-1]
    g = [a * c ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    return [Fraction(r, c) for r in _integer_roots(g)]


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots of p (over Q) with multiplicities, sorted."""
    return sorted((r, mult) for f, mult in squarefree_decomposition(p)
                  for r in squarefree_rational_roots(f))


# ---------------------------------------------------------------------------
# binary forms


def binary_degree(f) -> int:
    return len(f) - 1


def binary_eval(f, s, t):
    """f(s, t) by Horner's rule in t, the powers of s folded in."""
    total = s * 0
    power = 1
    for c in reversed(f):
        total = total * t + c * power
        power = power * s
    return total


def binary_is_zero(f) -> bool:
    return all(c == 0 for c in f)


def _binary_gcd(f, g, field):
    """gcd of two binary forms over `field`, as an int binary form.

    The gcd in t of the two polynomials f(1, t), g(1, t) (`_gcd`) already
    carries the common power of t; the common power of s is the drop in
    t-degree, padded back on as trailing zeros.  A zero form gives the
    other one back as it is."""
    if binary_is_zero(f):
        return g
    if binary_is_zero(g):
        return f
    sf = next(i for i, c in enumerate(reversed(f)) if c != 0)
    sg = next(i for i, c in enumerate(reversed(g)) if c != 0)
    return _gcd(f, g, field) + (0,) * min(sf, sg)


def binary_gcd_many(forms):
    """gcd of binary forms over Q, ints or Fractions, as a primitive int
    binary form (the first form as it is when it stands alone)."""
    out = forms[0]
    for f in forms[1:]:
        out = _binary_gcd(out, f, QQ)
        if binary_degree(out) == 0 and not binary_is_zero(out):
            break
    return out
