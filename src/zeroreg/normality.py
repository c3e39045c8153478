"""Hilbert functions, k-normality and regularity of finite schemes.

For a finite scheme X of degree d in P^N, phi(k) is the rank of the
evaluation map sending a degree-k form to the d functional values of X
(per germ: the first L Taylor coefficients of the form composed with
the arc).  X is k-normal when phi(k) = d, and

    reg(X) = 1 + min { k >= 0 : phi(k) = d }.

phi(d - 1) = d always holds, which bounds every search below, and
phi(k) = d implies phi(k + 1) = d over any field (the Hilbert function
does not change under field extension, and over the algebraic closure
some linear form is a nonzerodivisor), so `hilbert_function_values`
computes no rank past the first degree at which X is normal.

The evaluation matrix has d rows but C(N + k, N) columns, so ranks are
computed by streaming columns into an incremental column space and
stopping as soon as the rank hits d.  Each column is read off the
germs' `monomial_series`, whose cached jet powers are the one monomial
evaluation engine shared by every degree and every caller.
"""

from __future__ import annotations

from zeroreg.exactalg import ColumnSpace
from zeroreg.forms import monomials_of_degree
from zeroreg.scheme import FiniteScheme, invariant_t, max_collinear_length, span_dim


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class SchemeEvaluator:
    """Evaluation-rank engine for one scheme, reusable across degrees.

    The rank does not depend on the column order, so monomials are
    streamed by decreasing largest exponent, graded-lex within ties: the
    pure powers x_i^k come first, so every support point is reached by
    the first N + 1 columns.  Plain graded-lex order puts the monomials
    free of x_0 last, and a support point where x_0 vanishes then keeps
    the rank below d until the tail of the degree."""

    def __init__(self, scheme: FiniteScheme):
        self.scheme = scheme

    def column(self, mon):
        """The d functional values of the monomial, germ by germ."""
        out = []
        for g in self.scheme.germs:
            out.extend(g.monomial_series(mon))
        return out

    def phi(self, k: int) -> int:
        if k < 0:
            raise ValueError("phi is only defined for k >= 0")
        d = self.scheme.degree
        space = ColumnSpace(self.scheme.field)
        mons = monomials_of_degree(self.scheme.ambient + 1, k)
        for mon in sorted(mons, key=max, reverse=True):
            space.add(self.column(mon))
            if space.rank == d:
                break
        return space.rank


def hilbert_function(scheme: FiniteScheme, k: int) -> int:
    return SchemeEvaluator(scheme).phi(k)


def hilbert_function_values(scheme: FiniteScheme, max_degree: int):
    """phi(0) .. phi(max_degree); once phi reaches the degree d the
    remaining entries are d without further rank computations."""
    d = scheme.degree
    ev = SchemeEvaluator(scheme)
    out = []
    for k in range(max_degree + 1):
        out.append(ev.phi(k))
        if out[-1] == d:
            out.extend([d] * (max_degree - k))
            break
    return out


def is_k_normal(scheme: FiniteScheme, k: int) -> bool:
    """phi(k) = d; true without a rank once k >= d - 1."""
    if k >= scheme.degree - 1:
        return True
    return hilbert_function(scheme, k) == scheme.degree


def min_normal_degree(scheme: FiniteScheme) -> int:
    """Smallest k with phi(k) = d; at most d - 1."""
    d = scheme.degree
    ev = SchemeEvaluator(scheme)
    k = 0
    while ev.phi(k) < d:
        k += 1
    return k


def finite_scheme_regularity(scheme: FiniteScheme) -> int:
    return 1 + min_normal_degree(scheme)


def normality_threshold_bound(scheme: FiniteScheme) -> int:
    """A proved degree k0 such that the scheme is k-normal for every
    k >= k0, in terms of the degree, the span and the independence
    level: k0 = max(1, ceil((d - n - 1) / t) + 1) with n the dimension
    of the linear span and t the largest level at which all subschemes
    are in general position."""
    d = scheme.degree
    n = span_dim(scheme)
    t = invariant_t(scheme)
    if d <= n + 1:
        return 1
    return max(1, _ceil_div(d - n - 1, t) + 1)


class SecantNormalityVerdict:
    """Outcome of the long-secant dichotomy for a finite scheme: whether
    normality first fails at degree d - n - 1 and whether a line meets
    the scheme in degree d - n + 1."""

    __slots__ = (
        "degree",
        "span",
        "normal_at_d_minus_n",
        "normal_at_d_minus_n_1",
        "has_long_secant",
        "max_collinear",
        "equivalence_holds",
    )

    def __init__(self, degree, span, at_k, at_k_minus_1, max_collinear):
        self.degree = degree
        self.span = span
        self.normal_at_d_minus_n = at_k
        self.normal_at_d_minus_n_1 = at_k_minus_1
        self.max_collinear = max_collinear
        self.has_long_secant = max_collinear >= degree - span + 1
        lhs = at_k and not at_k_minus_1
        self.equivalence_holds = lhs == self.has_long_secant

    def to_jsonable(self):
        return {
            "degree": self.degree,
            "span": self.span,
            "normal_at_d_minus_n": self.normal_at_d_minus_n,
            "normal_at_d_minus_n_1": self.normal_at_d_minus_n_1,
            "max_collinear": self.max_collinear,
            "has_long_secant": self.has_long_secant,
            "equivalence_holds": self.equivalence_holds,
        }


def secant_normality_verdict(scheme: FiniteScheme) -> SecantNormalityVerdict:
    d = scheme.degree
    n = span_dim(scheme)
    if d < n + 2:
        raise ValueError("the dichotomy needs degree >= span + 2")
    ev = SchemeEvaluator(scheme)
    at_k = ev.phi(d - n) == d
    at_k_minus_1 = (d - n - 1 >= 0) and ev.phi(d - n - 1) == d
    collinear, _ = max_collinear_length(scheme)
    return SecantNormalityVerdict(d, n, at_k, at_k_minus_1, collinear)
