"""Hilbert functions, k-normality and regularity of finite schemes.

For a finite scheme X of degree d in P^N, phi(k) is the rank of the
evaluation map sending a degree-k form to the d functional values of X
(per germ: the first L Taylor coefficients of the form composed with
the arc).  X is k-normal when phi(k) = d, and

    reg(X) = 1 + min { k >= 0 : phi(k) = d }.

phi comes from multiplication operators, not monomials (Marinari-
Moeller-Mora 1993; Kehrein-Kreuzer-Robbiano 2005).  Let V_k in K^d be
the span of the evaluations of degree-k forms and M_i multiply each
germ's block by the series of x_i in that germ's chart, mod t^L.  Then
V_(k+1) = M_0 V_k + ... + M_N V_k, so phi(k + 1) ranks at most
(N + 1) phi(k) vectors, whatever C(N + k, N) is.  Once phi(k) = d the
recurrence stops: a germ's chart coordinate acts on its block as a
nonzero multiple of the identity, so V_(k+1) = K^d again.  phi(d - 1)
= d always, so there are at most d - 1 steps.
"""

from __future__ import annotations

from itertools import count
from math import lcm

from zeroreg.exactalg import QQ, ColumnSpace
from zeroreg.forms import series_mul
from zeroreg.scheme import FiniteScheme, invariant_t, max_collinear_length, span_dim


def _operators(scheme: FiniteScheme):
    """ops[i][g]: the series of x_i on germ g as ints: residues over F_p;
    over Q times one common denominator of all series of all germs (one
    scalar keeps every phi(k); scales that differ between the series of
    a germ, such as each jet cleared by its own denominator, do not)."""
    series = [[g.hom_series(i) for g in scheme.germs] for i in range(scheme.ambient + 1)]
    if scheme.field is not QQ:
        return [[tuple(c.value for c in s) for s in row] for row in series]
    den = lcm(*(c.denominator for row in series for s in row for c in s))
    return [[tuple(c.numerator * (den // c.denominator) for c in s) for s in row]
            for row in series]


def _times(op, vec):
    """M_i vec, germ block by germ block (op = ops[i])."""
    out, start = [], 0
    for series in op:
        out.extend(series_mul(vec[start:start + len(series)], series))
        start += len(series)
    return out


class SchemeEvaluator:
    """The Hilbert function of one scheme, by the operator recurrence.

    The pivots that `ColumnSpace` keeps for degree k (coprime ints over
    Q, residues over F_p) are the vectors the operators map to degree
    k + 1; `phi` keeps every value, and ranks no further once it is d.
    `column(mon)`, one monomial's evaluation, is not used by `phi`; the
    benchmark's tracer (`perfbench/tracer.py`) wraps it by name."""

    def __init__(self, scheme: FiniteScheme):
        self.scheme = scheme
        self._ops = _operators(scheme)
        self._values = [1]
        self._basis = [[int(k == 0) for g in scheme.germs for k in range(g.length)]]

    def column(self, mon):
        """The d functional values of the monomial, germ by germ."""
        return [v for g in self.scheme.germs for v in g.evaluate_form({mon: 1})]

    def _step(self):
        d = self.scheme.degree
        space = ColumnSpace(self.scheme.field)
        for image in (_times(op, v) for v in self._basis for op in self._ops):
            space.add(image)
            if space.rank == d:
                break
        self._basis = [v for _, v in space.pivots]
        self._values.append(space.rank)

    def phi(self, k: int) -> int:
        if k < 0:
            raise ValueError("phi is only defined for k >= 0")
        d, values = self.scheme.degree, self._values
        while len(values) <= k and values[-1] < d:
            self._step()
        return values[k] if k < len(values) else d


def _shared_evaluator(scheme: FiniteScheme) -> SchemeEvaluator:
    # schemes are immutable, so every caller shares one recurrence
    if scheme._evaluator is None:
        scheme._evaluator = SchemeEvaluator(scheme)
    return scheme._evaluator


def hilbert_function(scheme: FiniteScheme, k: int) -> int:
    return _shared_evaluator(scheme).phi(k)


def hilbert_function_values(scheme: FiniteScheme, max_degree: int):
    """phi(0) .. phi(max_degree); once phi reaches the degree d the
    remaining entries are d without further rank computations."""
    d = scheme.degree
    ev = _shared_evaluator(scheme)
    out = []
    for k in range(max_degree + 1):
        out.append(ev.phi(k))
        if out[-1] == d:
            out.extend([d] * (max_degree - k))
            break
    return out


def is_k_normal(scheme: FiniteScheme, k: int) -> bool:
    return hilbert_function(scheme, k) == scheme.degree


def min_normal_degree(scheme: FiniteScheme) -> int:
    """Smallest k with phi(k) = d; at most d - 1."""
    ev = _shared_evaluator(scheme)
    return next(k for k in count() if ev.phi(k) == scheme.degree)


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
    return max(1, -(-(d - n - 1) // t) + 1)


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
    at_k = is_k_normal(scheme, d - n)
    at_k_minus_1 = (d - n - 1 >= 0) and is_k_normal(scheme, d - n - 1)
    collinear, _ = max_collinear_length(scheme)
    return SecantNormalityVerdict(d, n, at_k, at_k_minus_1, collinear)
