"""Hilbert functions, k-normality and regularity of finite schemes.

For a finite scheme X of degree d in P^N, phi(k) is the rank of the
evaluation map sending a degree-k form to the d functional values of X
(per germ: the first L Taylor coefficients of the form composed with
the arc).  X is k-normal when phi(k) = d, and

    reg(X) = 1 + min { k >= 0 : phi(k) = d }.

phi comes from multiplication operators on standard monomials, not
from a matrix of all monomials (Buchberger-Moeller 1982; Marinari-
Moeller-Mora 1993).  M_i multiplies each germ's block by the series of
x_i in that germ's chart, mod t^L, so it sends the values of a form f to
those of x_i f.  Order the monomials of one degree lex by exponent
tuple, and call m standard when its values are independent of those of
all smaller monomials.  The values of the standard monomials B_k are
then a basis of the span V_k of the degree-k values, so |B_k| = phi(k),
and B_k is an order ideal: a nonstandard m leads a form vanishing on X,
and since lex is a term order x_i times that form is led by x_i m.  So
a standard monomial of degree k + 1, divided by its last variable x_i,
leaves a standard m with last(m) <= i, and a step feeds one reducer the
candidates x_i m, m in B_k and i >= last(m), each monomial once, in
ascending lex order.  A candidate grows the rank exactly when it is
standard, as every smaller monomial left out is nonstandard and its
values are a combination of those of smaller standard ones.  That is
sum (N + 1 - last(m)) images per step, about half of (N + 1) phi(k),
whatever C(N + k, N) is.  The order needs no sort: written as their
sorted variable indices, monomials in ascending lex order are in
descending order of these sequences, so m running up B_k and i down
from N to last(m) is ascending lex again.

Each standard monomial carries the pivot its image became in the
reducer, not the raw image.  The pivot is a nonzero multiple of the
image minus the values of smaller monomials, and M_i keeps that shape
one degree up (lex is a term order), so the argument above holds; the
reducer's content division keeps the entries small, which raw images,
multiplied degree after degree, are not.  Once phi(k) = d the
recurrence stops: a germ's chart coordinate acts on its block as a
nonzero multiple of the identity, so V_(k+1) = K^d again.  phi(d - 1)
= d always, so there are at most d - 1 steps.
"""

from __future__ import annotations

from itertools import count

from zeroreg.exactalg import ColumnSpace
from zeroreg.scheme import FiniteScheme, invariant_t, max_collinear_length, span_dim


def _operators(scheme: FiniteScheme):
    """ops[i]: the operator M_i as flat rows.  Row r lists the (column,
    coefficient) pairs with a nonzero coefficient; each germ's block is
    lower-triangular Toeplitz in the germ's int series of x_i: residues
    over F_p, over Q the series times the germ's denominator.  One scale
    per germ keeps every phi(k), since it scales each M_i's block alike
    and so commutes with them; scales that differ between the series of
    a germ, such as each jet cleared by its own denominator, do not."""
    ops = []
    for i in range(scheme.ambient + 1):
        op = []
        for g in scheme.germs:
            s, start = g.series[i], len(op)
            for r in range(g.length):
                op.append([(start + j, s[r - j]) for j in range(r + 1) if s[r - j]])
        ops.append(op)
    return ops


def _times(op, vec):
    """M_i vec (op = ops[i]): one sum per row, the same ints as the
    truncated series product of each germ block."""
    out = []
    for row in op:
        acc = 0
        for j, c in row:
            acc += c * vec[j]
        out.append(acc)
    return out


class SchemeEvaluator:
    """The Hilbert function of one scheme, by the standard-monomial
    recurrence of the module docstring.

    The operators are built once, as the flat rows of `_operators`.  For
    the last degree reached it keeps the standard monomials, in
    ascending lex order, as (last variable, vector) pairs, the vector
    being the pivot, newest and so last, that `ColumnSpace.add` kept for
    the monomial's image (coprime ints over Q, residues over F_p).  A
    step maps each of them by the operators of its last variable and the
    ones above it, one `_times` per candidate; `phi` keeps every value, and ranks no
    further once it is d.
    `column(mon)`, one monomial's evaluation, is not used by `phi`; the
    benchmark's tracer (`perfbench/tracer.py`) wraps it by name."""

    def __init__(self, scheme: FiniteScheme):
        self.scheme = scheme
        self._ops = _operators(scheme)
        self._values = [1]
        one = [int(k == 0) for g in scheme.germs for k in range(g.length)]
        self._standard = [(0, one)]

    def column(self, mon):
        """The d functional values of the monomial, germ by germ."""
        return [v for g in self.scheme.germs for v in g.evaluate_form({mon: 1})]

    def _step(self):
        d, top = self.scheme.degree, len(self._ops) - 1
        # B_k runs up in lex order and i down, so the candidates come in
        # ascending lex order (module docstring)
        candidates = ((i, vec) for last, vec in self._standard
                      for i in range(top, last - 1, -1))
        space = ColumnSpace(self.scheme.field)
        standard = []
        for i, vec in candidates:
            if not space.add(_times(self._ops[i], vec)):
                continue
            standard.append((i, space.pivots[-1][1]))
            if space.rank == d:
                break
        self._standard = standard
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
    are in general position.  When d <= n + 1 the bound is 1 whatever
    t is, so t is not computed."""
    d = scheme.degree
    n = span_dim(scheme)
    if d <= n + 1:
        return 1
    return max(1, -(-(d - n - 1) // invariant_t(scheme)) + 1)


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
        return {name: getattr(self, name) for name in self.__slots__}


def secant_normality_verdict(scheme: FiniteScheme) -> SecantNormalityVerdict:
    d = scheme.degree
    n = span_dim(scheme)
    if d < n + 2:
        raise ValueError("the dichotomy needs degree >= span + 2")
    at_k = is_k_normal(scheme, d - n)
    at_k_minus_1 = (d - n - 1 >= 0) and is_k_normal(scheme, d - n - 1)
    return SecantNormalityVerdict(d, n, at_k, at_k_minus_1, max_collinear_length(scheme))
