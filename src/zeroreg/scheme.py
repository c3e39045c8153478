"""Finite curvilinear subschemes of projective space over an exact field.

A curvilinear germ of length L at a point p is a truncated arc: in the
affine chart where some coordinate of p is nonzero, every other
coordinate is given by a polynomial in a local parameter t, modulo t^L,
and for L >= 2 the linear coefficients are required not to vanish
simultaneously (the arc is immersed).  A finite scheme is a disjoint
union of germs at pairwise distinct points; its degree is the sum of
the germ lengths.

Each germ of length L carries L linear functionals on forms: the
coefficients of t^0 .. t^{L-1} of the form composed with the arc.  All
rank computations on schemes reduce to exact linear algebra on these
functionals.

On linear forms the functionals are rows: `CurvilinearGerm.linear_rows`
gives row k = the t^k coefficients of the N + 1 coordinates along the
arc, so a linear form f composed with the arc has coefficient f . row_k
at t^k.  Every linear question here reads these row blocks: the span,
the independence level `invariant_t` (a subscheme's rows are prefixes of
its germs' blocks), the contact with a subspace (the leading rows that
all cutting forms kill) and the collinearity search (a germ's tangent
line is spanned by its first two rows).
"""

from __future__ import annotations

import itertools
import os

from zeroreg.exactalg import Matrix, QQ
from zeroreg.forms import series_div, series_mul, series_of_constant

DEFAULT_ENUM_CAP = 12


class EnumerationCapExceeded(Exception):
    """Raised when subscheme enumeration would be too large; raise the
    cap through the REGLAB_CAP environment variable if it is intended."""


def enumeration_cap() -> int:
    raw = os.environ.get("REGLAB_CAP")
    return int(raw) if raw else DEFAULT_ENUM_CAP


class ProjPoint:
    """A point of projective N-space, stored in the normalized form whose
    first nonzero coordinate is 1 (so equality and hashing are exact)."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field=QQ):
        coords = tuple(field(c) for c in coords)
        lead = next((c for c in coords if c != 0), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords = tuple(c / lead for c in coords)
        self.field = field

    @property
    def ambient(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "ProjPoint(%s)" % (":".join(str(c) for c in self.coords))


class CurvilinearGerm:
    """A length-L truncated arc.  `jets[i]` is the length-L coefficient
    tuple of coordinate i in the chart `chart` (and `jets[chart]` is
    None: that coordinate is identically 1)."""

    __slots__ = ("support", "chart", "length", "jets", "field")

    def __init__(self, support: ProjPoint, chart: int, jets, field=QQ):
        if not support.coords[chart]:
            raise ValueError("chart coordinate vanishes at the support point")
        lengths = {len(j) for j in jets if j is not None}
        if len(lengths) != 1:
            raise ValueError("all jet series must have one common length")
        (length,) = lengths
        if length < 1:
            raise ValueError("germ length must be >= 1")
        norm = []
        for i, j in enumerate(jets):
            if i == chart:
                if j is not None:
                    raise ValueError("chart coordinate must not carry a jet")
                norm.append(None)
            else:
                norm.append(tuple(field(c) for c in j))
        if len(norm) != len(support.coords):
            raise ValueError("jet count does not match the ambient dimension")
        scale = support.coords[chart]
        for i, j in enumerate(norm):
            if j is not None and j[0] != support.coords[i] / scale:
                raise ValueError("jet constant term disagrees with the support point")
        if length >= 2 and all(j[1] == 0 for j in norm if j is not None):
            raise ValueError("degenerate arc: all linear jet coefficients vanish")
        self.support = support
        self.chart = chart
        self.length = length
        self.jets = tuple(norm)
        self.field = field

    @property
    def ambient(self) -> int:
        return len(self.jets) - 1

    def hom_series(self, i: int):
        if i == self.chart:
            return series_of_constant(1, self.length, self.field)
        return self.jets[i]

    def truncate(self, new_length: int) -> "CurvilinearGerm":
        if not 1 <= new_length <= self.length:
            raise ValueError("truncation length out of range")
        if new_length == self.length:
            return self
        jets = tuple(None if j is None else j[:new_length] for j in self.jets)
        return CurvilinearGerm(self.support, self.chart, jets, self.field)

    def linear_rows(self):
        """The germ's functionals on linear forms: row k holds the t^k
        coefficients of the N + 1 coordinates along the arc."""
        cols = [self.hom_series(i) for i in range(self.ambient + 1)]
        return [[c[k] for c in cols] for k in range(self.length)]

    def evaluate_form(self, form):
        """Compose a form (exponent-tuple -> coefficient dict) with the
        arc; returns the length-L coefficient series.  Each monomial is
        multiplied out from the coordinate series, the chart coordinate
        being 1."""
        out = series_of_constant(0, self.length, self.field)
        for mon, coeff in form.items():
            term = series_of_constant(coeff, self.length, self.field)
            for i, e in enumerate(mon):
                for _ in range(0 if i == self.chart else e):
                    term = series_mul(term, self.jets[i])
            out = [a + b for a, b in zip(out, term)]
        return tuple(out)

    def __repr__(self):
        return "CurvilinearGerm(len=%d at %r)" % (self.length, self.support)


def reduced_germ(coords, field=QQ) -> CurvilinearGerm:
    p = coords if isinstance(coords, ProjPoint) else ProjPoint(coords, field)
    chart = next(i for i, c in enumerate(p.coords) if c != 0)
    jets = [None if i == chart else (c,) for i, c in enumerate(p.coords)]
    return CurvilinearGerm(p, chart, jets, field)


def make_germ(coords, chart, non_chart_jets, field=QQ) -> CurvilinearGerm:
    """Build a germ from its support, a chart index and the jet series of
    the coordinates other than `chart`, in ascending coordinate order."""
    p = coords if isinstance(coords, ProjPoint) else ProjPoint(coords, field)
    if len(non_chart_jets) != p.ambient:
        raise ValueError("expected one jet per non-chart coordinate")
    jets = []
    it = iter(non_chart_jets)
    for i in range(p.ambient + 1):
        jets.append(None if i == chart else tuple(next(it)))
    return CurvilinearGerm(p, chart, jets, field)


def germ_on_line(point, direction, length, field=QQ) -> CurvilinearGerm:
    """The length-L germ t -> point + t * direction, so its full contact
    with the line spanned by the two vectors is at least L."""
    p = point if isinstance(point, ProjPoint) else ProjPoint(point, field)
    v = tuple(field(c) for c in direction)
    chart = next(i for i, c in enumerate(p.coords) if c != 0)
    unit = (p.coords[chart],) + (v[chart],) + (field(0),) * max(0, length - 2)
    unit = unit[:length]
    jets = []
    for i in range(len(p.coords)):
        if i == chart:
            jets.append(None)
            continue
        series = (p.coords[i], v[i]) + (field(0),) * max(0, length - 2)
        jets.append(series_div(series[:length], unit, length))
    return CurvilinearGerm(p, chart, jets, field)


class FiniteScheme:
    # immutable; `_evaluator` is the Hilbert function engine of `normality`
    __slots__ = ("germs", "field", "_evaluator")

    def __init__(self, germs, field=None):
        germs = tuple(germs)
        if not germs:
            raise ValueError("a finite scheme needs at least one germ")
        if field is None:
            field = germs[0].field
        ambients = {g.ambient for g in germs}
        if len(ambients) != 1:
            raise ValueError("germs live in different ambient spaces")
        supports = [g.support for g in germs]
        if len(set(supports)) != len(supports):
            raise ValueError("germ supports must be pairwise distinct")
        self.germs = germs
        self.field = field
        self._evaluator = None

    @property
    def ambient(self) -> int:
        return self.germs[0].ambient

    @property
    def degree(self) -> int:
        return sum(g.length for g in self.germs)

    def truncated(self, selector) -> "FiniteScheme":
        """Subscheme given by per-germ truncation lengths (0 drops the
        germ); at least one entry must be positive."""
        if len(selector) != len(self.germs):
            raise ValueError("selector length does not match the germ count")
        kept = [g.truncate(l) for g, l in zip(self.germs, selector) if l]
        return FiniteScheme(kept, self.field)

    def linear_rows(self):
        """The germs' row blocks, concatenated: one row per functional."""
        return [row for g in self.germs for row in g.linear_rows()]

    def __repr__(self):
        return "FiniteScheme(degree=%d in P^%d)" % (self.degree, self.ambient)


def span_dim(scheme: FiniteScheme) -> int:
    """Projective dimension of the linear span."""
    return Matrix(scheme.linear_rows(), field=scheme.field).rank() - 1


class LinearSubspace:
    """A linear subspace of P^N cut out by independent linear forms."""

    __slots__ = ("ambient", "cutting_forms", "field")

    def __init__(self, ambient: int, cutting_forms, field=QQ):
        forms = tuple(tuple(field(c) for c in f) for f in cutting_forms)
        for f in forms:
            if len(f) != ambient + 1:
                raise ValueError("cutting form has the wrong number of coefficients")
        if forms and Matrix(forms, field=field).rank() != len(forms):
            raise ValueError("cutting forms are not linearly independent")
        self.ambient = ambient
        self.cutting_forms = forms
        self.field = field

    @property
    def dim(self) -> int:
        return self.ambient - len(self.cutting_forms)

    def contains_point(self, point) -> bool:
        coords = point.coords if isinstance(point, ProjPoint) else point
        return all(
            sum((c * x for c, x in zip(f, coords)), self.field(0)) == 0
            for f in self.cutting_forms
        )

    def __repr__(self):
        return "LinearSubspace(dim=%d in P^%d)" % (self.dim, self.ambient)


def subspace_from_rows(rows, ambient: int, field=QQ) -> LinearSubspace:
    """Span of the given homogeneous coordinate vectors."""
    forms = Matrix(rows, field=field, ncols=ambient + 1).kernel_basis()
    return LinearSubspace(ambient, forms, field)


def contact_length(scheme, subspace: LinearSubspace) -> int:
    """Degree of the scheme-theoretic intersection with the subspace: per
    germ, the number of leading rows that every cutting form kills."""
    germs = scheme.germs if isinstance(scheme, FiniteScheme) else (scheme,)
    forms = subspace.cutting_forms
    total = 0
    for g in germs:
        for row in g.linear_rows():
            if any(sum(c * x for c, x in zip(f, row) if c) != 0 for f in forms):
                break
            total += 1
    return total


def max_collinear_length(scheme: FiniteScheme):
    """Largest degree of a subscheme contained in one line, with a line
    achieving it; (degree, None) when no candidate line exists (a single
    reduced point, or an ambient line where every germ is collinear).
    The candidates are the lines through two support points and the
    tangent lines, spanned by a germ's first two rows."""
    if scheme.ambient <= 1:
        return scheme.degree, None
    n, field = scheme.ambient, scheme.field
    supports = [g.support for g in scheme.germs]
    candidates = [
        subspace_from_rows([a.coords, b.coords], n, field)
        for a, b in itertools.combinations(supports, 2)
    ]
    candidates += [
        subspace_from_rows(g.linear_rows()[:2], n, field)
        for g in scheme.germs
        if g.length >= 2
    ]
    best, best_line = 0, None
    scored = set()
    for line in candidates:
        # the kernel basis is unique, so equal lines have equal forms
        if line.cutting_forms in scored:
            continue
        scored.add(line.cutting_forms)
        c = contact_length(scheme, line)
        if c > best:
            best, best_line = c, line
    if best_line is None:
        # no candidate lines: the scheme is a single reduced point
        return scheme.degree, None
    return best, best_line


def enumerate_subschemes(scheme: FiniteScheme, length: int):
    """Yield every selector of per-germ truncation lengths summing to
    `length`.  Guarded by the enumeration cap on the scheme degree."""
    cap = enumeration_cap()
    if scheme.degree > cap:
        raise EnumerationCapExceeded(
            "scheme degree %d exceeds the enumeration cap %d" % (scheme.degree, cap)
        )
    bounds = [g.length for g in scheme.germs]

    def rec(i, remaining, prefix):
        if i == len(bounds):
            if remaining == 0:
                yield tuple(prefix)
            return
        tail_capacity = sum(bounds[i + 1 :])
        lo = max(0, remaining - tail_capacity)
        hi = min(bounds[i], remaining)
        for l in range(lo, hi + 1):
            prefix.append(l)
            yield from rec(i + 1, remaining - l, prefix)
            prefix.pop()

    yield from rec(0, length, [])


def invariant_t(scheme: FiniteScheme) -> int:
    """The largest k such that every subscheme of degree at most k + 1
    spans a linear space of projective dimension exactly one less than
    its degree.  A single point yields 1 by convention."""
    d = scheme.degree
    if d == 1:
        return 1
    blocks = [g.linear_rows() for g in scheme.germs]
    top = min(d, scheme.ambient + 2)
    for s in range(2, top + 1):
        for sel in enumerate_subschemes(scheme, s):
            rows = [r for block, l in zip(blocks, sel) for r in block[:l]]
            if Matrix(rows, field=scheme.field).rank() < s:
                return s - 2
    return d - 1


def apply_matrix(scheme: FiniteScheme, matrix: Matrix) -> FiniteScheme:
    """Image of the scheme under an invertible change of homogeneous
    coordinates."""
    n = scheme.ambient
    if matrix.nrows != n + 1 or matrix.ncols != n + 1:
        raise ValueError("matrix size does not match the ambient space")
    new_germs = []
    for g in scheme.germs:
        old = [g.hom_series(i) for i in range(n + 1)]
        new = []
        for r in range(n + 1):
            acc = [scheme.field(0)] * g.length
            for c in range(n + 1):
                coeff = matrix.data[r][c]
                if coeff == 0:
                    continue
                for k, v in enumerate(old[c]):
                    acc[k] = acc[k] + coeff * v
            new.append(tuple(acc))
        chart = next((i for i, s in enumerate(new) if s[0] != 0), None)
        if chart is None:
            raise ValueError("matrix is singular at a support point")
        unit = new[chart]
        jets = [
            None if i == chart else series_div(s, unit, g.length)
            for i, s in enumerate(new)
        ]
        support = ProjPoint([s[0] for s in new], scheme.field)
        new_germs.append(CurvilinearGerm(support, chart, jets, scheme.field))
    return FiniteScheme(new_germs, scheme.field)
