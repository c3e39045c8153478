"""Finite curvilinear subschemes of projective space over an exact field.

A curvilinear germ of length L at a point p is a truncated arc: in the
affine chart where some coordinate of p is nonzero, every other
coordinate is given by a polynomial in a local parameter t, modulo t^L,
and for L >= 2 the linear coefficients are required not to vanish
simultaneously (the arc is immersed).  A finite scheme is a disjoint
union of germs at pairwise distinct points; its degree is the sum of
the germ lengths.

Points, germs and subspaces hold plain ints; a `Fraction` or an
`FpElement` is built only for output.  A `ProjPoint` is its field's
normal form of an int vector (`field.normal_form`), and a germ is N + 1
homogeneous int series over one denominator, the chart's series being
(den, 0, ..); the `CurvilinearGerm` constructor is the one code that
normalises them.
Forms are composed with a germ on its int series by one core,
`CurvilinearGerm.form_series`: a family of forms cleared by
`cleared_form`, each non-chart series raised once per germ by a running
product and kept only at the exponents the family uses;
`evaluate_form` is its one-form scalar wrapper.  The scalar views
`coords` and `jets` are built on first use, `jets` for output only.

Each germ of length L carries L linear functionals on forms: the
coefficients of t^0 .. t^{L-1} of the form composed with the arc.  All
rank computations on schemes reduce to exact linear algebra on these
functionals.

On linear forms the functionals are rows: `CurvilinearGerm.int_rows`
gives row k = the t^k coefficients of the N + 1 coordinate series, read
once off the series and taken through `field.ints` (coprime integer
rows over Q, residues over F_p), so a linear form f composed with the
arc has coefficient f . row_k at t^k up to a nonzero scale.  Every
linear question here reads these row blocks: the span, the independence
level `invariant_t` (a subscheme's rows are prefixes of its germs'
blocks), the contact with a subspace (the leading rows that all cutting
forms kill) and the collinearity search (a germ's tangent line is
spanned by its first two rows).  A subspace is its cutting forms as
ints (`LinearSubspace.int_forms`, cleared once on one common scale);
`subspace_from_rows` reads them off a `ColumnSpace` kernel.

The searches feed the rows to the `ColumnSpace` reducer of `exactalg`.
`invariant_t` searches the smaller side of the row matroid: the
prefix-closed subschemes on their rows, or, when the K = d - R
dependencies among the rows are fewer than their rank R, the
suffix-closed complements on the K-wide Gale columns.  Each search is
depth-first, germ by germ, on one reducer: a branch pushes, the newest
pivot last, and truncates the pivots on return; it carries each later
germ's first row (column) reduced against the branch, so a node's pivot
is taken out of those once (`ColumnSpace.push`) and a child tests its
first one without reducing it.
`max_collinear_length` keys each candidate line by its normalised
Pluecker vector and groups the supports by line from the keys of their
pairs; a line's score is then a sum over its supports (1, or the germ's
contact with its own tangent when that is the line), so no row is
reduced per line and the best score is the length.
"""

from __future__ import annotations

import itertools
import os
from math import lcm

from zeroreg.exactalg import ColumnSpace, Matrix, QQ
from zeroreg.forms import cleared_form, series_mul

DEFAULT_ENUM_CAP = 12


class EnumerationCapExceeded(ValueError):
    """Raised when subscheme enumeration would be too large; raise the
    cap through the REGLAB_CAP environment variable if it is intended."""


def enumeration_cap() -> int:
    raw = os.environ.get("REGLAB_CAP")
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError("REGLAB_CAP must be an integer, got %r" % raw) from None


class ProjPoint:
    """A point of projective N-space, kept as its field's normal form of
    an int vector (`vec`): over Q the primitive vector with a positive
    lead, over F_p the residues leading with 1, so equality and hashing
    are exact.  `coords`, the lead-1 scalars, is built on first use."""

    __slots__ = ("vec", "field", "_coords")

    def __init__(self, coords, field=QQ):
        self.vec = field.normal_form(field.ints(coords))
        if self.vec is None:
            raise ValueError("projective point needs a nonzero coordinate")
        self.field = field
        self._coords = None

    @classmethod
    def of(cls, coords, field=QQ):
        """`coords` as a point over `field`: a `ProjPoint` as it is, and a
        ValueError when it lies over another field."""
        if not isinstance(coords, ProjPoint):
            return cls(coords, field)
        if coords.field is not field:
            raise ValueError("point and field lie over different fields")
        return coords

    @property
    def coords(self):
        if self._coords is None:
            lead = next(v for v in self.vec if v)
            self._coords = tuple(self.field.scalar(v, lead) for v in self.vec)
        return self._coords

    @property
    def ambient(self) -> int:
        return len(self.vec) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return False
        if other.field is not self.field:
            raise TypeError("cannot compare points over %r and %r" % (self.field, other.field))
        return self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return "ProjPoint(%s)" % (":".join(str(c) for c in self.coords))


class CurvilinearGerm:
    """A length-L truncated arc, kept as N + 1 homogeneous int series
    (`series`) over one denominator: the chart series is (den, 0, ..),
    and coordinate i is series[i] / den in the chart.  Over Q the block
    is primitive with den > 0, over F_p residues with den = 1.  The
    support is the point of the constant terms, over the germ's field.
    The scalar view `jets` (None in the chart slot), for output, is
    built on first use.

    The constructor is the one place a germ is normalised.  It takes
    N + 1 homogeneous series of one length L, ints or scalars of
    `field`, through `field.ints`; the chart is `chart`, or by default
    the first coordinate with a nonzero constant term.  A chart series
    u that is not constant is made (u0^L, 0, ..) by multiplying every
    series by V = u0^L / u mod t^L; V is integral,
    V_k = A_k u0^(L-1-k) with A_0 = 1 and
    A_k = -sum_(j=1..k) u_j A_(k-j) u0^(j-1).  The block is stored in
    its field's normal form, and for L >= 2 the linear terms must not
    all vanish (the arc is immersed)."""

    __slots__ = ("support", "chart", "length", "series", "field", "_jets", "_int_rows")

    def __init__(self, series, field=QQ, chart=None):
        length = len(series[0])
        if not length or any(len(s) != length for s in series):
            raise ValueError("a germ needs nonempty series of one common length")
        flat = field.ints([c for s in series for c in s])
        series = [flat[k:k + length] for k in range(0, len(flat), length)]
        if chart is None:
            chart = next((i for i, s in enumerate(series) if s[0]), None)
            if chart is None:
                raise ValueError("the coordinate series all vanish at the support")
        u = series[chart]
        if not u[0]:
            raise ValueError("chart coordinate vanishes at the support point")
        if any(u[1:]):
            inv = [1]
            for k in range(1, length):
                inv.append(-sum(u[j] * inv[k - j] * u[0] ** (j - 1) for j in range(1, k + 1)))
            inv = [a * u[0] ** (length - 1 - k) for k, a in enumerate(inv)]
            flat = [c for s in series for c in series_mul(s, inv)]
        flat = field.normal_form(flat, chart * length)
        series = tuple(flat[k:k + length] for k in range(0, len(flat), length))
        if length >= 2 and not any(s[1] for s in series):
            raise ValueError("degenerate arc: all linear jet coefficients vanish")
        pt = self.support = ProjPoint.__new__(ProjPoint)
        pt.vec, pt.field, pt._coords = field.normal_form(flat[::length]), field, None
        self.chart = chart
        self.length = length
        self.series = series
        self.field = field
        self._jets = self._int_rows = None

    @property
    def ambient(self) -> int:
        return len(self.series) - 1

    @property
    def jets(self):
        if self._jets is None:
            scalar, den = self.field.scalar, self.series[self.chart][0]
            self._jets = tuple(None if i == self.chart else tuple(scalar(v, den) for v in s)
                               for i, s in enumerate(self.series))
        return self._jets

    def truncate(self, new_length: int) -> "CurvilinearGerm":
        if not 1 <= new_length <= self.length:
            raise ValueError("truncation length out of range")
        if new_length == self.length:
            return self
        return CurvilinearGerm([s[:new_length] for s in self.series], self.field, self.chart)

    def int_rows(self):
        """The germ's functionals on linear forms: row k holds the t^k
        coefficients of the N + 1 coordinate series, read off the series
        once and taken through `field.ints`: over Q each row cleared to
        coprime integers (a row scale changes no span and no membership),
        over F_p the residues."""
        if self._int_rows is None:
            self._int_rows = [self.field.ints([s[k] for s in self.series])
                              for k in range(self.length)]
        return self._int_rows

    def form_series(self, cleared):
        """The int core of `evaluate_form`, for a family of forms cleared
        by `cleared_form`: (s, series), where `series` yields form by form,
        as they are asked for, the length-L series E_f den^s f(arc) on ints
        (residues over F_p), E_f being f's denominator.

        A monomial m of f gives E_f a_m times the non-chart series raised
        to m_i, times den^(top - |m| + m_chart), top being the family's
        largest degree and the chart's series (den, 0, ..).  The least of
        those exponents is taken out of every term, so s is top less it:
        over Q a recipe's U^(k - j) in the chart would otherwise make
        every value a multiple of den^(k - j).  Each non-chart series is
        raised once per germ, by one running `series_mul` product
        (residues over F_p), and kept only at the exponents in use."""
        chart, length, p = self.chart, self.length, self.field.modulus
        den = self.series[chart][0]
        top = max((deg for _, deg, _ in cleared), default=0)
        used, low = set(), top
        for _, deg, terms in cleared:
            for _, gap, exps in terms:
                shift = top - deg + gap
                for i, e in exps:
                    if i == chart:
                        shift += e
                    else:
                        used.add((i, e))
                if shift < low:
                    low = shift

        def mul(a, b):
            c = series_mul(a, b)
            return c if p is None else [x % p for x in c]

        # tables[i, e]: series i to the power e, for the (i, e) in use
        tables, last = {}, None
        for i, e in sorted(used):
            if i != last:
                last, at, power = i, 0, (1,) + (0,) * (length - 1)
            for _ in range(at, e):
                power = mul(power, self.series[i])
            tables[i, e], at = power, e

        def values():
            for _, deg, terms in cleared:
                total = [0] * length
                for v, gap, exps in terms:
                    shift, term = top - deg + gap - low, None
                    for i, e in exps:
                        if i == chart:
                            shift += e
                        else:
                            term = tables[i, e] if term is None else mul(term, tables[i, e])
                    if shift and den != 1:
                        v *= den ** shift
                    if term is None:
                        total[0] += v
                    else:
                        total = [a + v * b for a, b in zip(total, term)]
                yield total if p is None else [c % p for c in total]

        return top - low, values()

    def evaluate_form(self, form):
        """Compose a form (exponent-tuple -> coefficient dict) with the
        arc; returns the length-L coefficient series, as scalars.  The
        form is cleared by `cleared_form` and taken through the int core
        `form_series`, each coefficient made a scalar over E den^s."""
        cleared = cleared_form(form, self.field)
        s, (total,) = self.form_series([cleared])
        scale = cleared[0] * self.series[self.chart][0] ** s
        return tuple(self.field.scalar(v, scale) for v in total)

    def __repr__(self):
        return "CurvilinearGerm(len=%d at %r)" % (self.length, self.support)


def reduced_germ(coords, field=QQ, chart=None) -> CurvilinearGerm:
    """The length-1 germ at a point, in the chart of its first nonzero
    coordinate unless `chart` names another."""
    return CurvilinearGerm([(c,) for c in ProjPoint.of(coords, field).vec], field, chart)


def make_germ(coords, chart, non_chart_jets, field=QQ) -> CurvilinearGerm:
    """Build a germ from its support, a chart index and the jet series of
    the coordinates other than `chart`, in ascending coordinate order."""
    p = ProjPoint.of(coords, field)
    if len(non_chart_jets) != p.ambient:
        raise ValueError("expected one jet per non-chart coordinate")
    lengths = {len(j) for j in non_chart_jets}
    if len(lengths) != 1:
        raise ValueError("all jet series must have one common length")
    (length,) = lengths
    if length < 1:
        raise ValueError("germ length must be >= 1")
    if not p.vec[chart]:
        raise ValueError("chart coordinate vanishes at the support point")
    series = [list(j) for j in non_chart_jets]
    series.insert(chart, [1] + [0] * (length - 1))
    if ProjPoint([s[0] for s in series], field) != p:
        raise ValueError("jet constant term disagrees with the support point")
    return CurvilinearGerm(series, field, chart)


def germ_on_line(point, direction, length, field=QQ) -> CurvilinearGerm:
    """The length-L germ t -> point + t * direction, so its full contact
    with the line spanned by the two vectors is at least L.  On ints:
    with point = vec / lead and direction = d / den, the series
    vec * den + t * lead * d is the arc scaled by lead * den."""
    p = ProjPoint.of(point, field)
    d, den = field.cleared(direction)
    lead = next(c for c in p.vec if c)
    pad = (0,) * max(0, length - 2)
    series = [((c * den, lead * v) + pad)[:length] for c, v in zip(p.vec, d)]
    return CurvilinearGerm(series, field)


class FiniteScheme:
    # immutable; `_evaluator` is the Hilbert function engine of `normality`
    __slots__ = ("germs", "field", "_evaluator")

    def __init__(self, germs, field=None):
        germs = tuple(germs)
        if not germs:
            raise ValueError("a finite scheme needs at least one germ")
        if field is None:
            field = germs[0].field
        if any(g.field is not field for g in germs):
            raise ValueError("germs and scheme lie over different fields")
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

    def __repr__(self):
        return "FiniteScheme(degree=%d in P^%d)" % (self.degree, self.ambient)


def span_dim(scheme: FiniteScheme) -> int:
    """Projective dimension of the linear span."""
    rows = [r for g in scheme.germs for r in g.int_rows()]
    return Matrix(rows, field=scheme.field).rank() - 1


class LinearSubspace:
    """A linear subspace of P^N cut out by independent linear forms, kept
    as ints only: `int_forms`, the given forms (ints, Fractions or
    elements of `field`) through one `field.cleared` pass (ints as given),
    give the values of the forms at a point up to one common scale."""

    __slots__ = ("ambient", "field", "int_forms")

    def __init__(self, ambient: int, cutting_forms, field=QQ):
        forms, width = list(cutting_forms), ambient + 1
        if any(len(f) != width for f in forms):
            raise ValueError("cutting form has the wrong number of coefficients")
        flat, _ = field.cleared([c for f in forms for c in f])
        self.int_forms = tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width))
        if forms and Matrix(self.int_forms, field=field).rank() != len(forms):
            raise ValueError("cutting forms are not linearly independent")
        self.ambient, self.field = ambient, field

    @property
    def dim(self) -> int:
        return self.ambient - len(self.int_forms)

    def contains_point(self, point) -> bool:
        """Whether every cutting form vanishes at the point, tested on the
        point's int vector against `int_forms`.  A `ProjPoint` over another
        field is a ValueError."""
        vec = ProjPoint.of(point, self.field).vec
        return not any(self.field.ints([sum(c * x for c, x in zip(f, vec))
                                        for f in self.int_forms]))

    def __repr__(self):
        return "LinearSubspace(dim=%d in P^%d)" % (self.dim, self.ambient)


def subspace_from_rows(rows, ambient: int, field=QQ) -> LinearSubspace:
    """Span of the given homogeneous coordinate vectors, cut out by the
    kernel of the rows' `ColumnSpace`, each vector times lcm / den."""
    space = ColumnSpace(field)
    for row in rows:
        if len(row) != ambient + 1:
            raise ValueError("a row has the wrong number of coordinates")
        space.add(row)
    kernel = list(space.kernel(ambient + 1))
    scale = lcm(*(den for _, den in kernel))
    return LinearSubspace(ambient, [[v * (scale // den) for v in x] for x, den in kernel], field)


def contact_length(scheme, subspace: LinearSubspace) -> int:
    """Degree of the scheme-theoretic intersection with the subspace: per
    germ, the number of leading rows that every cutting form kills, on
    ints (`int_rows` against `int_forms`).  A scheme or germ over another
    field than the subspace is a ValueError."""
    if scheme.field is not subspace.field:
        raise ValueError("scheme and subspace lie over different fields")
    germs = scheme.germs if isinstance(scheme, FiniteScheme) else (scheme,)
    forms, ints = subspace.int_forms, subspace.field.ints
    total = 0
    for g in germs:
        for row in g.int_rows():
            if any(ints([sum(c * x for c, x in zip(f, row) if c) for f in forms])):
                break
            total += 1
    return total


def _line_key(a, b, field):
    """The Pluecker vector of the line spanned by the int rows a and b in
    its field's normal form.  Two pairs span one line exactly when keys
    agree."""
    return field.normal_form([a[i] * b[j] - a[j] * b[i]
                              for i, j in itertools.combinations(range(len(a)), 2)])


def max_collinear_length(scheme: FiniteScheme) -> int:
    """Largest degree of a subscheme contained in one line; the degree
    itself when no two rows span a line (a single reduced point) or the
    ambient space is a line.

    The candidates are the lines through two support points and the
    tangent lines, spanned by a germ's first two rows.  A line's score is
    the contact of every germ with it, read off a grouping of the
    supports by line instead of a reduction per line.  Row 0 of a germ is
    its support, so only germs supported on L meet L; support i lies on
    the line through supports j and k exactly when the key of (i, j) is
    that line's key, so the pair keys collect every support on every
    line.  Rows 0 and 1 of an immersed germ span its tangent line, so a
    germ supported on L contributes 1 when its tangent is not L, and
    otherwise 2 plus its further leading rows on L: those are reduced
    once per germ, against the pivots of its own tangent."""
    if scheme.ambient <= 1:
        return scheme.degree
    field = scheme.field
    blocks = [g.int_rows() for g in scheme.germs]
    # on_line[key]: the germs supported on the line; a germ's support is
    # on its tangent, which no other support need share
    on_line = {}
    for i, j in itertools.combinations(range(len(blocks)), 2):
        key = _line_key(blocks[i][0], blocks[j][0], field)
        on_line.setdefault(key, set()).update((i, j))
    # tangents[i, key]: germ i's contact with its tangent line `key`
    tangents = {}
    for i, block in enumerate(blocks):
        if len(block) < 2:
            continue
        key = _line_key(block[0], block[1], field)
        contact = 2
        if len(block) > 2:
            line = ColumnSpace(field)
            line.add(block[0])
            line.add(block[1])
            for row in block[2:]:
                if any(line.reduce(row)):
                    break
                contact += 1
        tangents[i, key] = contact
        on_line.setdefault(key, set()).add(i)
    if not on_line:
        return scheme.degree
    return max(sum(tangents.get((i, key), 1) for i in germs)
               for key, germs in on_line.items())


def _check_cap(scheme: FiniteScheme):
    cap = enumeration_cap()
    if scheme.degree > cap:
        raise EnumerationCapExceeded(
            "scheme degree %d exceeds the enumeration cap %d" % (scheme.degree, cap)
        )


def enumerate_subschemes(scheme: FiniteScheme, length: int):
    """Yield every selector of per-germ truncation lengths summing to
    `length`.  Guarded by the enumeration cap on the scheme degree."""
    _check_cap(scheme)
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


def _parallel(w, v, lead, p):
    """Whether w is a multiple of v (zero included), v leading at `lead`:
    exactly when w reduced against v alone is zero, tested without
    building the reduced row."""
    a, b = w[lead], v[lead]
    if p is None:
        return all(b * x == a * y for x, y in zip(w, v))
    return all((b * x - a * y) % p == 0 for x, y in zip(w, v))


def _least_dependent_prefix(blocks, field):
    """The least degree of a dependent subscheme of the germs' row blocks,
    or d + 1 when none is.

    Depth-first, germ by germ and one row at a time, on one reducer that
    a branch pushes its rows onto and truncates on return, so subschemes
    sharing a prefix share its elimination.  A branch ends at its first
    dependent row and is cut once it cannot beat the least found.  Row 0
    of each later germ is carried down reduced against the branch, so a
    child tests it for zero; on the last level that can beat it, it is
    only tested for being a multiple of the new pivot (`_parallel`)."""
    p, space = field.modulus, ColumnSpace(field)
    least = sum(map(len, blocks)) + 1

    def walk(start, heads, base):
        # space: base rows from the germs before start, then germ start +
        # j's (rank in all); heads[j]: row 0 of that germ reduced to base
        nonlocal least
        for j, head in enumerate(heads):
            if base + 1 >= least:
                return
            pending = heads[j + 1:]
            for rank, row in enumerate(blocks[start + j], base):
                if rank + 1 >= least:
                    break
                v = space.reduce(row) if rank > base else head
                if not any(v):
                    least = rank + 1
                    break
                if rank + 2 >= least:
                    break  # a longer branch could not beat least
                if rank + 3 < least:
                    space.push(v, pending)
                    walk(start + j + 1, pending, rank + 1)
                    continue
                space.push(v)  # the children would only test their heads
                if any(_parallel(w, v, space.pivots[-1][0], p) for w in pending):
                    least = rank + 2
            del space.pivots[base:]

    walk(0, [block[0] for block in blocks], 0)
    return least


def _largest_suffix(cols, field, corank):
    """The largest size of a suffix-closed set T of rows (each germ's last
    ones) whose Gale columns have rank below `corank`; cols[i] holds germ
    i's columns, its last row first.

    The walk of `_least_dependent_prefix` on the columns: a column in the
    span extends T without using rank.  Once the rank is corank - 1, no
    column may add a pivot, so a subtree's best takes each germ's run of
    columns in the span, read in one scan, later germs' first columns by
    `_parallel`.  A branch is cut once it cannot beat the best found, and
    the search stops once T holds all rows but three: every subscheme of
    degree 2 is independent, so the least dependent degree is at least 3."""
    p, space, best = field.modulus, ColumnSpace(field), 0
    rest = list(itertools.accumulate(map(len, reversed(cols))))[::-1]
    limit = rest[0] - 3

    def run(block):
        # how many of the block's leading columns lie in the span
        n = 0
        for col in block:
            if any(space.reduce(col)):
                break
            n += 1
        return n

    if corank == 1:
        return sum(map(run, cols))

    def walk(start, heads, size):
        # space: the columns of T, of rank below corank - 1; heads[j]:
        # germ start + j's first column reduced to the space
        nonlocal best
        base = space.rank
        for j, head in enumerate(heads):
            if min(size + rest[start + j], limit) <= best:
                return
            pending, block = heads[j + 1:], cols[start + j]
            for k, col in enumerate(block, 1):
                v = space.reduce(col) if k > 1 else head
                if any(v):
                    if space.rank + 2 == corank:
                        space.push(v)
                        lead = space.pivots[-1][0]
                        best = max(best, size + k + run(block[k:]) + sum(
                            1 + run(cols[i][1:]) for i, w in enumerate(pending, start + j + 1)
                            if _parallel(w, v, lead, p)))
                        break
                    space.push(v, pending)
                best = max(best, size + k)
                walk(start + j + 1, pending, size + k)
            del space.pivots[base:]

    walk(0, [block[0] for block in cols], 0)
    return best


def invariant_t(scheme: FiniteScheme) -> int:
    """The largest k such that every subscheme of degree at most k + 1
    spans a linear space of projective dimension exactly one less than
    its degree.  A single point yields 1 by convention.

    A subscheme's rows are prefixes of its germs' blocks, and one that
    contains a dependent subscheme is dependent, so k is (the least
    degree of a dependent subscheme) - 2, or d - 1 when none is.  Below
    d = 2(N + 1) one elimination of the rows [r_i | e_i] gives their rank
    R and, in the pivots leading in the identity block, a basis of their
    K = d - R dependencies; K = 0 gives d - 1.  By matroid duality
    (Oxley, Matroid Theory, 2nd ed., ch. 2: r*(X) = |X| - r(E) + r(E - X))
    a subscheme is dependent exactly when the Gale columns of the other
    rows (the basis read one row at a time) have rank below K.  So when
    0 < K < R the least dependent degree is d less the largest
    suffix-closed set of rows (each germ's last ones) of column rank
    below K, found by `_largest_suffix`; otherwise
    `_least_dependent_prefix` searches the rows.
    Guarded by the enumeration cap on the scheme degree."""
    d = scheme.degree
    if d == 1:
        return 1
    _check_cap(scheme)
    field, width = scheme.field, scheme.ambient + 1
    blocks = [g.int_rows() for g in scheme.germs]
    if d < 2 * width:
        space = ColumnSpace(field)
        for i, row in enumerate(itertools.chain.from_iterable(blocks)):
            unit = [0] * d
            unit[i] = 1
            space.add(row + unit)
        kernel = [v[width:] for lead, v in space.pivots if lead >= width]
        corank = len(kernel)
        if not corank:
            return d - 1
        if corank < d - corank:
            columns = iter(zip(*kernel))
            cols = [list(itertools.islice(columns, len(block)))[::-1] for block in blocks]
            return d - _largest_suffix(cols, field, corank) - 2
    return _least_dependent_prefix(blocks, field) - 2


def apply_matrix(scheme: FiniteScheme, matrix: Matrix) -> FiniteScheme:
    """Image of the scheme under an invertible change of homogeneous
    coordinates, applied on ints: the matrix cleared to ints by one
    `field.cleared` (a scale of the whole matrix moves no germ) acts on
    each germ's int series.  A matrix over another field than the
    scheme, or a singular one, is a ValueError."""
    if matrix.field is not scheme.field:
        raise ValueError("matrix and scheme lie over different fields")
    n = scheme.ambient
    if matrix.nrows != n + 1 or matrix.ncols != n + 1:
        raise ValueError("matrix size does not match the ambient space")
    if matrix.rank() != n + 1:
        raise ValueError("singular matrix [%s] is no change of coordinates" % ", ".join(
            "[%s]" % ", ".join(map(str, row)) for row in matrix.data))
    flat, _ = scheme.field.cleared([c for row in matrix.data for c in row])
    rows = [flat[r:r + n + 1] for r in range(0, len(flat), n + 1)]
    new_germs = []
    for g in scheme.germs:
        new = [[sum(a * s[k] for a, s in zip(row, g.series) if a) for k in range(g.length)]
               for row in rows]
        new_germs.append(CurvilinearGerm(new, scheme.field))
    return FiniteScheme(new_germs, scheme.field)
