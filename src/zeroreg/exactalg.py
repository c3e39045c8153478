"""Exact scalars and dense exact linear algebra.

Everything downstream (Hilbert functions, secant detection, separator
construction) reduces to exact rank and kernel questions, so
elimination lives here and nowhere else.  Two coefficient fields are
supported:

* the rationals, represented by ``fractions.Fraction`` (authoritative);
* prime fields F_p for a caller-chosen odd prime (opt-in fast mode,
  useful for cross-checks with a large random prime).

Each field tag owns the boundary between its scalars and plain ints, so
no caller converts scalars by field: `cleared(row)` is (ints, den) with
row = ints / den (residues and 1 over F_p), `ints(row)` the same span as
ints (coprime integers over Q, residues over F_p), `scalar(num, den)`
the element num / den, `normal_form(vec, lead)` the one int vector of
vec's projective class (primitive with entry `lead` positive over Q,
residues with entry `lead` 1 over F_p; `lead` defaults to the first
nonzero entry, and a zero entry there gives None), and `modulus` p, or
None for Q.

Elimination is one single-pivot step, `_eliminate`, in an incremental
reducer on plain ints, `ColumnSpace`: one cross-multiplication for both
fields, with no inverse (fraction-free, as in Bareiss 1968), then over
Q division by the content, so entries stay integral and small, and over
F_p reduction mod p.  A pivot keeps the nonzero lead it was reduced to.
`ColumnSpace.reduce` takes a vector through `field.ints` and steps it
against the pivots kept so far, in push order; `ColumnSpace.push`
appends a reduced vector as the newest pivot, last, and steps each row
a caller carries against that one pivot, so the rows stay reduced as
the space grows; `ColumnSpace.add` is the two in turn.  `Matrix.rank` and
`Matrix.kernel_basis` feed the rows into one reducer.
One back-substitution, `_kernel`, reads a kernel off its pivots sorted
by lead (`ColumnSpace.kernel`) as integer numerators over one common
denominator, the same loop on residues for F_p with one inverse per
vector to bring the denominator to 1; scalars are built only for the
entries a caller keeps.  A kernel basis is the unique one with one
vector per non-pivot column set to 1, so results are reproducible bit
for bit and do not depend on the order the rows were fed in.

Scalars never cross fields silently: comparing an F_p element with a
Fraction or with an element of another prime field raises TypeError.
F_p elements have no arithmetic: they are built for documents and
printing only, so a stray F_p operation raises TypeError too.

Scalar text has one grammar over both fields: an optional sign, decimal
digits and an optional "/digits", with whitespace around the whole; F_p
takes the image of the rational number a string names.  `parse_scalar`
is the one reader of scalars from documents and the command line, and
`parse_prime_field` reads a modulus through it.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm


def _read_ratio(text):
    """The Fraction named by a string in the one scalar grammar."""
    m = re.fullmatch(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", text)
    if m is None:
        raise ValueError("a scalar is an integer or a ratio of integers such as -3/4")
    num, den = m.groups()
    return Fraction(int(num), int(den or 1))


def _clear_row(row):
    """Scale a row of Fractions or ints to coprime integers
    (rank/kernel preserving)."""
    try:
        # plain ints, the hot case: math.gcd rejects a Fraction
        g = gcd(*row)
        ints = list(row)
    except TypeError:
        ints, _ = RationalField.cleared(row)
        g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class RationalField:
    """Marker/constructor object for the field of rational numbers."""

    modulus = None
    ints = staticmethod(_clear_row)
    scalar = Fraction

    def __call__(self, value=0):
        if isinstance(value, Fraction):
            return value
        return _read_ratio(value) if isinstance(value, str) else Fraction(value)

    @staticmethod
    def cleared(row):
        try:
            den = lcm(*(x.denominator for x in row))
        except AttributeError:
            raise TypeError("a rational scalar is an int or a Fraction") from None
        return [x.numerator * (den // x.denominator) for x in row], den

    @staticmethod
    def normal_form(vec, lead=None):
        for x in vec if lead is None else (vec[lead],):
            if x:
                g = gcd(*vec) if x > 0 else -gcd(*vec)
                return tuple(vec) if g == 1 else tuple([v // g for v in vec])
        return None

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Below this bound Miller-Rabin on `_MR_BASES` proves primality
# (Sorenson and Webster 2015), and one test takes microseconds; a
# 4,000-digit modulus takes seconds per base.
_MR_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers all 64-bit input)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ratio_mod(num: int, den: int, p: int) -> int:
    """num / den reduced mod p; a denominator divisible by p has no image."""
    if den % p == 0:
        raise ZeroDivisionError(f"{num}/{den} has no image in F_{p}")
    return num * pow(den, -1, p) % p


@functools.lru_cache(maxsize=None)
def prime_field(p: int):
    """Return the element class for F_p.  p must be an odd prime below
    3.3e24, where primality is proved.

    The returned class doubles as the field tag: calling it takes other
    elements of the same field as they are, ints mod p, and anything
    else as the rational number it is (a string in the one scalar
    grammar, any other value through Fraction) to num * den^-1 mod p.
    A denominator that p divides raises ZeroDivisionError.  An element
    is a tag on its residue `value`: it compares, hashes and prints,
    and has no arithmetic.
    """
    if not 3 <= p < _MR_BOUND or not is_probable_prime(p):
        raise ValueError(f"prime_field needs an odd prime below 3.3e24, got {p}")

    class FpElement:
        __slots__ = ("value",)
        modulus = p

        def __init__(self, value=0):
            if isinstance(value, FpElement):
                self.value = value.value
            elif isinstance(value, int):
                # ints are the hot case
                self.value = value % p
            else:
                q = _read_ratio(value) if isinstance(value, str) else Fraction(value)
                self.value = _ratio_mod(q.numerator, q.denominator, p)

        @staticmethod
        def ints(row):
            return [x % p if type(x) is int else x.value if type(x) is FpElement
                    else FpElement(x).value for x in row]

        @staticmethod
        def cleared(row):
            return FpElement.ints(row), 1

        @staticmethod
        def scalar(num, den=1):
            return FpElement(num if den == 1 else _ratio_mod(num, den, p))

        @staticmethod
        def normal_form(vec, lead=None):
            for x in vec if lead is None else (vec[lead],):
                x %= p
                if x:
                    if x == 1:
                        return tuple([v % p for v in vec])
                    inv = pow(x, -1, p)
                    return tuple([v * inv % p for v in vec])
            return None

        def __eq__(self, other):
            if isinstance(other, FpElement):
                return self.value == other.value
            if isinstance(other, int):
                return self.value == other % p
            raise TypeError("cannot compare an element of F_%d with %r" % (p, other))

        def __hash__(self):
            return hash((p, self.value))

        def __bool__(self):
            return self.value != 0

        def __str__(self):
            return str(self.value)

        def __repr__(self):
            return f"Fp({self.value} mod {p})"

    FpElement.__name__ = f"F{p}"
    FpElement.__qualname__ = f"F{p}"
    return FpElement


def field_of(x):
    """Field tag of a scalar: QQ for Fraction/int, the class for F_p elements."""
    if isinstance(x, Fraction) or isinstance(x, int):
        return QQ
    return type(x)


def parse_scalar(raw, field=QQ):
    """The element of `field` named by an int (not a bool) or a string in
    the one scalar grammar; any failure is a ValueError "bad scalar ..."."""
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ValueError("scalar must be an integer or string, got %s"
                             % type(raw).__name__)
        return field(raw)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError("bad scalar %r: %s" % (raw, err)) from None


def parse_prime_field(raw):
    """F_p for the p that `raw` names in `parse_scalar`'s grammar, which
    must be an integer; any failure is a ValueError."""
    p = parse_scalar(raw)
    if p.denominator != 1:
        raise ValueError("bad modulus %r: not an integer" % (raw,))
    return prime_field(p.numerator)


def scalar_str(x) -> str:
    """Canonical string form of a scalar, inverse of parse_scalar."""
    return str(x)


def _kernel(pivots, width, p):
    """Kernel basis of echelon int rows, given as (lead, row) pairs
    sorted by lead, one vector per free column with that column set to
    1, yielded lazily as (numerators, denominator) pairs of plain ints.

    The vector is kept as integer numerators over one running common
    denominator, and each pivot step rescales the numerators set so far
    by the pivot's lead over its gcd with the step's sum instead of
    dividing.  Over F_p the same loop runs on the residue rows, and one
    inverse of the denominator per vector takes the result to residues
    over 1.
    """
    pivot_set = {c for c, _ in pivots}
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = den = 1
        for c, row in reversed(pivots):
            s = 0
            for j in range(c + 1, width):
                if x[j]:
                    s += row[j] * x[j]
            if not s:
                continue
            lead = row[c]
            g = gcd(s, lead)
            scale = lead // g
            if scale != 1:
                for j in range(c + 1, width):
                    if x[j]:
                        x[j] *= scale
                den *= scale
            x[c] = -(s // g)
        if p is not None:
            inv = pow(den, -1, p)
            x, den = [v * inv % p for v in x], 1
        yield x, den


class Matrix:
    """Dense exact matrix.  Entries are kept as given: ints or Fractions
    over Q, F_p elements (or ints and Fractions coercible to them) over
    F_p.  Rank and kernel feed the rows into one `ColumnSpace`."""

    __slots__ = ("nrows", "ncols", "data", "field")

    def __init__(self, data, field=None, ncols=None):
        self.data = [list(row) for row in data]
        self.nrows = len(self.data)
        if self.nrows:
            self.ncols = len(self.data[0])
            if any(len(row) != self.ncols for row in self.data):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        if field is None:
            if not self.nrows or not self.ncols:
                raise ValueError("field required for empty matrix")
            field = field_of(self.data[0][0])
        self.field = field

    def _row_space(self):
        """The rows fed into one ColumnSpace, stopping once the rank is
        ncols: no later row can add a pivot then."""
        space = ColumnSpace(self.field)
        for row in self.data:
            if space.rank == self.ncols:
                break
            space.add(row)
        return space

    def rank(self) -> int:
        return self._row_space().rank

    def kernel_basis(self):
        """Basis of the right null space, as a list of tuples: one vector
        per non-pivot column, with that column set to 1.

        len(result) == ncols - rank, and row . v == 0 for every row and
        every basis vector v.  It depends on the row space alone, not on
        the echelon form it is read off.
        """
        scalar = self.field.scalar
        return [tuple(scalar(v, den) for v in x)
                for x, den in self._row_space().kernel(self.ncols)]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def _eliminate(v, idx, piv, p):
    """The one elimination step: v with its entry at idx cleared by the
    pivot piv leading there, by cross-multiplication, piv[idx] v -
    v[idx] piv.  Over Q (p None) then divided by the content, so entries
    stay integral and small; over F_p taken mod p, with no inverse.  The
    caller tests v[idx] first, so no step is taken on a zero head."""
    head, scale = v[idx], piv[idx]
    if p is None:
        v = [scale * a - head * b for a, b in zip(v, piv)]
        g = gcd(*v)
        return [a // g for a in v] if g > 1 else v
    return [(scale * a - head * b) % p for a, b in zip(v, piv)]


class ColumnSpace:
    """Incremental rank of a stream of vectors in K^d, by the one
    elimination step `_eliminate`.

    Vectors (matrix rows, separating-family evaluations, or the
    operator images of one degree of a Hilbert function) are fed one at
    a time and reduced against the pivots collected so far, so a caller
    can stop early once a target rank is reached.  `pivots` holds (lead,
    vector) pairs in push order, the newest last: distinct leads, each
    vector zero before its lead and at every earlier pivot's lead, so
    `reduce` steps through them in that order, and sorted by lead they
    are an echelon form of the span.  The vectors are plain ints reduced
    by cross-multiplication and kept at the nonzero lead that left them:
    over the rationals coprime integers, over F_p residues mod p (plain
    ints are taken mod p on entry).  No pivot is rescaled, so no step
    takes an inverse."""

    __slots__ = ("field", "pivots")

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = []

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """vec reduced against the current pivots, as plain ints: all zero
        exactly when vec lies in the span.  The reducer is unchanged."""
        v = self.field.ints(vec)
        p = self.field.modulus
        for idx, piv in self.pivots:
            if v[idx]:
                v = _eliminate(v, idx, piv, p)
        return v

    def push(self, v, pending=()) -> bool:
        """Take v, already reduced against the current pivots, as a new
        pivot as it is, unscaled, unless it is zero, then eliminate its
        lead from each row of `pending` in place.  Rows reduced against
        the old pivots stay reduced against the new ones, since v is zero
        at every earlier lead.  Returns True if the rank grew."""
        for lead, a in enumerate(v):
            if a:
                break
        else:
            return False
        p = self.field.modulus
        self.pivots.append((lead, v))
        for k, w in enumerate(pending):
            if w[lead]:
                pending[k] = _eliminate(w, lead, v, p)
        return True

    def add(self, vec) -> bool:
        """Reduce vec against the current basis; returns True if rank grew."""
        return self.push(self.reduce(vec))

    def kernel(self, width):
        """The kernel basis of `Matrix.kernel_basis` for the span in
        K^width, read off the pivots sorted by lead and yielded lazily as
        plain ints: (numerators, common denominator) pairs over Q,
        (residues, 1) pairs over F_p.  A caller that needs only some of
        the vectors builds no scalars for the others."""
        return _kernel(sorted(self.pivots), width, self.field.modulus)
