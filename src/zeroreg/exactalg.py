"""Exact scalars and dense exact linear algebra.

Everything downstream (Hilbert functions, secant detection, separator
construction) reduces to exact rank and kernel questions, so
elimination lives here and nowhere else.  Two coefficient fields are
supported:

* the rationals, represented by ``fractions.Fraction`` (authoritative);
* prime fields F_p for a caller-chosen odd prime (opt-in fast mode,
  useful for cross-checks with a large random prime).

Each field has one elimination loop, `ColumnSpace.add`, an incremental
reducer on plain Python ints: vectors are fed one at a time and reduced
against the pivots kept so far, sorted by lead.  Over Q a vector is
cleared to coprime integers and reduced by cross-multiplication, then
divided by its content, so entries stay integral without Bareiss
divisions; over F_p it is reduced on the residues mod p and scaled to
lead with 1, inverting with ``pow(x, -1, p)``.  `Matrix.rank` and
`Matrix.kernel_basis` feed the rows into one such reducer; kernels are
back-substituted on its pivots, over Q in integers over one running
common denominator, so a Fraction (or a field element) is built only
for each returned entry.  A kernel basis is the unique one with one
vector per non-pivot column set to 1, so results are reproducible bit
for bit.

Scalars never cross fields silently: comparing an F_p element with a
Fraction or with an element of another prime field raises TypeError.
"""

from __future__ import annotations

import functools
from bisect import insort
from fractions import Fraction
from math import gcd, lcm


class RationalField:
    """Marker/constructor object for the field of rational numbers."""

    characteristic = 0

    def __call__(self, value=0):
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """Return the element class for F_p.  p must be an odd prime.

    The returned class doubles as the field tag: calling it coerces ints,
    Fractions and strings ("7", "3/4") to num * den^-1 mod p, and takes
    other elements of the same field as they are.  A denominator that p
    divides raises ZeroDivisionError.
    """
    if p < 3 or not is_probable_prime(p):
        raise ValueError(f"prime_field needs an odd prime, got {p}")

    class FpElement:
        __slots__ = ("value",)
        modulus = p
        characteristic = p

        def __init__(self, value=0):
            if isinstance(value, FpElement):
                self.value = value.value
            elif isinstance(value, int):
                # before the Fraction test: isinstance against an ABC
                # subclass is slow, and ints are the hot case
                self.value = value % p
            elif isinstance(value, str):
                if "/" in value:
                    num, den = value.split("/")
                    self.value = _ratio_mod(int(num), int(den), p)
                else:
                    self.value = int(value) % p
            elif isinstance(value, Fraction):
                self.value = _ratio_mod(value.numerator, value.denominator, p)
            else:
                self.value = int(value) % p

        def __add__(self, other):
            return FpElement(self.value + FpElement(other).value)

        __radd__ = __add__

        def __sub__(self, other):
            return FpElement(self.value - FpElement(other).value)

        def __rsub__(self, other):
            return FpElement(FpElement(other).value - self.value)

        def __mul__(self, other):
            return FpElement(self.value * FpElement(other).value)

        __rmul__ = __mul__

        def __truediv__(self, other):
            o = FpElement(other)
            if o.value == 0:
                raise ZeroDivisionError("division by zero in F_p")
            return FpElement(self.value * pow(o.value, -1, p))

        def __rtruediv__(self, other):
            if self.value == 0:
                raise ZeroDivisionError("division by zero in F_p")
            return FpElement(FpElement(other).value * pow(self.value, -1, p))

        def __neg__(self):
            return FpElement(-self.value)

        def __pow__(self, e):
            return FpElement(pow(self.value, e, p))

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


def parse_scalar(text, field=QQ):
    """Parse a canonical scalar string ("5", "-3/4") into the given field."""
    if field is QQ:
        return Fraction(text)
    return field(text)


def scalar_str(x) -> str:
    """Canonical string form of a scalar, inverse of parse_scalar."""
    return str(x)


def _clear_row(row):
    """Scale a row of Fractions or ints to coprime integers
    (rank/kernel preserving)."""
    mult = lcm(*(f.denominator for f in row))
    if mult == 1:
        ints = [f.numerator for f in row]
    else:
        ints = [f.numerator * (mult // f.denominator) for f in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _integer_kernel(pivots, width):
    """Kernel basis of echelon integer rows, given as (lead, row) pairs
    sorted by lead, one vector per free column with that column set to
    1, as tuples of Fractions.

    Back-substitution runs in integers: the vector is kept as integer
    numerators over one running common denominator, and each pivot step
    rescales the numerators set so far instead of dividing.
    """
    pivot_set = {c for c, _ in pivots}
    basis = []
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
            p = row[c]
            g = gcd(s, p)
            scale = p // g
            if scale != 1:
                for j in range(c + 1, width):
                    if x[j]:
                        x[j] *= scale
                den *= scale
            x[c] = -(s // g)
        basis.append(tuple(Fraction(v, den) for v in x))
    return basis


def _field_kernel(pivots, width, field):
    """Kernel basis of echelon residue rows mod p that lead with 1, given
    as (lead, row) pairs sorted by lead, one vector per free column with
    that column set to 1, as tuples of field elements."""
    p = field.modulus
    pivot_set = {c for c, _ in pivots}
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = 1
        for c, row in reversed(pivots):
            s = 0
            for j in range(c + 1, width):
                if x[j]:
                    s += row[j] * x[j]
            x[c] = -s % p
        basis.append(tuple(field(v) for v in x))
    return basis


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
        every basis vector v.  The stored pivots of the row space are
        sorted by lead and zero before it, so they are an echelon form;
        the basis does not depend on which echelon form it is read from.
        """
        pivots = self._row_space().pivots
        if self.field is QQ:
            return _integer_kernel(pivots, self.ncols)
        return _field_kernel(pivots, self.ncols, self.field)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


class ColumnSpace:
    """Incremental rank of a stream of vectors in K^d: the one
    elimination loop of each field.

    Vectors (matrix rows, separating-family evaluations, or the
    operator images of one degree of a Hilbert function) are fed one at
    a time and reduced against the pivots collected so far, so a caller
    can stop early once a target rank is reached.  `pivots` holds (lead,
    vector) pairs sorted by lead, with distinct leads and every vector
    zero before its lead: an echelon form of the span.  The vectors are
    plain ints: over the rationals coprime integers reduced by
    cross-multiplication, over F_p residues mod p (plain ints are taken
    mod p on entry) scaled to lead with 1.
    """

    __slots__ = ("field", "pivots")

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = []

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce vec against the current basis; returns True if rank grew."""
        field = self.field
        if field is QQ:
            v = _clear_row(vec)
            for idx, piv in self.pivots:
                head = v[idx]
                if head == 0:
                    continue
                scale = piv[idx]
                v = [scale * a - head * b for a, b in zip(v, piv)]
                g = gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        else:
            p = field.modulus
            v = [x % p if type(x) is int else x.value if type(x) is field
                 else field(x).value for x in vec]
            for idx, piv in self.pivots:
                head = v[idx]
                if head:
                    v = [(a - head * b) % p for a, b in zip(v, piv)]
        lead = next((i for i, a in enumerate(v) if a != 0), None)
        if lead is None:
            return False
        if field is not QQ:
            inv = pow(v[lead], -1, p)
            v = [a * inv % p for a in v]
        insort(self.pivots, (lead, v))
        return True
