"""Exact scalars and dense exact linear algebra.

Everything downstream (Hilbert functions, secant detection, separator
construction) reduces to exact rank and kernel questions, so
elimination lives here and nowhere else.  Two coefficient fields are
supported:

* the rationals, represented by ``fractions.Fraction`` (authoritative);
* prime fields F_p for a caller-chosen odd prime (opt-in fast mode,
  useful for cross-checks with a large random prime).

Each field has one elimination kernel working on plain Python ints.
Rational elimination is fraction-free: rows are cleared to integers and
reduced with Bareiss-style cross-multiplication so intermediate entries
stay integral and growth stays bounded by minor sizes.  Kernels are
back-substituted on those integer rows too, over one running common
denominator, so a Fraction is built only for each returned entry.
Prime-field elimination runs on the residues mod p, inverting pivots
with ``pow(x, -1, p)``; field elements are built only for returned
kernel vectors.  Pivoting is deterministic (first nonzero entry), so
results are reproducible bit for bit.

Scalars never cross fields silently: comparing an F_p element with a
Fraction or with an element of another prime field raises TypeError.
"""

from __future__ import annotations

import functools
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
    """Scale a row of Fractions to coprime integers (rank/kernel preserving)."""
    mult = lcm(*(f.denominator for f in row)) if row else 1
    if mult == 1:
        ints = [f.numerator for f in row]
    else:
        ints = [f.numerator * (mult // f.denominator) for f in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _bareiss_echelon(rows, width):
    """In-place fraction-free echelon form of integer rows.

    Returns the list of pivot column indices; rows are left in echelon
    order (pivot rows first).
    """
    pivots = []
    r = 0
    prev = 1
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, len(rows)):
            # every lower row must be rescaled each step, even with a zero
            # head, or the exact-division invariant breaks later
            head = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            if head == 0:
                for j in range(c, width):
                    q, rem = divmod(pivot * row_i[j], prev)
                    if rem:
                        raise ArithmeticError("inexact division in elimination")
                    row_i[j] = q
            else:
                for j in range(c, width):
                    q, rem = divmod(pivot * row_i[j] - head * row_r[j], prev)
                    if rem:
                        raise ArithmeticError("inexact division in elimination")
                    row_i[j] = q
        prev = pivot
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _integer_kernel(rows, pivots, width):
    """Kernel basis of echelon integer rows, one vector per free column
    with that column set to 1, as tuples of Fractions.

    Back-substitution runs in integers: the vector is kept as integer
    numerators over one running common denominator, and each pivot step
    rescales the numerators set so far instead of dividing.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = den = 1
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = rows[i]
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


def _field_echelon(rows, width, p):
    """In-place reduced-pivot echelon form of integer rows mod p: every
    pivot row is scaled to lead with 1.  Returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        row_r = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(r + 1, len(rows)):
            head = rows[i][c]
            if head:
                rows[i] = [(a - head * b) % p for a, b in zip(rows[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _field_kernel(rows, pivots, width, field):
    """Kernel basis of echelon rows from `_field_echelon`, one vector per
    free column with that column set to 1, as tuples of field elements."""
    p = field.modulus
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = 1
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = rows[i]
            s = 0
            for j in range(c + 1, width):
                if x[j]:
                    s += row[j] * x[j]
            x[c] = -s % p
        basis.append(tuple(field(v) for v in x))
    return basis


class Matrix:
    """Dense exact matrix.  Entries are Fractions or F_p elements."""

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
        if field is QQ:
            self.data = [[Fraction(v) for v in row] for row in self.data]
        else:
            self.data = [[field(v) for v in row] for row in self.data]

    @classmethod
    def identity(cls, n, field=QQ):
        return cls([[field(1) if i == j else field(0) for j in range(n)] for i in range(n)], field=field)

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
                      field=self.field, ncols=self.nrows)

    def mul_vec(self, vec):
        vec = list(vec)
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        zero = self.field(0)
        return tuple(sum((a * b for a, b in zip(row, vec)), zero) for row in self.data)

    def _echelon(self, rows, width):
        """Echelon form of a working copy of the given rows.  Returns
        (rows, pivots); the rows are coprime integers over Q and
        residues mod p over F_p."""
        if self.field is QQ:
            rows = [_clear_row(row) for row in rows]
            return rows, _bareiss_echelon(rows, width)
        rows = [[v.value for v in row] for row in rows]
        return rows, _field_echelon(rows, width, self.field.modulus)

    def _kernel(self, rows, pivots, width):
        """Kernel basis of echelon rows from `_echelon`, one vector per
        free column with that column set to 1."""
        if self.field is QQ:
            return _integer_kernel(rows, pivots, width)
        return _field_kernel(rows, pivots, width, self.field)

    def rank(self) -> int:
        if not self.nrows or not self.ncols:
            return 0
        _, pivots = self._echelon(self.data, self.ncols)
        return len(pivots)

    def kernel_basis(self):
        """Basis of the right null space, as a list of tuples.

        len(result) == ncols - rank, and every basis vector v satisfies
        self.mul_vec(v) == 0.
        """
        if not self.ncols:
            return []
        rows, pivots = self._echelon(self.data, self.ncols)
        return self._kernel(rows, pivots, self.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def rank(m: Matrix) -> int:
    return m.rank()


def kernel_basis(m: Matrix):
    return m.kernel_basis()


class ColumnSpace:
    """Incremental rank of a stream of vectors in K^d.

    Used for wide evaluation matrices: columns are fed one at a time and
    reduced against the pivots collected so far, so the rank computation
    can stop early once a target rank is reached.  The stored pivot
    vectors are plain ints: over the rationals coprime-integer
    rescalings reduced by cross-multiplication, over F_p residues mod p
    scaled to lead with 1.
    """

    __slots__ = ("field", "pivots")

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = []  # list of (pivot_index, reduced_vector)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce vec against the current basis; returns True if rank grew."""
        field = self.field
        if field is QQ:
            v = _clear_row([Fraction(x) for x in vec])
            for idx, piv in self.pivots:
                head = v[idx]
                if head == 0:
                    continue
                scale = piv[idx]
                v = [scale * a - head * b for a, b in zip(v, piv)]
                g = 0
                for a in v:
                    g = gcd(g, a)
                if g > 1:
                    v = [a // g for a in v]
        else:
            p = field.modulus
            v = [x.value if type(x) is field else field(x).value for x in vec]
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
        self.pivots.append((lead, v))
        self.pivots.sort(key=lambda t: t[0])
        return True
