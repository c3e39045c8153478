"""Exact linear algebra: ranks, kernels, field cross-checks."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from zeroreg.exactalg import (
    QQ,
    ColumnSpace,
    Matrix,
    is_probable_prime,
    parse_scalar,
    prime_field,
    scalar_str,
)


def _mul_vec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def test_rank_identity():
    assert Matrix([[int(i == j) for j in range(3)] for i in range(3)]).rank() == 3


def test_rank_dependent_rows():
    m = Matrix([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_of_dependent_rows():
    rows = [[1, 2], [2, 4]]
    basis = Matrix(rows).kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # kernel vector must be proportional to (2, -1); certify by m @ v == 0
    assert all(x == 0 for x in _mul_vec(rows, v))
    assert any(x != 0 for x in v)


def test_fraction_entries():
    assert Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]).rank() == 1
    assert Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]).rank() == 2


def _random_int_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_sympy_oracle():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        data = _random_int_matrix(rng, r, c)
        assert Matrix(data).rank() == sympy.Matrix(data).rank()


def test_kernel_dimension_and_membership():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        data = _random_int_matrix(rng, r, c)
        m = Matrix(data)
        basis = m.kernel_basis()
        assert len(basis) == c - m.rank()
        for v in basis:
            assert all(x == 0 for x in _mul_vec(data, v))
        if basis:
            assert Matrix(basis).rank() == len(basis)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_equals_rank_of_transpose(rows):
    assert Matrix(rows).rank() == Matrix([list(col) for col in zip(*rows)]).rank()


def test_prime_field_arithmetic():
    F = prime_field(101)
    a, b = F(7), F(45)
    assert a + b == F(52)
    assert a * b == F(7 * 45 % 101)
    assert (a / b) * b == a
    assert -a == F(94)
    assert a ** 3 == F(pow(7, 3, 101))
    assert F("3/4") * F(4) == F(3)


def test_prime_field_requires_odd_prime():
    with pytest.raises(ValueError):
        prime_field(10)
    with pytest.raises(ValueError):
        prime_field(2)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 43):
        assert is_probable_prime(n) == (n in primes)


def test_rank_agrees_between_q_and_large_prime_field():
    rng = random.Random(2024)
    p = sympy.nextprime(2**31 + rng.randrange(2**29))
    F = prime_field(int(p))
    agree = 0
    trials = 200
    for _ in range(trials):
        data = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=30)
        if Matrix(data).rank() == Matrix(data, field=F).rank():
            agree += 1
    assert agree >= trials * 99 // 100


def test_column_space_incremental_rank():
    rng = random.Random(3)
    for _ in range(25):
        r = rng.randint(1, 6)
        c = rng.randint(1, 8)
        data = _random_int_matrix(rng, r, c)
        cs = ColumnSpace(QQ)
        for j in range(c):
            cs.add([Fraction(data[i][j]) for i in range(r)])
        assert cs.rank == Matrix(data).rank()


def test_column_space_prime_field():
    F = prime_field(10007)
    cs = ColumnSpace(F)
    assert cs.add([F(1), F(2)])
    assert not cs.add([F(2), F(4)])
    assert cs.add([F(0), F(1)])
    assert cs.rank == 2
    # plain ints are residues after reduction mod p: 14 is a zero lead
    cs = ColumnSpace(prime_field(7))
    assert cs.add([14, 3, 7 * 10**12 + 5])
    assert cs.pivots == [(1, [0, 1, 4])]


def test_kernel_regression_zero_head_rows():
    # elimination once skipped rescaling rows whose head entry was zero,
    # which corrupted later exact divisions; this matrix triggered it
    rows = [
        [625, 375, 225, 135, 81, -250, -150, 100],
        [256, -192, 144, -108, 81, 128, -96, 64],
        [16, -24, 36, -54, 81, 16, -24, 16],
        [81, 108, 144, 192, 256, -27, -36, 9],
        [16, -8, 4, -2, 1, 8, -4, 4],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ]
    m = Matrix([[Fraction(v) for v in row] for row in rows])
    assert m.rank() == 6
    vecs = m.kernel_basis()
    assert len(vecs) == 2
    for v in vecs:
        assert all(r == 0 for r in _mul_vec(rows, v))


def test_scalar_round_trip():
    for text in ["5", "-7", "3/4", "-22/7"]:
        assert scalar_str(parse_scalar(text)) == text
    F = prime_field(13)
    assert scalar_str(parse_scalar("7", F)) == "7"


def _fraction_rref(rows, width, field=Fraction):
    """Reference: Gauss-Jordan over Fractions (or the elements of a prime
    field).  Returns (rows, pivots)."""
    rows = [[field(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                head = rows[i][c]
                rows[i] = [a - head * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _fraction_kernel(rows, width, field=Fraction):
    """Reference kernel: one vector per free column, that column set to 1."""
    reduced, pivots = _fraction_rref(rows, width, field)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        x = [field(0)] * width
        x[f] = field(1)
        for i, c in enumerate(pivots):
            x[c] = -reduced[i][f]
        basis.append(tuple(x))
    return basis


def _random_rational_matrix(rng):
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
    rank = rng.randint(0, min(nrows, ncols))
    basis = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ncols)]
             for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [Fraction(0)] * ncols
        for b in basis:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols


def test_kernel_basis_matches_fraction_reference():
    rng = random.Random(31)
    shapes = {"wide": 0, "deficient": 0, "zero_row": 0}
    for _ in range(600):
        rows, ncols = _random_rational_matrix(rng)
        m = Matrix(rows, field=QQ, ncols=ncols)
        got = m.kernel_basis()
        assert got == _fraction_kernel(rows, ncols)
        assert all(isinstance(x, Fraction) for v in got for x in v)
        shapes["wide"] += ncols > len(rows)
        shapes["deficient"] += m.rank() < min(len(rows), ncols)
        shapes["zero_row"] += any(all(x == 0 for x in row) for row in rows)
    assert all(count > 50 for count in shapes.values()), shapes


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_prime_field_kernels_match_gauss_jordan_reference(p):
    F = prime_field(p)
    rng = random.Random(p)
    shapes = {"wide": 0, "deficient": 0, "zero_row": 0}
    for _ in range(400):
        rows, ncols = _random_rational_matrix(rng)
        rows = [[F(x) for x in row] for row in rows]
        m = Matrix(rows, field=F, ncols=ncols)
        _, pivots = _fraction_rref(rows, ncols, F)
        assert m.rank() == len(pivots)
        got = m.kernel_basis()
        assert got == _fraction_kernel(rows, ncols, F)
        assert all(type(x) is F for v in got for x in v)
        columns, row_space = ColumnSpace(F), ColumnSpace(F)
        for j in range(ncols):
            columns.add([row[j] for row in rows])
        grew = [row_space.add(row) for row in rows]
        assert columns.rank == row_space.rank == sum(grew) == len(pivots)
        shapes["wide"] += ncols > len(rows)
        shapes["deficient"] += len(pivots) < min(len(rows), ncols)
        shapes["zero_row"] += any(all(x == 0 for x in row) for row in rows)
    assert all(count > 30 for count in shapes.values()), shapes


def test_prime_field_equality_refuses_other_fields():
    F, G = prime_field(7), prime_field(11)
    assert F(3) == F(10) and F(3) == 10 and F(3) != 4
    with pytest.raises(TypeError):
        F(1) == Fraction(1)
    with pytest.raises(TypeError):
        Fraction(1, 2) == F(4)
    with pytest.raises(TypeError):
        F(1) != G(1)


def test_kernel_basis_edge_shapes():
    assert Matrix([[0, 0, 0]]).kernel_basis() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert Matrix([], field=QQ, ncols=2).kernel_basis() == [(1, 0), (0, 1)]
    assert Matrix([[Fraction(1, 2), 0], [0, 3]]).kernel_basis() == []


def test_prime_field_coerces_fractions_exactly():
    F = prime_field(7)
    assert F(Fraction(1, 2)) == F(4)
    assert F(Fraction(-3, 4)) == F("-3/4") == F(1)
    assert F(Fraction(14, 3)) == F(0)
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 7))
    with pytest.raises(ZeroDivisionError):
        F("2/21")


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
def test_column_space_pivots_are_an_echelon_form(p):
    # Matrix.kernel_basis back-substitutes these pivots as they are
    field = QQ if p == 0 else prime_field(p)
    rng = random.Random(100 + p)
    inserted_before_a_lead = 0
    for trial in range(200):
        if trial % 2:
            rows, ncols = _random_rational_matrix(rng)
        else:
            # sparse rows, so that a later row can lead before a kept pivot
            ncols = rng.randint(1, 8)
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.4
                     else Fraction(0) for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
        space = ColumnSpace(field)
        for row in rows:
            before = {lead for lead, _ in space.pivots}
            if space.add(row) and before:
                (new,) = {lead for lead, _ in space.pivots} - before
                inserted_before_a_lead += new < max(before)
        leads = [lead for lead, _ in space.pivots]
        assert all(a < b for a, b in zip(leads, leads[1:]))
        for lead, v in space.pivots:
            assert len(v) == ncols and all(type(x) is int for x in v)
            assert not any(v[:lead]) and v[lead] != 0
            if field is QQ:
                assert gcd(*v) == 1
            else:
                assert v[lead] == 1 and all(0 <= x < p for x in v)
    assert inserted_before_a_lead > 20


_SMALL_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([7, 2**31 - 1]),
    st.integers(1, 6).flatmap(lambda ncols: st.lists(
        st.lists(_SMALL_FRACTIONS, min_size=ncols, max_size=ncols), min_size=1, max_size=5)),
)
def test_prime_field_rank_and_kernel_match_sympy(p, rows):
    # Fraction entries are mapped into F_p by the reducer itself
    F, K = prime_field(p), GF(p)
    ncols = len(rows[0])
    ref = DomainMatrix([[K(x.numerator) / K(x.denominator) for x in row] for row in rows],
                       (len(rows), ncols), K)
    m = Matrix(rows, field=F)
    assert m.rank() == ref.rank()
    # sympy scales its basis vectors otherwise: put 1 at each free column
    pivots = set(ref.rref()[1])
    want = []
    for v in ref.nullspace().to_list():
        v = [int(x) % p for x in v]
        inv = pow(next(x for c, x in enumerate(v) if x and c not in pivots), -1, p)
        want.append([x * inv % p for x in v])
    assert [[x.value for x in v] for v in m.kernel_basis()] == want
