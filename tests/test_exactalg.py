"""Exact linear algebra: ranks, kernels, field cross-checks."""

import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from zeroreg import exactalg
from zeroreg.exactalg import (
    QQ,
    ColumnSpace,
    Matrix,
    is_probable_prime,
    parse_scalar,
    prime_field,
    scalar_str,
)
from zeroreg.harness import GeneratorSpec, gen_scheme
from zeroreg.normality import hilbert_function
from zeroreg.scheme import invariant_t


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
    # what an element keeps: construction, equality with elements and
    # ints, hashing and printing; its arithmetic is gone
    F = prime_field(101)
    assert F(7) == F(108) == F(-94) == F(F(7)) == 7 and F(7) != F(8)
    assert F("3/4") == F(Fraction(3, 4)) == 3 * pow(4, -1, 101) % 101
    for bad in ("3/202", Fraction(1, 101)):
        with pytest.raises(ZeroDivisionError):
            F(bad)
    assert hash(F(7)) == hash(F(108)) and len({F(7), F(108), F(8)}) == 2
    assert str(F(-1)) == "100" and repr(F(3)) == "Fp(3 mod 101)"
    assert not F(101) and F(3)
    with pytest.raises(TypeError):
        F(7) + F(45)


def test_prime_field_requires_odd_prime():
    with pytest.raises(ValueError):
        prime_field(10)
    with pytest.raises(ValueError):
        prime_field(2)


def test_prime_field_takes_only_primes_it_proves_and_refuses_others_at_once():
    assert prime_field(2**61 - 1).modulus == 2**61 - 1
    started = time.monotonic()
    # a Mersenne prime above the bound, and a 4,001-digit odd number
    # with no factor up to 37 (one Miller-Rabin round on it takes seconds)
    for p in (2**89 - 1, 10**4000 + 1):
        with pytest.raises(ValueError, match="odd prime below 3.3e24"):
            prime_field(p)
    assert time.monotonic() - started < 1


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
    assert cs.pivots == [(1, [0, 3, 5])]


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
    """Reference: Gauss-Jordan over Fractions (or over `_gf(F)`).
    Returns (rows, pivots)."""
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


def _gf(F):
    """The reference's arithmetic over F = prime_field(p): an int, a
    Fraction or an element of F as an element of sympy's GF(p)."""
    K = GF(F.modulus, symmetric=False)

    def element(x):
        x = Fraction(x.value if type(x) is F else x)
        return K(x.numerator) / K(x.denominator)
    return element


def _gf_kernel(rows, width, F):
    """`_fraction_kernel` over `_gf(F)`, as elements of F."""
    return [tuple(F(int(x)) for x in v) for v in _fraction_kernel(rows, width, _gf(F))]


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
        _, pivots = _fraction_rref(rows, ncols, _gf(F))
        assert m.rank() == len(pivots)
        got = m.kernel_basis()
        assert got == _gf_kernel(rows, ncols, F)
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
    # plain int rows, entries shifted by multiples of p and some of them
    # multiples of p: the pivots keep the leads they were reduced to,
    # and the kernel still comes out as residues over 1
    leads = {"one": 0, "other": 0}
    for _ in range(400):
        ncols = rng.randint(1, 7)
        basis = [[rng.choice((0, rng.randint(-9, 9))) + p * rng.randint(-2, 2)
                  for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
        rows = [[sum(rng.randint(-3, 3) * b[j] for b in basis) + p * rng.randint(-2, 2)
                 for j in range(ncols)] for _ in range(rng.randint(1, 5))]
        space = ColumnSpace(F)
        for row in rows:
            space.add(row)
        for lead, v in space.pivots:
            leads["one" if v[lead] == 1 else "other"] += 1
        want = _gf_kernel(rows, ncols, F)
        got = list(space.kernel(ncols))
        assert all(den == 1 and all(0 <= v < p for v in x) for x, den in got)
        assert [tuple(F(v) for v in x) for x, _ in got] == want
        assert Matrix(rows, field=F, ncols=ncols).kernel_basis() == want
    assert leads["other"] > 200 and leads["one"] > 0, leads


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
def test_column_space_kernel_does_not_depend_on_the_row_order(p):
    # ColumnSpace.kernel reads its basis off the span alone: a reducer
    # fed the rows in another order than Matrix.kernel_basis feeds them
    # must still give, as plain ints, the basis kernel_basis returns
    field = QQ if p == 0 else prime_field(p)
    rng = random.Random(300 + p)
    for _ in range(200):
        rows, ncols = _random_rational_matrix(rng)
        want = Matrix(rows, field=field, ncols=ncols).kernel_basis()
        rng.shuffle(rows)
        space = ColumnSpace(field)
        for row in rows:
            space.add(row)
        got = [tuple(Fraction(v, den) if p == 0 else field(v) for v in x)
               for x, den in space.kernel(ncols)]
        assert got == want
        assert all(type(v) is int for x, den in space.kernel(ncols) for v in x + [den])


def test_prime_field_equality_refuses_other_fields():
    F, G = prime_field(7), prime_field(11)
    assert F(3) == F(10) and F(3) == 10 and F(3) != 4
    with pytest.raises(TypeError):
        F(1) == Fraction(1)
    with pytest.raises(TypeError):
        Fraction(1, 2) == F(4)
    with pytest.raises(TypeError):
        F(1) != G(1)


def test_a_scalar_of_no_field_is_a_type_error_at_the_boundary():
    # over Q a row holds ints and Fractions only, over F_p its own
    # elements, ints and rationals; a stray scalar is a TypeError, not an
    # AttributeError from deep inside the clearing
    F, G = prime_field(7), prime_field(11)
    for row in ([F(1), 2, 3], ["1", 2], [Fraction(1, 2), F(3)], [1.5, 2]):
        for clear in (QQ.ints, QQ.cleared):
            with pytest.raises(TypeError):
                clear(row)
    for clear in (F.ints, F.cleared):
        with pytest.raises(TypeError):
            clear([1, G(1)])
    assert QQ.ints([4, 6]) == [2, 3] and QQ.cleared([4, Fraction(1, 2)]) == ([8, 1], 2)
    assert F.ints([Fraction(1, 2), 9]) == [4, 2]


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


def test_prime_field_reads_other_values_as_rationals():
    F = prime_field(7)
    for x in (2.5, -0.75, 3.0):
        assert F(x) == F(QQ(x))
    assert F(2.5) == F(6)


# scalar text and the rational it names, or None where the one grammar
# refuses it; every ratio here has an image in F_7
_SCALAR_TEXTS = [
    ("5", Fraction(5)), ("-3/4", Fraction(-3, 4)), ("+6/8", Fraction(3, 4)),
    (" 3/4 ", Fraction(3, 4)), ("0/5", Fraction(0)), ("007", Fraction(7)),
    ("3.5", None), ("1e3", None), ("1E3", None), ("1_000", None), ("-3/-4", None),
    (" 3 / 4", None), ("3/+4", None), ("3/", None), ("/4", None), ("", None),
    ("-", None), ("0x10", None), ("inf", None), ("nan", None), ("\u0663", None),
    ("1/2/3", None),
]


@pytest.mark.parametrize("text, value", _SCALAR_TEXTS)
def test_scalar_text_reads_alike_over_q_and_fp(text, value):
    F = prime_field(7)
    for field in (QQ, F):
        if value is None:
            with pytest.raises(ValueError, match="^bad scalar %s: " % re.escape(repr(text))):
                parse_scalar(text, field)
        else:
            assert parse_scalar(text, field) == field(value)


def test_parse_scalar_turns_every_failure_into_bad_scalar():
    F = prime_field(7)
    for raw in (True, None, 2.5, [1], Fraction(1, 2)):
        with pytest.raises(ValueError, match="^bad scalar .*: scalar must be an "
                                             "integer or string, got "):
            parse_scalar(raw, F)
    assert parse_scalar(12, QQ) == 12 and parse_scalar(12, F) == F(5)
    for text in ("3/0", "2/21"):
        with pytest.raises(ValueError, match="^bad scalar '%s': " % text):
            parse_scalar(text, F)
    with pytest.raises(ValueError, match="^bad scalar '3/0': "):
        parse_scalar("3/0", QQ)
    assert parse_scalar("2/21", QQ) == Fraction(2, 21)
    # more digits than int() takes, and an exponent that would expand to
    # as many, are refused at once
    started = time.monotonic()
    for text in ("1" * 5000, "1/" + "1" * 5000, "1e100000"):
        for field in (QQ, F):
            with pytest.raises(ValueError, match="^bad scalar "):
                parse_scalar(text, field)
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
def test_column_space_pivots_are_an_echelon_form(p):
    # the pivots are kept in push order, the newest last.  `reduce` steps
    # a vector against them in that order and `kernel` back-substitutes
    # them sorted by lead; both rely on each pivot being zero before its
    # lead and at the lead of every earlier pivot, with distinct leads
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
        assert len(set(leads)) == len(leads)
        for k, (lead, v) in enumerate(space.pivots):
            assert len(v) == ncols and all(type(x) is int for x in v)
            assert not any(v[:lead]) and v[lead] != 0
            assert not any(v[c] for c in leads[:k])
            if field is QQ:
                assert gcd(*v) == 1
            else:
                assert v[lead] % p != 0 and all(0 <= x < p for x in v)
    assert inserted_before_a_lead > 20


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
def test_push_keeps_the_carried_rows_reduced(p):
    # rows carried through every push stay reduced against the grown
    # space: zero at every lead, and zero exactly when reducing the row
    # afresh gives zero (over F_p the very same residues)
    field = QQ if p == 0 else prime_field(p)
    rng = random.Random(300 + p)
    vanished = kept = 0
    for _ in range(150):
        ncols = rng.randint(1, 7)
        stream = [[rng.randint(-20, 20) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                  for _ in range(rng.randint(1, 7))]
        probes = [[rng.randint(-20, 20) for _ in range(ncols)] for _ in range(3)]
        # combinations of a prefix of the stream vanish part way down
        for _ in range(3):
            used = stream[:rng.randint(1, len(stream))]
            coeffs = [rng.randint(-3, 3) for _ in used]
            probes.append([sum(c * row[j] for c, row in zip(coeffs, used))
                           for j in range(ncols)])
        space = ColumnSpace(field)
        carried = [field.ints(row) for row in probes]
        for row in stream:
            v = space.reduce(row)
            rank = space.rank
            assert space.push(v, carried) == any(v) == (space.rank == rank + 1)
            leads = [lead for lead, _ in space.pivots]
            for probe, w in zip(probes, carried):
                fresh = space.reduce(probe)
                assert not any(w[lead] for lead in leads)
                assert any(w) == any(fresh)
                if field is not QQ:
                    assert w == fresh
        vanished += sum(not any(w) for w in carried)
        kept += sum(any(w) for w in carried)
    assert vanished > 100 and kept > 100


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


_BOUNDARY_SCALARS = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 6)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_BOUNDARY_SCALARS, max_size=6))
def test_rational_boundary_is_exact_and_primitive(row):
    ints, den = QQ.cleared(row)
    assert all(type(v) is int for v in ints) and type(den) is int and den >= 1
    assert [Fraction(v, den) for v in ints] == row
    scaled = QQ.ints(row)
    assert all(type(v) is int for v in scaled) and len(scaled) == len(row)
    if not any(row):
        assert not any(scaled)
        return
    assert gcd(*scaled) == 1
    lead = next(i for i, x in enumerate(row) if x)
    ratio = Fraction(scaled[lead]) / row[lead]
    assert ratio > 0 and all(s == ratio * x for s, x in zip(scaled, row))
    assert QQ.scalar(ints[lead], den) == row[lead] and QQ.scalar(5) == 5


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([7, 2**31 - 1]),
    st.lists(st.tuples(_BOUNDARY_SCALARS, st.booleans()), max_size=6),
    st.integers(-10**20, 10**20),
    st.integers(-10**20, 10**20),
)
def test_prime_field_boundary_is_the_residues(p, tagged, num, den):
    # a Fraction's denominator is at most 6, so it has an image mod 7
    F = prime_field(p)
    row = [F(x) if as_element else x for x, as_element in tagged]
    want = [F(x).value for x in row]
    assert F.ints(row) == want
    assert F.cleared(row) == (want, 1)
    assert F.modulus == p and QQ.modulus is None
    if den % p:
        assert F.scalar(num, den).value * den % p == num % p
    else:
        with pytest.raises(ZeroDivisionError):
            F.scalar(num, den)
    assert F.scalar(num) == F(num)


def _generator_normal_form(vec, lead, p):
    """FpElement.normal_form as two nested generators that find the
    lead, always inverting it: the reference for the plain loop."""
    x = next((r for r in (v % p for v in vec) if r), 0) if lead is None else vec[lead] % p
    if not x:
        return None
    inv = pow(x, -1, p)
    return tuple(v * inv % p for v in vec)


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_prime_field_normal_form_matches_the_generator_reference(p):
    F = prime_field(p)
    rng = random.Random(700 + p)
    seen = dict.fromkeys(("lead one", "zero lead", "all zero", "other"), 0)
    for trial in range(3000):
        width = rng.randint(1, 7)
        vec = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10**15, 10**15),
                           p * rng.randint(-3, 3))) for _ in range(width)]
        lead = rng.randrange(width) if trial % 2 else None
        kind = trial % 8 // 2
        if kind == 1:  # the lead residue is 1 already
            k = rng.randrange(width) if lead is None else lead
            if lead is None:
                vec[:k] = [p * rng.randint(-2, 2) for _ in range(k)]
            vec[k] = 1 + p * rng.randint(-3, 3)
        elif kind == 2 and lead is not None:  # a zero residue at the lead
            vec[lead] = p * rng.randint(-3, 3)
        elif kind >= 2:  # the zero vector, as unreduced ints
            vec = [p * rng.randint(-3, 3) for _ in range(width)]
        want = _generator_normal_form(vec, lead, p)
        assert F.normal_form(vec, lead) == want
        if lead is None:
            assert F.normal_form(vec) == want
        if want is None:
            seen["zero lead" if lead is not None and any(v % p for v in vec) else "all zero"] += 1
        else:
            first = lead if lead is not None else next(i for i, v in enumerate(vec) if v % p)
            seen["lead one" if vec[first] % p == 1 else "other"] += 1
    assert all(count > 300 for count in seen.values()), seen


def test_prime_field_elimination_takes_no_inverse(monkeypatch):
    # over F_p a step is the Q cross-multiplication taken mod p and a
    # pivot keeps the lead it was reduced to, so the reducer and the
    # searches on it invert nothing; a kernel vector takes one inverse
    # at most, for its denominator
    p = 2**31 - 1
    F = prime_field(p)
    rng = random.Random(31)
    specs = [GeneratorSpec(3, degree=7, general_position=True, field=F, seed=1),
             GeneratorSpec(3, degree=8, collinear=4, max_germ_length=2, field=F, seed=2),
             GeneratorSpec(4, degree=9, max_germ_length=3, field=F, seed=3),
             GeneratorSpec(2, degree=6, collinear=3, secant=True, max_germ_length=2,
                           field=F, seed=4)]
    schemes = [gen_scheme(spec) for spec in specs]
    inverses = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inverses.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(exactalg, "pow", counting_pow, raising=False)
    # the count sees the inverses exactalg takes
    assert F.normal_form([0, 2, 5]) == (0, 1, 5 * (p + 1) // 2 % p) and inverses == [2]
    inverses.clear()
    nonunit = kernel_inverses = 0
    for _ in range(300):
        ncols = rng.randint(1, 8)
        space = ColumnSpace(F)
        for _ in range(rng.randint(1, 8)):
            space.add([rng.randint(-10**12, 10**12) if rng.random() < 0.7
                       else p * rng.randint(-2, 2) for _ in range(ncols)])
        assert inverses == []
        nonunit += sum(v[lead] != 1 for lead, v in space.pivots)
        for count, _ in enumerate(space.kernel(ncols), 1):
            assert len(inverses) <= count
        kernel_inverses += len(inverses)
        inverses.clear()
    assert nonunit > 500 and kernel_inverses > 100
    for x in schemes:
        invariant_t(x)
        for k in range(x.degree):
            hilbert_function(x, k)
    assert inverses == []
