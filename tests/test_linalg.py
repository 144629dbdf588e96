from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns_of
import tl2b
from tl2b import linalg
from tl2b._ratback import RAT
from tl2b.irreps import traces_agree_all_words
from tl2b.linalg import (_CERTIFICATE_PRIMES, Matrix, _det_mod_p,
                         _extend_span, commutator, exact_det, invert,
                         nonsingular_certificate, product_difference, rank)
from tl2b.scalars import OMEGA1, ONE, THETA, HalfExponent
from tl2b.symbolic import SymbolicPoint
from tl2b.wordrep import ModuleSpec, generator_matrix

RAT_TYPE = type(RAT(1))


def _certificate(m):
    """``nonsingular_certificate`` of the Matrix ``m``, read as columns."""
    return nonsingular_certificate(columns_of(m))


def _random_rational_matrix(n, seed):
    rng = random.Random(seed)
    return Matrix([[RAT(rng.randrange(-20, 21), rng.randrange(1, 9))
                    for _ in range(n)] for _ in range(n)])


def test_matrix_ops():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a @ b).rows == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert a.transpose().rows == [[1, 3], [2, 4]]
    assert a.scale(2).rows == [[2, 4], [6, 8]]
    assert (-a).rows == [[-1, -2], [-3, -4]]
    assert commutator(a, Matrix.identity(2)).is_zero()
    assert a.column(1) == [2, 4]
    assert a.apply([1, 0]) == [1, 3]
    assert Matrix.zeros(2, 3).first_nonzero() is None
    assert b.first_nonzero() == (0, 1)


def test_scalar_multiple_detection():
    assert Matrix([[5, 0], [0, 5]]).scalar_multiple_of_identity() == 5
    assert Matrix([[5, 1], [0, 5]]).scalar_multiple_of_identity() is None
    assert Matrix([[5, 0], [0, 4]]).scalar_multiple_of_identity() is None


def test_inverse_and_rank():
    m = _random_rational_matrix(6, 3)
    inv = invert(m)
    assert (m @ inv) == Matrix.identity(6)
    assert rank(m) == 6
    singular = Matrix([[1, 2], [2, 4]])
    assert rank(singular) == 1
    with pytest.raises(ZeroDivisionError):
        invert(singular)
    with pytest.raises(ZeroDivisionError):  # no pivot in the first column
        invert(Matrix([[0, 0], [0, 1]]))


def test_determinant_matches_cofactor_expansion():
    m = _random_rational_matrix(3, 5)
    [[a, b, c], [d, e, f], [g, h, i]] = m.rows
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert exact_det(m) == expected


@pytest.mark.parametrize("rows", [[[2, 1], [1, 1]],
                                  [[2 ** 60 + 1, 1], [1, 1]]])
def test_int_matrices_are_eliminated_exactly(rows):
    m = Matrix(rows)
    inv = invert(m)
    assert all(isinstance(x, RAT_TYPE) for row in inv.rows for x in row)
    assert m @ inv == Matrix.identity(2)
    det = exact_det(m)
    assert isinstance(det, RAT_TYPE) and det == rows[0][0] - 1
    assert rank(m) == 2


def test_determinant_of_empty_and_permutation():
    assert exact_det(Matrix([])) == 1
    perm = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert exact_det(perm) == 1
    swap = Matrix([[0, 1], [1, 0]])
    assert exact_det(swap) == -1


# ---------------------------------------------------------------------------
# the sparse Matrix against plain dense lists

ZERO_OR_SMALL = st.one_of(
    st.just(0), st.just(RAT(0)),
    st.builds(RAT, st.integers(-3, 3), st.integers(1, 4)))


def dense_rows(nrows, ncols, entries=ZERO_OR_SMALL):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def naive_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def naive_first_nonzero(a):
    return next(((i, j) for i, row in enumerate(a)
                 for j, x in enumerate(row) if x), None)


def naive_scalar_of_identity(a):
    c = a[0][0]
    square = len(a) == len(a[0])
    if square and all(x == (c if i == j else 0)
                      for i, row in enumerate(a) for j, x in enumerate(row)):
        return c
    return None


@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4),
       m=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_matrix_agrees_with_dense_lists(data, n, k, m):
    a = data.draw(dense_rows(n, k))
    b = data.draw(dense_rows(k, m))
    c = data.draw(dense_rows(n, k))
    vec = data.draw(st.lists(ZERO_OR_SMALL, min_size=k, max_size=k))
    s = data.draw(ZERO_OR_SMALL)
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
    assert ma.rows == a
    assert [ma[i, j] for i in range(n) for j in range(k)] == \
        [x for row in a for x in row]
    expected = {
        "product": (ma @ mb, naive_product(a, b)),
        "sum": (ma + mc, [[x + y for x, y in zip(r, t)]
                          for r, t in zip(a, c)]),
        "difference": (ma - mc, [[x - y for x, y in zip(r, t)]
                                 for r, t in zip(a, c)]),
        "scaled": (ma.scale(s), [[s * x for x in row] for row in a]),
    }
    for name, (got, want) in expected.items():
        assert got.rows == want, name
        assert got == Matrix(want), name
        assert got.first_nonzero() == naive_first_nonzero(want), name
        assert got.is_zero() == (naive_first_nonzero(want) is None), name
    assert (ma == mc) == (a == c)
    assert ma.is_zero() == (not any(x for row in a for x in row))
    assert ma.apply(vec) == [sum(x * y for x, y in zip(row, vec))
                             for row in a]
    assert ma.transpose().rows == [list(col) for col in zip(*a)]
    row_idx = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                 min_size=1))
    col_idx = data.draw(st.lists(st.integers(0, k - 1), unique=True,
                                 min_size=1))
    assert ma.submatrix(row_idx, col_idx).rows == \
        [[a[i][j] for j in col_idx] for i in row_idx]
    assert ma.first_nonzero() == naive_first_nonzero(a)
    assert ma.scalar_multiple_of_identity() == naive_scalar_of_identity(a)
    diag = [[s if i == j else 0 for j in range(n)] for i in range(n)]
    assert Matrix(diag).scalar_multiple_of_identity() == s
    assert Matrix.from_columns([list(col) for col in zip(*a)]) == ma


# ---------------------------------------------------------------------------
# arithmetic over one common denominator against a schoolbook Fraction sum

ENTRY_KINDS = {
    "int": st.one_of(st.just(0), st.integers(-9, 9)),
    "mixed": st.one_of(st.just(0), st.integers(-9, 9),
                       st.builds(RAT, st.integers(-9, 9),
                                 st.integers(1, 12))),
    "large": st.one_of(st.just(0),
                       st.builds(RAT, st.integers(-2 ** 90, 2 ** 90),
                                 st.integers(1, 2 ** 90))),
}


def draw_rows(data, nrows, ncols, kind):
    """Dense rows of one entry kind, with some rows and columns zeroed."""
    rows = data.draw(dense_rows(nrows, ncols, ENTRY_KINDS[kind]))
    zero_rows = data.draw(st.sets(st.integers(0, nrows - 1)))
    zero_cols = data.draw(st.sets(st.integers(0, ncols - 1)))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


def schoolbook(a, b):
    """The product of dense rows as a sum of Fraction terms per entry."""
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j])
                  for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def entrywise(op, a, b):
    return [[op(Fraction(x), Fraction(y)) for x, y in zip(r, t)]
            for r, t in zip(a, b)]


def assert_stored_form(m):
    """No stored zero, and numerators in lowest terms over a D > 0."""
    values = [x for row in m._rows for x in row.values()]
    assert all(values), "stored zero"
    if m._den is not None:
        assert m._den > 0
        assert math.gcd(m._den, *values) == 1, "not in lowest terms"
    assert m == Matrix(m.rows)


def assert_reads(m):
    """Every nonzero entry, read through ``rows``, ``[i, j]`` and
    ``column``, is a backend rational, ints included: a matrix that has
    entered arithmetic never reads an int, which would divide in floating
    point."""
    reads = [x for row in m.rows for x in row]
    reads += [m[i, j] for i in range(m.nrows) for j in range(m.ncols)]
    reads += [x for j in range(m.ncols) for x in m.column(j)]
    assert all(type(x) is RAT_TYPE for x in reads if x)


def assert_result(got, want):
    assert got.rows == want
    assert_stored_form(got)
    assert_reads(got)
    assert got.first_nonzero() == naive_first_nonzero(want)


def operand(data, rows):
    """Matrix(rows), switched to numerators beforehand or not (as drawn):
    entering a product converts a matrix in place."""
    m = Matrix(rows)
    if data.draw(st.booleans()):
        m @ Matrix.identity(m.ncols)
        assert_stored_form(m)
        assert_reads(m)
    return m


KINDS = st.sampled_from(sorted(ENTRY_KINDS))


@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5),
       m=st.integers(1, 5), kind_a=KINDS, kind_b=KINDS)
@settings(max_examples=200, deadline=None)
def test_products_match_the_schoolbook_sum(data, n, k, m, kind_a, kind_b):
    a = draw_rows(data, n, k, kind_a)
    b = draw_rows(data, k, m, kind_b)
    assert_result(operand(data, a) @ operand(data, b), schoolbook(a, b))
    # [a | a] times [b; -b]: every term has a partner that cancels it
    doubled = operand(data, [row + row for row in a])
    stacked = operand(data, b + [[-x for x in row] for row in b])
    assert_result(doubled @ stacked, [[0] * m for _ in range(n)])

    c = draw_rows(data, n, k, kind_a)
    d = draw_rows(data, k, m, kind_b)
    want = entrywise(lambda p, q: p - q, schoolbook(a, b), schoolbook(c, d))
    assert_result(product_difference(operand(data, a), operand(data, b),
                                     operand(data, c), operand(data, d)),
                  want)

    x = operand(data, draw_rows(data, n, n, kind_a))
    y = operand(data, draw_rows(data, n, n, kind_b))
    for left, right in ((x, y), (y, x), (x, x @ x), (x, Matrix.identity(n))):
        want = entrywise(lambda p, q: p - q, schoolbook(left.rows, right.rows),
                         schoolbook(right.rows, left.rows))
        got = commutator(left, right)
        assert_result(got, want)
        assert got.first_nonzero() == \
            (left @ right - right @ left).first_nonzero()


@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 4),
       kind_a=KINDS, kind_b=KINDS)
@settings(max_examples=200, deadline=None)
def test_sums_and_scaling_match_the_fraction_sums(data, n, m, kind_a,
                                                  kind_b):
    a = draw_rows(data, n, m, kind_a)
    b = draw_rows(data, n, m, kind_b)
    s = data.draw(ENTRY_KINDS[kind_b])
    for op, got in ((lambda p, q: p + q, operand(data, a) + operand(data, b)),
                    (lambda p, q: p - q, operand(data, a) - operand(data, b))):
        assert_result(got, entrywise(op, a, b))
    ma = operand(data, a)
    assert_result(ma - ma, [[0] * m for _ in range(n)])
    # ``ma`` holds numerators now, over D = 1 when every entry is an int
    assert_result(ma.transpose(), [list(col) for col in zip(*a)])
    rows, cols = range(n - 1, -1, -1), range(0, m, 2)
    assert_result(ma.submatrix(rows, cols),
                  [[a[i][j] for j in cols] for i in rows])
    diag = operand(data, [[s if i == j else 0 for j in range(n)]
                          for i in range(n)])
    assert diag.scalar_multiple_of_identity() == s
    assert_result(-ma, [[-Fraction(x) for x in row] for row in a])
    assert_result(ma.scale(s), [[Fraction(s) * x for x in row] for row in a])
    vec = data.draw(st.lists(ENTRY_KINDS[kind_b], min_size=m, max_size=m))
    image = ma.apply(vec)
    assert image == [sum((Fraction(x) * y for x, y in zip(row, vec)),
                         Fraction(0)) for row in a]
    assert all(type(x) is RAT_TYPE for x in image if x)


def test_reading_a_matrix_leaves_it_as_given():
    # the Gram matrix is built, read and eliminated, and never converted
    rows = [[RAT(1, 2), 1, 0], [RAT(2, 3), RAT(-5, 4), 3], [1, 0, RAT(7)]]
    m = Matrix(rows)
    stored = [dict(row) for row in m._rows]
    m.rows, m[1, 1], m.column(0), m.apply([1, 2, 3]), m.transpose()
    exact_det(m), _certificate(m), invert(m), rank(m)
    assert m == Matrix(rows) and m.scalar_multiple_of_identity() is None
    assert m._den is None and m._rows == stored
    m @ m
    assert m._den == 12 and m._rows == [{0: 6, 1: 12}, {0: 8, 1: -15, 2: 36},
                                        {0: 12, 2: 84}]
    assert m.rows == rows and type(m[0, 1]) is RAT_TYPE


def test_an_int_matrix_joins_the_numerators_over_one():
    ints = Matrix([[2, 0], [1, -3]])
    assert ints._den is None and ints[1, 0] == 1 and type(ints[1, 0]) is int
    for got in (ints @ ints, ints + ints, ints - ints.scale(3), -ints,
                commutator(ints, ints.transpose()),
                product_difference(ints, ints, ints, ints.scale(2)),
                ints.scale(RAT(2))):
        assert got._den == 1
        assert_stored_form(got)
        assert_reads(got)
    # the operand itself now holds its entries as numerators over D = 1
    assert ints._den == 1 and ints._rows == [{0: 2}, {0: 1, 1: -3}]
    assert ints.rows == [[2, 0], [1, -3]]
    assert_reads(ints)
    image = ints.apply([1, 1])
    assert image == [2, -2] and all(type(x) is RAT_TYPE for x in image)
    assert ints.scale(RAT(1, 2))._den == 2


def test_sums_and_commutators_reject_mismatched_shapes():
    two, three = Matrix.identity(2), Matrix.identity(3)
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    for left, right in ((two, three), (three, two), (two, wide)):
        with pytest.raises(ValueError, match="shape mismatch"):
            left + right
        with pytest.raises(ValueError, match="shape mismatch"):
            left - right
    # both products exist, but they are 2x2 and 3x3
    for left, right in ((two, three), (wide, wide.transpose())):
        with pytest.raises(ValueError, match="shape mismatch"):
            commutator(left, right)
    tall = wide.transpose()
    for args in ((two, wide, three, two),     # c @ d does not exist
                 (wide, two, two, wide),      # a @ b does not exist
                 (two, two, tall, wide),      # 2x2 against 3x3
                 (two, wide, wide, tall)):    # 2x3 against 2x2
        with pytest.raises(ValueError, match="shape mismatch"):
            product_difference(*args)


def test_symbolic_product_difference_takes_both_products():
    sym = SymbolicPoint()
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    a = Matrix([[x, 0], [Fraction(1, 3), z]])
    b = Matrix([[y, 1], [z, RAT(-2, 5)]])
    c = Matrix([[1, y], [0, x * z]])
    d = Matrix([[RAT(1, 7), x], [2, 0]])
    got = product_difference(a, b, c, d)
    assert got == a @ b - c @ d
    assert got.rows == (a @ b - c @ d).rows
    assert product_difference(a, b, a, b).is_zero()
    assert commutator(a, b) == a @ b - b @ a


def test_stored_zeros_and_the_dense_view():
    m = Matrix([[0, RAT(0)], [RAT(2), 0]])
    assert m == Matrix([[RAT(0), 0], [2, RAT(0)]])
    assert m.first_nonzero() == (1, 0)
    assert Matrix([[RAT(0), 0], [0, 0]]).is_zero()
    view = m.rows
    view[1][0] = 5
    assert m[1, 0] == 2
    with pytest.raises(AttributeError):
        m.rows = view


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4, 5]], [[1, 2, 3], [4]],
                                  [[1], []]])
def test_dense_rows_of_unequal_length_are_rejected(rows):
    with pytest.raises(ValueError, match="unequal length"):
        Matrix(rows)


def old_from_columns(cols) -> Matrix:
    """``Matrix.from_columns`` before it was built on ``Matrix``."""
    rows = [{} for _ in range(len(cols[0]))]
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if x:
                rows[i][j] = x
    return Matrix._sparse(len(rows), len(cols), rows)


def assert_same_columns(cols):
    got, want = Matrix.from_columns(cols), old_from_columns(cols)
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got._rows == want._rows and got.rows == want.rows
    assert got._den is None and want._den is None


@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5), kind=KINDS)
@settings(max_examples=100, deadline=None)
def test_from_columns_matches_the_old_loop(data, n, k, kind):
    # k columns of length n, some of them zero
    assert_same_columns(draw_rows(data, k, n, kind))


def test_symbolic_from_columns_matches_the_old_loop():
    sym = SymbolicPoint()
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    assert_same_columns([[x, 0, Fraction(1, 3)], [0, 0, 0], [y, x * y, 1]])


@pytest.mark.parametrize("cols", [[[1, 2], [3]], [[1], [2, 3]]])
def test_columns_of_unequal_length_are_rejected(cols):
    with pytest.raises(ValueError, match="unequal length"):
        Matrix.from_columns(cols)


# ---------------------------------------------------------------------------
# Gauss-Jordan over stored entries against a dense reference

def dense_row_reduce(rows: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` in place, over their first
    ``ncols`` columns, to reduced row echelon form; returns the pivot
    column of each leading row."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return pivots


MOSTLY_ZERO = {
    "int": st.one_of(st.just(0), st.just(0), st.just(0),
                     st.integers(-4, 4)),
    "rational": st.one_of(st.just(0), st.just(0), st.just(RAT(0)),
                          st.integers(-4, 4),
                          st.builds(RAT, st.integers(-9, 9),
                                    st.integers(1, 6))),
}


def draw_mostly_zero(data, nrows, ncols, kind):
    """Dense rows with mostly zero entries; when asked, the last row is
    replaced by a combination of the others, so the rows are dependent."""
    rows = data.draw(dense_rows(nrows, ncols, MOSTLY_ZERO[kind]))
    if nrows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=nrows - 1,
                                    max_size=nrows - 1))
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), 0)
                    for j in range(ncols)]
    return rows


@given(data=st.data(), n=st.integers(0, 8), k=st.integers(1, 8),
       kind=st.sampled_from(sorted(MOSTLY_ZERO)))
@settings(max_examples=300, deadline=None)
def test_inverse_and_rank_match_the_dense_reduction(data, n, k, kind):
    wide = draw_mostly_zero(data, n, k, kind)
    m = Matrix(wide)
    assert rank(m) == len(dense_row_reduce([[RAT(x) for x in row]
                                            for row in wide], m.ncols))
    assert m == Matrix(wide), "rank changed its input"

    rows = draw_mostly_zero(data, n, n, kind)
    m = Matrix(rows)
    ref = [[RAT(x) for x in row] + [RAT(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    ref_rank = len(dense_row_reduce(ref, n))
    assert rank(m) == ref_rank
    if ref_rank < n:
        with pytest.raises(ZeroDivisionError):
            invert(m)
        return
    inv = invert(m)
    assert m == Matrix(rows), "invert changed its input"
    assert inv @ m == Matrix.identity(n)
    assert inv.rows == [row[n:] for row in ref]
    # read through ``rows``: once multiplied, ``_rows`` holds numerators
    assert all(type(x) is RAT_TYPE for row in inv.rows for x in row if x)
    assert_stored_form(inv)


# ---------------------------------------------------------------------------
# the determinant against the dense elimination it replaced

def dense_det(m: list[list]) -> object:
    """Determinant of the nonempty square ``m`` by Gaussian elimination in
    place; only the columns right of each pivot are updated, since those
    left of it are never read again."""
    n = len(m)
    det = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return m[0][0] - m[0][0]
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            det = -det
        piv = m[k][k]
        det = det * piv
        tail = m[k][k + 1:]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            if f:
                f = f / piv
                row[k + 1:] = [a - f * b for a, b in zip(row[k + 1:], tail)]
    return det


@given(data=st.data(), n=st.integers(0, 8),
       kind=st.sampled_from(sorted(MOSTLY_ZERO)))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_the_dense_elimination(data, n, kind):
    # mostly zero entries: row swaps and singular draws are common
    rows = draw_mostly_zero(data, n, n, kind)
    expected = dense_det([[RAT(x) for x in row] for row in rows]) if n else 1
    m = Matrix(rows)
    det = exact_det(m)
    assert type(det) is RAT_TYPE and det == expected
    assert m == Matrix(rows) and m._den is None, "exact_det changed its input"
    if n > 1:  # swapping two rows negates the determinant
        assert exact_det(Matrix([rows[1], rows[0], *rows[2:]])) == -expected


def test_symbolic_determinant_matches_the_dense_elimination():
    sym = SymbolicPoint()
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    # a zero leading entry forces a row swap; ints and Fractions mix in
    rows = [[0, x, Fraction(1, 3)], [y, z, 0], [1, 0, x * y]]
    m = Matrix(rows)
    det = exact_det(m)
    assert det and det == dense_det([list(row) for row in rows])
    assert m == Matrix(rows) and m._den is None
    assert not exact_det(Matrix([[x, y], [x * z, y * z]]))
    assert not exact_det(Matrix([[0, x, y], [0, z, 1], [0, 1, x * z]]))


def test_determinant_stops_at_the_first_column_without_a_pivot(monkeypatch):
    rng = random.Random(23)
    m = Matrix([[0] + [RAT(rng.randrange(-9, 10), rng.randrange(1, 7))
                       for _ in range(19)] for _ in range(20)])
    real = linalg._subtract
    calls = []

    def counted(*args):
        calls.append(None)
        real(*args)

    monkeypatch.setattr(linalg, "_subtract", counted)
    assert rank(m) == 19 and len(calls) > 300  # the full reduction
    calls.clear()
    assert exact_det(m) == 0 and len(calls) <= 19


# ---------------------------------------------------------------------------
# the word span against a dense reference


def _flatten_pair(a: Matrix, b: Matrix) -> list:
    return [x for m in (a, b) for row in m.rows for x in row]


class DenseSpan:
    """Incremental exact row space with reduction, for pair matrices."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def reduce(self, vec: list) -> list:
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            if vec[piv]:
                f = vec[piv] / row[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec: list) -> bool:
        vec = self.reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        self.rows.append(vec)
        self.pivots.append(piv)
        return True


def dense_trace_closure(fam_a, fam_b) -> tuple[bool, int]:
    """The breadth-first word closure of ``traces_agree_all_words``, run on
    ``DenseSpan`` over the flattened dense pairs."""
    n = len(fam_a) - 1
    da, db = fam_a[0].nrows, fam_b[0].nrows
    span = DenseSpan(da * da + db * db)
    start = (Matrix.identity(da), Matrix.identity(db))
    queue = [start]
    span.add(_flatten_pair(*start))
    words = 1
    agree = True
    while queue:
        a, b = queue.pop()
        for i in range(n + 1):
            na, nb = a @ fam_a[i], b @ fam_b[i]
            if span.add(_flatten_pair(na, nb)):
                words += 1
                tra = sum(na[k, k] for k in range(da))
                trb = sum(nb[k, k] for k in range(db))
                if tra != trb:
                    agree = False
                queue.append((na, nb))
    return agree, words


@given(data=st.data(), n=st.integers(1, 10), k=st.integers(1, 8),
       kind=st.sampled_from(sorted(MOSTLY_ZERO)))
@settings(max_examples=300, deadline=None)
def test_extend_span_keeps_the_rows_the_dense_span_keeps(data, n, k, kind):
    dense = DenseSpan(k)
    span: dict = {}
    for row in draw_mostly_zero(data, n, k, kind):
        row = [RAT(x) for x in row]
        assert _extend_span(span, {j: x for j, x in enumerate(row) if x}) \
            == dense.add(row)
    assert list(span) == dense.pivots
    for kept, piv in zip(dense.rows, dense.pivots):
        assert span[piv] == {j: x / kept[piv] for j, x in enumerate(kept)
                             if x}


def test_word_span_closure_matches_the_dense_span(point):
    fam_a = {i: generator_matrix(ModuleSpec.big(2, point), i)
             for i in range(3)}
    fam_b = dict(fam_a)
    fam_b[2] = fam_b[2].scale(RAT(2))
    for other in (fam_a, fam_b):
        assert traces_agree_all_words(fam_a, other) == dense_trace_closure(
            fam_a, other)


def test_symbolic_inverse():
    sym = SymbolicPoint()
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    # a zero leading entry forces a row swap; ints and Fractions mix in
    rows = [[0, x, Fraction(1, 3)], [y, z, 0], [1, 0, x * y]]
    m = Matrix(rows)
    inv = invert(m)
    assert inv @ m == Matrix.identity(3)
    assert m @ inv == Matrix.identity(3)
    assert rank(m) == 3
    assert m == Matrix(rows), "elimination changed its input"
    assert rank(Matrix([[x, y], [x * z, y * z]])) == 1


# ---------------------------------------------------------------------------
# the prime certificate of a nonzero determinant

def leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_determinant_matches_leibniz_expansion(data, n):
    # mostly zero entries: row swaps and singular draws are common
    rows = data.draw(dense_rows(n, n))
    det = exact_det(Matrix(rows))
    assert isinstance(det, RAT_TYPE)
    assert det == leibniz_det(rows)


def test_residue_kernel_matches_the_determinant():
    rng = random.Random(11)
    cases = [[[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
              for _ in range(n)] for n in (1, 4, 9, 17)]
    # zero leading entries force row swaps
    cases += [[[0, 1], [1, 0]], [[0, 2, 3], [4, 5, 6], [7, 8, 10]]]
    for rows in cases:
        det = exact_det(Matrix(rows))
        assert det.denominator == 1
        for p in _CERTIFICATE_PRIMES:
            assert _det_mod_p(rows, p) == int(det) % p


def test_determinants_import_no_numpy():
    check = ("import sys\n"
             "from tl2b.linalg import Matrix, exact_det\n"
             "assert exact_det(Matrix.identity(120)) == 1\n"
             "print('numpy' in sys.modules)\n")
    src = str(Path(tl2b.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_certificate_proves_a_nonzero_determinant(data, n):
    # mostly zero entries: singular draws are common
    m = Matrix(data.draw(dense_rows(n, n)))
    p = _certificate(m)
    if p is not None:
        assert p in _CERTIFICATE_PRIMES
        assert exact_det(m) != 0


def test_singular_matrices_get_no_certificate():
    assert _certificate(Matrix([[1, 2], [2, 4]])) is None
    third = RAT(1, 3)
    singular = Matrix([[third, RAT(2, 5), 1],
                       [2 * third, RAT(4, 5), 2],
                       [RAT(7, 2), 0, RAT(-1, 9)]])
    assert exact_det(singular) == 0
    assert _certificate(singular) is None
    assert _certificate(Matrix.zeros(3, 3)) is None


def test_certificate_primes_are_prime():
    # a residue is a proof only in a field
    for p in _CERTIFICATE_PRIMES:
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_certificate_passes_over_a_prime_dividing_a_denominator():
    first, second, _ = _CERTIFICATE_PRIMES
    # 1/first has no residue mod first: the second prime certifies
    m = Matrix([[RAT(1, first), RAT(2, 3)], [RAT(5, 7), 1]])
    assert exact_det(m) != 0
    assert _certificate(m) == second


def test_certificate_passes_over_a_prime_dividing_the_determinant():
    first, second, *_ = primes = _CERTIFICATE_PRIMES
    # the integerised columns are [[first, 0], [0, 1]]: det = first
    m = Matrix([[RAT(first), 0], [0, RAT(1, 3)]])
    assert _certificate(m) == second
    # every tried prime divides the determinant: no certificate, and the
    # exact fallback still finds the matrix nonsingular
    product = math.prod(primes)
    m = Matrix([[RAT(product, 7), 0], [0, RAT(1, 11)]])
    assert _certificate(m) is None
    assert exact_det(m) == RAT(product, 77)
    assert invert(m) @ m == Matrix.identity(2)


def test_certificate_reads_square_columns_of_rationals():
    # columns of values (a symbolic point) prove nothing
    x = SymbolicPoint().qnum(THETA)
    assert nonsingular_certificate([(None, [x, 0]), (None, [0, x])]) is None
    assert (nonsingular_certificate([(1, [1, 0]), (3, [0, 1])])
            in _CERTIFICATE_PRIMES)
    with pytest.raises(ValueError, match="non-square"):
        nonsingular_certificate([(1, [1, 0, 0]), (1, [0, 1, 0])])
