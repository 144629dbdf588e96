from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tl2b._ratback import RAT
from tl2b.linalg import (_CERTIFICATE_PRIMES, Matrix, _det_bareiss_int,
                         _det_mod_p, _det_modular_int, _prime_pool, commutator,
                         exact_det, invert, nonsingular_certificate, rank)


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


def test_modular_determinant_cross_check():
    rng = random.Random(9)
    for n in (4, 9, 17, 33):
        rows = [[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
                for _ in range(n)]
        assert _det_modular_int(rows) == _det_bareiss_int(rows)
    singular = [[1, 2, 3], [2, 4, 6], [5, 1, 0]]
    assert _det_modular_int(singular) == _det_bareiss_int(singular) == 0


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


def dense_rows(nrows, ncols):
    return st.lists(st.lists(ZERO_OR_SMALL, min_size=ncols, max_size=ncols),
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


# ---------------------------------------------------------------------------
# the prime certificate of a nonzero determinant

def test_residue_kernel_matches_bareiss():
    rng = random.Random(11)
    cases = [[[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
              for _ in range(n)] for n in (1, 4, 9, 17)]
    # zero leading entries force row swaps
    cases += [[[0, 1], [1, 0]], [[0, 2, 3], [4, 5, 6], [7, 8, 10]]]
    for rows in cases:
        for p in _prime_pool(_CERTIFICATE_PRIMES):
            assert _det_mod_p(rows, p) == _det_bareiss_int(rows) % p


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_certificate_proves_a_nonzero_determinant(data, n):
    # mostly zero entries: singular draws are common
    m = Matrix(data.draw(dense_rows(n, n)))
    p = nonsingular_certificate(m)
    if p is not None:
        assert p in _prime_pool(_CERTIFICATE_PRIMES)
        assert exact_det(m) != 0


def test_singular_matrices_get_no_certificate():
    assert nonsingular_certificate(Matrix([[1, 2], [2, 4]])) is None
    third = RAT(1, 3)
    singular = Matrix([[third, RAT(2, 5), 1],
                       [2 * third, RAT(4, 5), 2],
                       [RAT(7, 2), 0, RAT(-1, 9)]])
    assert exact_det(singular) == 0
    assert nonsingular_certificate(singular) is None
    assert nonsingular_certificate(Matrix.zeros(3, 3)) is None


def test_certificate_passes_over_a_prime_dividing_the_determinant():
    first, second, *_ = primes = _prime_pool(_CERTIFICATE_PRIMES)
    # the integerised rows are [[first, 0], [0, 1]]: det = first
    m = Matrix([[RAT(first), 0], [0, RAT(1, 3)]])
    assert nonsingular_certificate(m) == second
    # every tried prime divides the determinant: no certificate, and the
    # exact fallback still finds the matrix nonsingular
    product = math.prod(primes)
    m = Matrix([[RAT(product, 7), 0], [0, RAT(1, 11)]])
    assert nonsingular_certificate(m) is None
    assert exact_det(m) == RAT(product, 77)
    assert invert(m) @ m == Matrix.identity(2)
