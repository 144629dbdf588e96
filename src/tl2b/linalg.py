"""Exact linear algebra over any field with decidable zero tests.

Entries may be backend rationals, ints, or symbolic fractions; zero is
detected with ``not entry`` and equality with ``==``.  Determinants of
rational matrices go through fraction-free Bareiss elimination on integers
(rows are cleared of denominators first); other entry types fall back to
ordinary field elimination.  A nonzero residue of that integer
determinant modulo one prime (``nonsingular_certificate``) proves a matrix
nonsingular without computing its determinant.  Pivoting is first-nonzero:
with exact arithmetic, pivot choice affects speed only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._ratback import RAT, is_rational


class Matrix:
    """Matrix over exact scalars that stores only its nonzero entries.

    Each row is a ``{column: value}`` dict without zeros, so products, sums,
    scaling, comparison and application cost time in the nonzero entries.
    ``rows`` is a dense copy, with ``0`` wherever nothing is stored.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows):
        """From dense rows: a list of equal-length lists."""
        rows = list(rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in rows]

    @staticmethod
    def _sparse(nrows: int, ncols: int, rows: list[dict]) -> Matrix:
        out = object.__new__(Matrix)
        out.nrows, out.ncols, out._rows = nrows, ncols, rows
        return out

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix._sparse(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> Matrix:
        return Matrix._sparse(nrows, ncols, [{} for _ in range(nrows)])

    @staticmethod
    def from_columns(cols) -> Matrix:
        rows = [{} for _ in range(len(cols[0]))]
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x:
                    rows[i][j] = x
        return Matrix._sparse(len(rows), len(cols), rows)

    @property
    def rows(self) -> list[list]:
        """Dense copy of the entries, row by row."""
        out = []
        for row in self._rows:
            dense = [0] * self.ncols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def __getitem__(self, ij):
        return self._rows[ij[0]].get(ij[1], 0)

    def column(self, j: int) -> list:
        return [row.get(j, 0) for row in self._rows]

    def transpose(self) -> Matrix:
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix._sparse(self.ncols, self.nrows, cols)

    def submatrix(self, row_idx, col_idx) -> Matrix:
        where = {j: k for k, j in enumerate(col_idx)}
        rows = [{where[j]: x for j, x in self._rows[i].items() if j in where}
                for i in row_idx]
        return Matrix._sparse(len(rows), len(where), rows)

    def __add__(self, other: Matrix) -> Matrix:
        rows = []
        for r1, r2 in zip(self._rows, other._rows):
            out = dict(r1)
            for j, y in r2.items():
                s = out[j] + y if j in out else y
                if s:
                    out[j] = s
                else:
                    del out[j]
            rows.append(out)
        return Matrix._sparse(self.nrows, self.ncols, rows)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + -other

    def __neg__(self) -> Matrix:
        return Matrix._sparse(self.nrows, self.ncols,
                              [{j: -x for j, x in row.items()}
                               for row in self._rows])

    def scale(self, c) -> Matrix:
        # a product of nonzero field elements is nonzero: no zeros to drop
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix._sparse(self.nrows, self.ncols,
                              [{j: c * x for j, x in row.items()}
                               for row in self._rows])

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        brows = other._rows
        rows = []
        for arow in self._rows:
            acc = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows.append({j: x for j, x in acc.items() if x})
        return Matrix._sparse(self.nrows, other.ncols, rows)

    def apply(self, vec: list) -> list:
        out = []
        for row in self._rows:
            acc = 0
            for j, e in row.items():
                if vec[j]:
                    acc = acc + e * vec[j]
            out.append(acc)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self):
        raise TypeError("Matrix is unhashable")

    def is_zero(self) -> bool:
        return not any(self._rows)

    def first_nonzero(self):
        """(i, j) of the first nonzero entry in row-major order, or None."""
        for i, row in enumerate(self._rows):
            if row:
                return (i, min(row))
        return None

    def scalar_multiple_of_identity(self):
        """The scalar c with self == c * I, or None."""
        if self.nrows != self.ncols:
            return None
        c = self[0, 0]
        for i, row in enumerate(self._rows):
            if row != ({i: c} if c else {}):
                return None
        return c

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# elimination


def _den_of(x) -> int:
    return int(x.denominator) if not isinstance(x, int) else 1


def _num_of(x) -> int:
    return int(x.numerator) if not isinstance(x, int) else x


def _det_bareiss_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mrow = m[i]
            krow = m[k]
            for j in range(k + 1, n):
                mrow[j] = (pivot * mrow[j] - mik * krow[j]) // prev
            mrow[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_field(rows) -> object:
    n = len(rows)
    m = [row[:] for row in rows]
    det = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return rows[0][0] - rows[0][0] if n else 0
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            det = -det
        piv = m[k][k]
        det = det * piv
        inv_rows = m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if not f:
                continue
            f = f / piv
            m[i] = [a - f * b for a, b in zip(m[i], inv_rows)]
    return det


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for word-size candidates
    if n % 2 == 0:
        return n == 2
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_pool(count: int) -> tuple[int, ...]:
    out = []
    candidate = (1 << 29) - 3
    while len(out) < count:
        if _is_prime(candidate):
            out.append(candidate)
        candidate -= 2
    return tuple(out)


def _small_primes(count: int) -> tuple[int, ...]:
    return _prime_pool(((count + 255) // 256) * 256)[:count]


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """det(rows) mod p, by elimination over GF(p) on plain lists."""
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            det = -det
        krow = m[k]
        det = det * krow[k] % p
        inv = pow(krow[k], p - 2, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], krow)]
    return det % p


def _det_modular_int(rows: list[list[int]]) -> int | None:
    """Chinese-remainder determinant with a vectorised word-size kernel.

    Exact: reconstructs the integer determinant from residues modulo enough
    29-bit primes to cover the Hadamard bound.  Returns None when numpy is
    unavailable so the caller can fall back to Bareiss.
    """
    try:
        import numpy
    except ImportError:
        return None
    n = len(rows)
    bound_bits = 1
    for row in rows:
        norm_sq = sum(x * x for x in row)
        if not norm_sq:
            return 0
        bound_bits += (norm_sq.bit_length() + 1) // 2 + 1
    need = bound_bits // 28 + 2
    primes = _small_primes(need)
    residue = 0
    modulus = 1
    for p in primes:
        m = numpy.array([[x % p for x in row] for row in rows],
                        dtype=numpy.int64)
        det = 1
        for k in range(n):
            col = m[k:, k]
            hits = numpy.nonzero(col)[0]
            if hits.size == 0:
                det = 0
                break
            pr = k + int(hits[0])
            if pr != k:
                m[[k, pr]] = m[[pr, k]]
                det = -det
            piv = int(m[k, k])
            det = det * piv % p
            inv = pow(piv, p - 2, p)
            if k + 1 < n:
                facs = (m[k + 1:, k] * inv) % p
                m[k + 1:, k:] = (m[k + 1:, k:]
                                 - facs[:, None] * m[k, k:]) % p
        det %= p
        # garner step
        residue = residue + modulus * ((det - residue)
                                       * pow(modulus, p - 2, p) % p)
        modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    return residue


def _integer_rows(rows: list[list]):
    """(scale, int_rows): each rational row times the lcm of its
    denominators, and the product of those lcms, so that
    det(rows) = det(int_rows) / scale."""
    scale = RAT(1)
    int_rows = []
    for row in rows:
        lcm = 1
        for x in row:
            d = _den_of(x)
            lcm = lcm * d // math.gcd(lcm, d)
        scale = scale * RAT(lcm)
        int_rows.append([_num_of(x) * (lcm // _den_of(x)) for x in row])
    return scale, int_rows


#: above this dimension the minor growth makes Bareiss impractical and the
#: modular reconstruction takes over (still exact; cross-checked in tests)
_MODULAR_DIM = 100

#: how many pool primes ``nonsingular_certificate`` tries
_CERTIFICATE_PRIMES = 3


def exact_det(matrix: Matrix):
    """Exact determinant; fraction-free Bareiss over ints for rational
    entries, with a modular kernel for very large matrices."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if matrix.nrows == 0:
        return RAT(1)
    rows = matrix.rows
    if all(is_rational(x) for row in rows for x in row):
        scale, int_rows = _integer_rows(rows)
        det = None
        if matrix.nrows >= _MODULAR_DIM:
            det = _det_modular_int(int_rows)
        if det is None:
            det = _det_bareiss_int(int_rows)
        return RAT(det) / scale
    return _det_field(rows)


def nonsingular_certificate(matrix: Matrix) -> int | None:
    """A prime p with det(matrix) != 0 mod p, proving det(matrix) != 0.

    The residue is that of the row-integerised matrix (as in
    ``exact_det``), whose determinant is det(matrix) times a nonzero
    integer, so a nonzero residue is a proof.  Returns None when none of a
    few pool primes certifies, or when the entries are not rational; None
    proves nothing, and the caller must decide exactly.  The kernel is plain
    Python: a few residues of one matrix are not worth importing numpy.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows = matrix.rows
    if not all(is_rational(x) for row in rows for x in row):
        return None
    _, int_rows = _integer_rows(rows)
    for p in _prime_pool(_CERTIFICATE_PRIMES):
        if _det_mod_p(int_rows, p):
            return p
    return None


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    m = [row + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(matrix.rows)]
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            raise ZeroDivisionError("matrix is singular")
        m[k], m[pr] = m[pr], m[k]
        piv = m[k][k]
        m[k] = [x / piv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return Matrix([row[n:] for row in m])


def rank(matrix: Matrix) -> int:
    m = matrix.rows
    nrows, ncols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x @ y - y @ x


__all__ = ["Matrix", "commutator", "exact_det", "invert", "rank"]
