"""Exact linear algebra over any field with decidable zero tests.

Entries may be backend rationals, ints, or symbolic fractions; zero is
detected with ``not entry`` and equality with ``==``.  A product of
rational matrices A @ B is taken over cleared denominators: row i of A is
scaled by the lcm r_i of its denominators and column j of B by the lcm c_j
of its, the one sparse accumulation loop sums integers, and each nonzero
sum s becomes the rational s / (r_i c_j) once.  ``commutator`` forms both
of its products so and subtracts them in integers, making a rational only
for a nonzero difference.  Products of int matrices, which stay ints, and
of symbolic ones enter the same loop with their entries as they are.
Rational and int entries are made backend rationals once, on entry to
``exact_det``, ``invert`` and ``rank``, so that every division is exact.
Determinants use dense Gaussian elimination over the entries' field, since
their inputs are dense (the Gram matrix at N = 6 has no zero entry).
Inverses and ranks use Gauss-Jordan elimination over the stored nonzeros,
since the path basis they invert is sparse (1111 of 4096 entries nonzero at
N = 6): each row is a ``{column: value}`` dict, only stored entries are
updated, and an entry that cancels is deleted.  A nonzero residue of the
determinant modulo one of three fixed primes (``nonsingular_certificate``)
proves a rational matrix nonsingular without computing its determinant;
the entries must be p-integral, that is p divides none of their
denominators.  Pivoting is first-nonzero: with exact arithmetic, pivot
choice affects speed only.
"""

from __future__ import annotations

from math import lcm

from ._ratback import RAT, RAT_TYPES, is_rational


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
        if any(len(row) != self.ncols for row in rows):
            raise ValueError("dense rows of unequal length")
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
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
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
        if not _both_rational(self, other):
            rows = [{j: x for j, x in acc.items() if x}
                    for acc in _accumulate(self._rows, other._rows)]
            return Matrix._sparse(self.nrows, other.ncols, rows)
        r = _row_scales(self)
        bcols, c = _column_cleared(other)
        rows = [{j: RAT(x, ri * c[j]) for j, x in acc.items() if x}
                for ri, acc in zip(r, _accumulate(_row_cleared(self, r),
                                                  bcols))]
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
# products over cleared denominators

_RATIONAL_TYPES = frozenset(RAT_TYPES)


def _both_rational(a: Matrix, b: Matrix) -> bool:
    """Whether every entry of a and b is rational and one is not an int:
    the factors whose product is taken over cleared denominators.  Int
    factors are integers already, and symbolic ones keep their own type."""
    kinds = {type(x) for m in (a, b) for row in m._rows for x in row.values()}
    return kinds <= _RATIONAL_TYPES and not kinds <= {int}


def _row_scales(m: Matrix) -> list:
    """The lcm of the denominators in each row of the rational ``m``."""
    # two at a time: one lcm(*row) call per row raised the peak RSS of
    # `relations --n 6` by about 0.6 MiB (Python 3.11)
    scales = []
    for row in m._rows:
        s = 1
        for x in row.values():
            if x.denominator != 1:
                s = lcm(s, x.denominator)
        scales.append(s)
    return scales


def _row_cleared(m: Matrix, scales: list):
    """Each row of ``m`` times its scale, in integers, one row at a time."""
    for row, s in zip(m._rows, scales):
        yield {j: x.numerator * (s // x.denominator) for j, x in row.items()}


def _column_cleared(m: Matrix) -> tuple[list[dict], list]:
    """The rows of the rational ``m`` with each column times the lcm of its
    denominators, in integers, and those lcms."""
    scales = [1] * m.ncols
    for row in m._rows:
        for j, x in row.items():
            if x.denominator != 1:
                scales[j] = lcm(scales[j], x.denominator)
    return ([{j: x.numerator * (scales[j] // x.denominator)
              for j, x in row.items()} for row in m._rows], scales)


def _accumulate(arows, brows: list[dict]):
    """Row by row, the sums over k of a_ik b_kj, taken over the stored
    entries only; a sum that cancels is kept as a zero.  Each row is
    yielded as it is done, so that only one row of sums is held."""
    for arow in arows:
        acc = {}
        for k, a in arow.items():
            for j, b in brows[k].items():
                acc[j] = acc[j] + a * b if j in acc else a * b
        yield acc


# ---------------------------------------------------------------------------
# elimination


def _det_field(m: list[list]) -> object:
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


#: the primes ``nonsingular_certificate`` tries, in order: the three
#: largest primes below 2^29
_CERTIFICATE_PRIMES = (536870909, 536870879, 536870869)


def _field_rows(rows: list[dict]) -> list[dict]:
    """Copies of the sparse ``rows``, with every entry a backend rational
    when all are rational, so that elimination divides exactly: an int
    pivot would divide in floating point.  Symbolic entries are kept."""
    if all(is_rational(x) for row in rows for x in row.values()):
        return [{j: RAT(x) for j, x in row.items()} for row in rows]
    return [dict(row) for row in rows]


def exact_det(matrix: Matrix):
    """Exact determinant by Gaussian elimination over the entries' field.

    Rational and int entries are made backend rationals first; symbolic
    entries are eliminated as they are.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if matrix.nrows == 0:
        return RAT(1)
    rows = matrix.rows
    if all(is_rational(x) for row in rows for x in row):
        rows = [[RAT(x) for x in row] for row in rows]
    return _det_field(rows)


def nonsingular_certificate(matrix: Matrix) -> int | None:
    """A prime p with det(matrix) != 0 mod p, proving det(matrix) != 0.

    Each entry num/den is reduced to num * den^-1 mod p, which needs p to
    divide no denominator; a prime that divides one is passed over.  The
    reduction is then a ring map from the p-integral rationals to GF(p), so
    a nonzero residue of the determinant proves it nonzero.  Returns None
    when none of ``_CERTIFICATE_PRIMES`` certifies, or when the entries are
    not rational; None proves nothing, and the caller must decide exactly.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows = matrix.rows
    if not all(is_rational(x) for row in rows for x in row):
        return None
    for p in _CERTIFICATE_PRIMES:
        if any(int(x.denominator) % p == 0 for row in rows for x in row):
            continue
        residues = [[int(x.numerator) * pow(int(x.denominator), -1, p)
                     for x in row] for row in rows]
        if _det_mod_p(residues, p):
            return p
    return None


def _row_reduce(rows: list[dict], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of the sparse ``{column: value}`` rows in
    place, over their first ``ncols`` columns, to reduced row echelon form;
    returns the pivot column of each leading row.  Only stored entries are
    visited, and an entry that cancels is deleted, so no row stores a zero."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        # a quotient of nonzero field elements is nonzero: no zeros to drop
        prow = rows[r] = {j: x / piv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            f = row[c]
            for j, b in prow.items():
                if j not in row:
                    row[j] = -(f * b)
                elif s := row[j] - f * b:
                    row[j] = s
                else:
                    del row[j]
        pivots.append(c)
    return pivots


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [matrix | I] over its
    stored entries; raises on singular input."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    m = _field_rows([{**row, n + i: 1} for i, row in enumerate(matrix._rows)])
    if len(_row_reduce(m, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    # row i of the reduced [I | matrix^-1] stores its pivot 1 at column i
    return Matrix._sparse(n, n, [{j - n: x for j, x in row.items() if j >= n}
                                 for row in m])


def rank(matrix: Matrix) -> int:
    return len(_row_reduce(_field_rows(matrix._rows), matrix.ncols))


def commutator(x: Matrix, y: Matrix) -> Matrix:
    """x @ y - y @ x.  On rational entries, with x y = P / (r_i c_j) and
    y x = Q / (r'_i c'_j) over cleared denominators, entry (i, j) is
    P r'_i c'_j - Q r_i c_j over the product of the four scales; only a
    nonzero difference becomes a rational."""
    n = x.nrows
    if not x.ncols == y.nrows == y.ncols == n:
        raise ValueError("shape mismatch in commutator")
    if not _both_rational(x, y):
        return x @ y - y @ x
    rx, ry = _row_scales(x), _row_scales(y)
    (xcols, cx), (ycols, cy) = _column_cleared(x), _column_cleared(y)
    rows = []
    for i, p, q in zip(range(n), _accumulate(_row_cleared(x, rx), ycols),
                       _accumulate(_row_cleared(y, ry), xcols)):
        out = {}
        for j in p.keys() | q.keys():
            d = p.get(j, 0) * ry[i] * cx[j] - q.get(j, 0) * rx[i] * cy[j]
            if d:
                out[j] = RAT(d, rx[i] * cy[j] * ry[i] * cx[j])
        rows.append(out)
    return Matrix._sparse(n, n, rows)


__all__ = [
    "Matrix", "commutator", "exact_det", "invert", "nonsingular_certificate",
    "rank",
]
