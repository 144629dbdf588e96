"""Exact linear algebra over any field with decidable zero tests.

Entries may be backend rationals, ints, or symbolic fractions; zero is
detected with ``not entry`` and equality with ``==``.  A matrix holds either
its values as given or integer numerators over one common denominator
D > 0, in lowest terms: D and the numerators have no common factor, so
equal matrices store equal numerators.  A numeric matrix, ints included
(D = 1), switches to numerators in place the first time it enters a
product, sum, difference, ``scale``, ``commutator`` or
``product_difference``; a matrix that is only read keeps its values, so
the Gram matrix, which is built, read by ``exact_det`` and written out but
never multiplied, is never converted, and a matrix with a symbolic entry
keeps its values for good.  Every product goes through one routine: over
numerators it runs one sparse accumulation loop on integers over the
denominator D_a D_b, followed by a single gcd over the result, and over
values the same loop on the values.  ``product_difference`` sums
a @ b - c @ d row by row without forming either product (a commutator
compares x y with y x over their shared denominator).  An entry
becomes a backend rational only when it is read: ``m[i, j]``, ``rows``,
``column``, ``apply``, comparison with a matrix that is not converted, and
elimination; so a matrix that has entered arithmetic never reads an int.
Rational and int entries are made backend rationals on entry to
``exact_det``, ``invert`` and ``rank``, so that every division is exact.
Determinants, inverses, ranks and ``scalars.multiplicative_kernel`` run
one Gauss-Jordan elimination (``_row_reduce``), which yields its pivots one
at a time, so a determinant stops at the first column without one; it and
the word span of ``irreps`` share one row update (``_subtract``), which
visits only stored entries and deletes any that cancels.  Pivoting is
first-nonzero: with exact arithmetic, pivot choice affects speed only.

A matrix whose columns have short denominators but no short common one,
such as a path basis, is held as a list of columns in the column format:
(d, [n_0, ..., n_{r-1}]) for the entries n_i / d, the integers in lowest
terms over d > 0, or (None, values) when an entry is not rational
(``as_column``).  ``nonsingular_certificate`` and
``intertwiner_differences`` read it without forming the matrix, which
``column_matrix`` forms when its rows are read.
"""

from __future__ import annotations

from math import gcd, lcm

from ._ratback import RAT, RAT_TYPES, is_rational


class Matrix:
    """Matrix over exact scalars that stores only its nonzero entries.

    Each row is a ``{column: value}`` dict without zeros, so products, sums,
    scaling, comparison and application cost time in the nonzero entries.
    ``_den`` is None while the values are stored as given (a matrix that
    has only been read, or one with a symbolic entry), and the common
    denominator D once a numeric matrix holds integer numerators over it.
    ``rows`` is a dense copy of the values, with ``0`` wherever nothing is
    stored.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_den")

    def __init__(self, rows):
        """From dense rows: a list of equal-length lists."""
        rows = list(rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(row) != self.ncols for row in rows):
            raise ValueError("dense rows of unequal length")
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        self._den = None

    @staticmethod
    def _sparse(nrows: int, ncols: int, rows: list[dict],
                den=None) -> Matrix:
        out = object.__new__(Matrix)
        out.nrows, out.ncols, out._rows, out._den = nrows, ncols, rows, den
        return out

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix._sparse(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> Matrix:
        return Matrix._sparse(nrows, ncols, [{} for _ in range(nrows)])

    @staticmethod
    def from_columns(cols) -> Matrix:
        """From dense columns of equal length: the transpose of ``Matrix``."""
        return Matrix(cols).transpose()

    def _values(self) -> list[dict]:
        """The stored rows with each entry as it reads: the rows themselves
        unless the matrix holds numerators, else new backend rationals."""
        if self._den is None:
            return self._rows
        den = self._den
        return [{j: RAT(x, den) for j, x in row.items()} for row in self._rows]

    @property
    def rows(self) -> list[list]:
        """Dense copy of the entries, row by row."""
        out = []
        for row in self._values():
            dense = [0] * self.ncols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def __getitem__(self, ij):
        x = self._rows[ij[0]].get(ij[1], 0)
        return x if self._den is None or not x else RAT(x, self._den)

    def column(self, j: int) -> list:
        if self._den is None:
            return [row.get(j, 0) for row in self._rows]
        den = self._den
        return [RAT(row[j], den) if j in row else 0 for row in self._rows]

    def transpose(self) -> Matrix:
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        # the same numerators over the same D: still in lowest terms
        return Matrix._sparse(self.ncols, self.nrows, cols, self._den)

    def submatrix(self, row_idx, col_idx) -> Matrix:
        where = {j: k for k, j in enumerate(col_idx)}
        rows = [{where[j]: x for j, x in self._rows[i].items() if j in where}
                for i in row_idx]
        return _lowest(len(rows), len(where), rows, self._den)

    def __add__(self, other: Matrix) -> Matrix:
        return _sum(self, other, 1)

    def __sub__(self, other: Matrix) -> Matrix:
        return _sum(self, other, -1)

    def __neg__(self) -> Matrix:
        return Matrix._sparse(self.nrows, self.ncols,
                              [{j: -x for j, x in row.items()}
                               for row in self._rows], self._den)

    def scale(self, c) -> Matrix:
        # a product of nonzero field elements is nonzero: no zeros to drop
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        if is_rational(c) and _numeric(self):
            f, rows, den = c.numerator, self._rows, self._den * c.denominator
        else:  # symbolic entries or factor: entry by entry as they are
            f, rows, den = c, self._values(), None
        return _lowest(self.nrows, self.ncols,
                       [{j: f * x for j, x in row.items()} for row in rows],
                       den)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return _product_sum(((self, other, 1),), self.nrows, other.ncols)

    def apply(self, vec: list) -> list:
        """The matrix times ``vec``; over numerators, each nonzero sum is
        divided by D once."""
        out = []
        for row in self._rows:
            acc = 0
            for j, e in row.items():
                if vec[j]:
                    acc = acc + e * vec[j]
            out.append(acc)
        if self._den is None:
            return out
        # times 1/D, not divided by D: an int sum over an int D would divide
        # in floating point
        inv = RAT(1, self._den)
        return [x * inv if x else x for x in out]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self._den is not None and other._den is not None:
            # lowest terms: equal matrices store equal numerators and D
            return self._den == other._den and self._rows == other._rows
        return self._values() == other._values()

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
        c = self._rows[0].get(0, 0)
        for i, row in enumerate(self._rows):
            if row != ({i: c} if c else {}):
                return None
        return self[0, 0]

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# arithmetic over one common denominator

_RATIONAL_TYPES = frozenset(RAT_TYPES)


def _numeric(m: Matrix) -> bool:
    """Whether every entry of ``m`` is an int or a rational.  A numeric
    ``m`` that still stores its values is switched in place to integer
    numerators over the lcm D of its denominators (D = 1 for ints), which is
    in lowest terms: a prime p dividing D divides the denominator d of some
    entry n/d as often as it divides D, and so divides neither n nor D/d."""
    if m._den is not None:
        return True
    den = 1
    for row in m._rows:
        for x in row.values():
            if type(x) not in _RATIONAL_TYPES:
                return False
            # two at a time: one lcm(*row) call per row raised the peak RSS
            # of `relations --n 6` by about 0.6 MiB (Python 3.11)
            if x.denominator != 1:
                den = lcm(den, x.denominator)
    m._rows = [{j: x.numerator * (den // x.denominator)
                for j, x in row.items()} for row in m._rows]
    m._den = den
    return True


def _lowest(nrows: int, ncols: int, rows: list[dict], den) -> Matrix:
    """The matrix of ``rows`` (no zeros stored): values as they are when
    ``den`` is None, else numerators over ``den``, brought to lowest terms
    by one gcd over all of them, which stops at the first row that brings
    it to 1."""
    g = den or 1
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g != 1:
        rows = [{j: x // g for j, x in row.items()} for row in rows]
        den //= g
    return Matrix._sparse(nrows, ncols, rows, den)


def _sum(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + sign * b as fa a + fb b, row by row over the stored entries,
    dropping every sum that cancels; over numerators, fa and fb bring both
    to the lcm of the two denominators."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch in matrix sum")
    if _numeric(a) and _numeric(b):
        den = lcm(a._den, b._den)
        arows, brows = a._rows, b._rows
        fa, fb = den // a._den, sign * (den // b._den)
    else:
        arows, brows = a._values(), (b if sign == 1 else -b)._values()
        fa, fb, den = 1, 1, None
    rows = []
    for r1, r2 in zip(arows, brows):
        out = dict(r1) if fa == 1 else {j: fa * x for j, x in r1.items()}
        for j, y in r2.items():
            if fb != 1:
                y = fb * y
            s = out[j] + y if j in out else y
            if s:
                out[j] = s
            else:
                del out[j]
        rows.append(out)
    return _lowest(a.nrows, a.ncols, rows, den)


def _accumulate(terms, nrows: int):
    """Row by row, the sums over k and over the terms (arows, brows, f) of
    f a_ik b_kj, taken over the stored entries only; a sum that cancels is
    kept as a zero.  Each row is yielded as it is done, so that only one
    row of sums is held."""
    for i in range(nrows):
        acc = {}
        for arows, brows, f in terms:
            for k, a in arows[i].items():
                if f != 1:
                    a = f * a
                for j, b in brows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
        yield acc


def _product_sum(terms, nrows: int, ncols: int) -> Matrix:
    """The sum of sign * (a @ b) over the ``terms`` (a, b, sign): in
    integers over the lcm D of the products' denominators D_a D_b when every
    factor is numeric, else over the values as they are."""
    if all(_numeric(m) for a, b, _ in terms for m in (a, b)):
        dens = [a._den * b._den for a, b, _ in terms]
        den = lcm(*dens)
        parts = [(a._rows, b._rows, sign * (den // d))
                 for (a, b, sign), d in zip(terms, dens)]
    else:  # -a: negating a symbolic entry does not cancel its factors again
        den = None
        parts = [((a if sign == 1 else -a)._values(), b._values(), 1)
                 for a, b, sign in terms]
    rows = [{j: x for j, x in acc.items() if x}
            for acc in _accumulate(parts, nrows)]
    return _lowest(nrows, ncols, rows, den)


# ---------------------------------------------------------------------------
# elimination


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
    """Exact determinant over the entries' field: the product of the pivots
    of ``_row_reduce``, or zero at the first column without a pivot, where
    the elimination stops.

    Rational and int entries are made backend rationals first; symbolic
    entries are eliminated as they are.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    pivots = _row_reduce(_field_rows(matrix._values()), matrix.ncols)
    det = RAT(1)
    for k in range(matrix.nrows):
        c, piv = next(pivots, (None, None))
        if c != k:
            return det - det
        det = det * piv
    return det


def nonsingular_certificate(cols) -> int | None:
    """A prime p with det(b) != 0 mod p, proving det(b) != 0, for the square
    matrix b whose columns are ``cols`` (in the column format).

    Each entry n_ij / d_j is reduced to n_ij * d_j^-1 mod p, which needs p
    to divide no d_j; a prime that divides one is passed over.  The
    reduction is then a ring map from the p-integral rationals to GF(p), so
    a nonzero residue of the determinant, taken over the columns as rows
    (det b^T = det b), proves it nonzero.  Returns None when none of
    ``_CERTIFICATE_PRIMES`` certifies, or when the columns hold values; None
    proves nothing, and the caller must decide exactly.
    """
    if any(len(col) != len(cols) for _, col in cols):
        raise ValueError("determinant of a non-square matrix")
    if any(den is None for den, _ in cols):
        return None
    for p in _CERTIFICATE_PRIMES:
        # in lowest terms, p divides d_j exactly when it divides the
        # denominator of an entry of column j
        if any(int(den) % p == 0 for den, _ in cols):
            continue
        residues = []
        for den, col in cols:
            inv = pow(int(den), -1, p)
            residues.append([int(x) * inv for x in col])
        if _det_mod_p(residues, p):
            return p
    return None


def _row_reduce(rows: list[dict], ncols: int):
    """Gauss-Jordan elimination of the sparse ``{column: value}`` rows in
    place, over their first ``ncols`` columns, to reduced row echelon form.
    Yields (column, pivot) at each pivot before clearing its column, the
    pivot negated when rows were swapped, so that the pivots of square rows
    of full rank multiply to their determinant; a caller that stops early
    skips the rest, and the rows are reduced once it is exhausted.  Only
    stored entries are visited, and an entry that cancels is deleted, so no
    row stores a zero."""
    r = 0
    for c in range(ncols):
        if r == len(rows):
            return
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        yield c, (piv if pr == r else -piv)
        # a quotient of nonzero field elements is nonzero: no zeros to drop
        prow = rows[r] = {j: x / piv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            if i != r and c in row:
                _subtract(row, row[c], prow)
        r += 1


def _subtract(row: dict, f, prow: dict) -> None:
    """row -= f * prow over prow's stored entries, deleting any that cancel."""
    for j, b in prow.items():
        if j not in row:
            row[j] = -(f * b)
        elif s := row[j] - f * b:
            row[j] = s
        else:
            del row[j]


def _extend_span(span: dict, vec: dict) -> bool:
    """Reduce the sparse ``vec`` of field entries in place by the rows of
    ``span`` ({pivot key: row, 1 at its pivot}) in the order they were added;
    keep a nonzero remainder under its least key and say whether one was."""
    for piv, row in span.items():
        if piv in vec:
            _subtract(vec, vec[piv], row)
    if not vec:
        return False
    piv = min(vec)
    f = vec[piv]
    span[piv] = {j: x / f for j, x in vec.items()}
    return True


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [matrix | I] over its
    stored entries; raises on singular input."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    m = _field_rows([{**row, n + i: 1}
                     for i, row in enumerate(matrix._values())])
    if sum(1 for _ in _row_reduce(m, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    # row i of the reduced [I | matrix^-1] stores its pivot 1 at column i
    return Matrix._sparse(n, n, [{j - n: x for j, x in row.items() if j >= n}
                                 for row in m])


def rank(matrix: Matrix) -> int:
    return sum(1 for _ in _row_reduce(_field_rows(matrix._values()),
                                      matrix.ncols))


def product_difference(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """a @ b - c @ d, summed row by row without forming either product: in
    integers over the lcm of the products' denominators when every factor
    is numeric."""
    if (a.ncols != b.nrows or c.ncols != d.nrows
            or (a.nrows, b.ncols) != (c.nrows, d.ncols)):
        raise ValueError("shape mismatch in product difference")
    return _product_sum(((a, b, 1), (c, d, -1)), a.nrows, b.ncols)


def commutator(x: Matrix, y: Matrix) -> Matrix:
    """x @ y - y @ x; over numerators both products share the denominator
    D_x D_y, so the two are compared directly in integers."""
    return product_difference(x, y, y, x)


def as_column(values: list) -> tuple:
    """The dense ``values`` in the column format: over the lcm d of their
    denominators, which is in lowest terms (see ``_numeric``), when every
    value is rational, else over None."""
    if not all(map(is_rational, values)):
        return None, values
    d = lcm(*(x.denominator for x in values if x))
    return d, [x.numerator * (d // x.denominator) if x else 0 for x in values]


def column_matrix(cols) -> Matrix:
    """The Matrix whose column j is ``cols[j]`` (in the column format), with
    its values stored as given: n_ij / d_j as a backend rational."""
    return Matrix.from_columns([col if den is None else
                                [RAT(x, den) if x else 0 for x in col]
                                for den, col in cols])


def intertwiner_differences(bcols, pairs):
    """Yield e @ b - b @ m for each (e, m) of ``pairs`` in turn, the same
    difference Matrix as ``product_difference(e, b, b, m)``, for the matrix
    b whose columns are ``bcols`` (in the column format).

    Column p is e b_p - sum_q m_qp b_q, formed in integers over the
    denominators it reads: b_p and each b_q over their own d, each m_qp
    over its own denominator and e over its one denominator D_e.  So a b
    whose columns have short denominators but no short common one, such as
    a path basis, is multiplied at the size of its columns and never
    formed.  When b, m or e is not rational, b is formed (``column_matrix``)
    and the difference is ``product_difference``'s."""
    nonzero = [[(i, y) for i, y in enumerate(col) if y] for _, col in bcols]
    for e, m in pairs:
        if (e.nrows != e.ncols or (m.nrows, m.ncols) != (len(bcols),) * 2
                or any(len(col) != e.ncols for _, col in bcols)):
            raise ValueError("shape mismatch in intertwiner difference")
        mcols = m.transpose()._values()
        if (any(den is None for den, _ in bcols) or not _numeric(e)
                or any(type(x) not in _RATIONAL_TYPES
                       for col in mcols for x in col.values())):
            b = column_matrix(bcols)
            yield product_difference(e, b, b, m)
            continue
        ecols, de = e.transpose()._rows, e._den
        rows = [{} for _ in range(e.nrows)]
        for p, mcol in enumerate(mcols):
            dp = bcols[p][0]
            den = lcm(de * dp, *(x.denominator * bcols[q][0]
                                 for q, x in mcol.items()))
            acc = {}
            f = den // (de * dp)
            for k, y in nonzero[p]:
                y = f * y
                for i, x in ecols[k].items():
                    acc[i] = acc[i] + x * y if i in acc else x * y
            for q, x in mcol.items():
                x = x.numerator * (den // (x.denominator * bcols[q][0]))
                for i, y in nonzero[q]:
                    acc[i] = acc[i] - x * y if i in acc else -(x * y)
            for i, x in acc.items():
                if x:
                    rows[i][p] = RAT(x, den)
        yield Matrix._sparse(e.nrows, m.ncols, rows)


__all__ = [
    "Matrix", "as_column", "column_matrix", "commutator", "exact_det",
    "intertwiner_differences", "invert", "nonsingular_certificate",
    "product_difference", "rank",
]
