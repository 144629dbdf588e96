from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

from conftest import assert_all_pass
from tl2b.cli import main
from tl2b._ratback import RAT
from tl2b.linalg import Matrix, commutator, exact_det, product_difference
from tl2b.scalars import (HalfExponent, OMEGA1, OMEGA2, ONE, THETA,
                          SingularArgumentError, make_param_point)
from tl2b.spinchain import SpinRep
from tl2b.symbolic import LaurentFrac, LaurentPoly, SymbolicPoint
from tl2b.wordrep import ModuleSpec, gram_matrix, relation_audit


@pytest.fixture(scope="module")
def sym():
    return SymbolicPoint()


def test_poly_arithmetic():
    s = LaurentPoly.monomial((1, 0, 0, 0))
    sinv = LaurentPoly.monomial((-1, 0, 0, 0))
    two = LaurentPoly.const(2)
    assert (s + sinv) * (s - sinv) == s * s - sinv * sinv
    assert (s - s) == LaurentPoly()
    assert two.evaluate((Fraction(5), 1, 1, 1)) == 2


def test_exact_division():
    s = LaurentPoly.monomial((1, 0, 0, 0))
    one = LaurentPoly.const(1)
    f = s * s * s - one  # (s - 1)(s^2 + s + 1)
    g = s - one
    h = f.divide_exact(g)
    assert h is not None and h * g == f
    assert (s * s + one).divide_exact(g) is None


def test_exact_division_has_no_term_budget():
    # the quotient of x^200 - 1 by x - 1 has 200 terms
    one = LaurentPoly.const(1)
    x = LaurentPoly.monomial((1, 0, 0, 0))
    y = LaurentPoly.monomial((0, 1, 0, 0))
    h = (LaurentPoly.monomial((200, 0, 0, 0)) - one).divide_exact(x - one)
    assert h == LaurentPoly({(k, 0, 0, 0): 1 for k in range(200)})
    assert x.divide_exact(x - y) is None


def test_fraction_field_axioms(sym):
    x = sym.qnum(OMEGA1 + ONE)
    y = sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    assert (x + y) * z == x * z + y * z
    assert x / x == 1
    assert x - x == 0 and not (x - x)
    assert (x / y) * y == x
    assert x ** -2 * x ** 2 == 1
    with pytest.raises(SingularArgumentError):
        _ = x / (y - y)


def test_symbolic_products_take_the_generic_loop(sym):
    # LaurentFrac entries, mixed with ints and Fractions, are multiplied as
    # they are: the schoolbook sums below are the reference
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    a = [[x, 0, Fraction(1, 3)], [y, z, 0]]
    b = [[z, 1], [0, x], [y, Fraction(-2, 5)]]

    def schoolbook(p, r):
        return [[sum(p[i][k] * r[k][j] for k in range(len(r)))
                 for j in range(len(r[0]))] for i in range(len(p))]

    got = Matrix(a) @ Matrix(b)
    assert got.rows == schoolbook(a, b)
    assert all(isinstance(e, LaurentFrac) for row in got.rows for e in row)
    square = Matrix(schoolbook(a, b))
    other = Matrix([[y, Fraction(1, 2)], [0, z]])
    want = [[p - q for p, q in zip(r, t)]
            for r, t in zip(schoolbook(square.rows, other.rows),
                            schoolbook(other.rows, square.rows))]
    comm = commutator(square, other)
    assert comm.rows == want and comm == square @ other - other @ square
    assert commutator(square, square @ square).is_zero()

    # numeric matrices that hold numerators, on either side of a symbolic
    # one: an identity already used in a numeric product, and a diagonal
    # twist of backend rationals as in ``spinchain.twist_symmetry_audit``
    ident = Matrix.identity(2)
    ident @ Matrix([[Fraction(1, 2), 0], [3, 1]])
    alpha = RAT(3)
    twist = Matrix([[alpha ** -1, 0], [0, alpha]])
    twist @ twist
    for num in (ident, twist):
        assert num._den is not None
        for left, right in ((num, other), (other, num)):
            assert (left @ right).rows == schoolbook(left.rows, right.rows)
        want = [[p - q for p, q in zip(r, t)]
                for r, t in zip(schoolbook(num.rows, other.rows),
                                schoolbook(other.rows, num.rows))]
        assert product_difference(num, other, other, num).rows == want
        assert commutator(num, other).rows == want
        assert commutator(other, num).rows == \
            [[-p for p in row] for row in want]


def test_backend_agreement_battery(sym):
    point = make_param_point(4)
    battery = [HalfExponent(1, 1, 1, 1), HalfExponent(-3, 2, -1, 4),
               OMEGA1 + ONE, THETA.scale(2), HalfExponent(0, 2, -2, 0)]
    for x in battery:
        assert sym.qnum(x).evaluate(point) == point.qnum(x)
    for name in ("delta", "s1", "s2", "b_even", "b_odd"):
        assert getattr(sym, name).evaluate(point) == getattr(point, name)
    # a compound expression, evaluated both ways
    expr = (sym.qnum(OMEGA1) * sym.qnum(THETA) / sym.qnum(OMEGA2 + ONE)
            + sym.q_power(ONE) ** -3)
    direct = (point.qnum(OMEGA1) * point.qnum(THETA)
              / point.qnum(OMEGA2 + ONE) + point.q_power(ONE) ** -3)
    assert expr.evaluate(point) == direct


@pytest.mark.parametrize("n", [2, 3])
def test_symbolic_models_specialise_to_the_numeric_ones(sym, point, n):
    # the half-diagram module, its Gram matrix and the spin chain over the
    # parameter field, specialised at the point entry by entry, give the
    # numeric ones
    def at_point(x):
        return x if isinstance(x, int) else x.evaluate(point)

    big_sym, big_num = ModuleSpec.big(n, sym), ModuleSpec.big(n, point)
    pairs = [(gram_matrix(big_sym), gram_matrix(big_num))]
    for symbolic, numeric in ((big_sym.generators, big_num.generators),
                              (SpinRep(n, sym).generators,
                               SpinRep(n, point).generators)):
        assert len(symbolic) == len(numeric) == n + 1
        pairs += zip(symbolic, numeric)
    for sym_mat, num_mat in pairs:
        assert [[at_point(x) for x in row]
                for row in sym_mat.rows] == num_mat.rows


def test_symbolic_relation_audit(sym):
    assert_all_pass(relation_audit(ModuleSpec.big(2, sym)))


def test_symbolic_determinant_factorisation(sym):
    # the four-dimensional determinant factorisation as a certificate
    spec = ModuleSpec.big(2, sym)
    det = exact_det(gram_matrix(spec))
    b, d = sym.b_for(2), sym.delta
    s1, s2 = sym.s1, sym.s2
    assert det == b * (b - s1) * (b - s2) * (b - s1 - s2 + d * s1 * s2)


def test_symbolic_closed_form_identity(sym):
    from tl2b.pathbasis import (gram_closed_form,
                                gram_normalization_exponent)

    spec = ModuleSpec.big(2, sym)
    det = exact_det(gram_matrix(spec))
    closed = gram_closed_form(2, sym)
    assert det == closed * sym.s1 ** gram_normalization_exponent(2)


def test_symbolic_basis_command():
    # the Murphy spectra of the basis audit are unhashable symbolic scalars
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["basis", "--n", "2", "--backend", "symbolic"])
    doc = json.loads(buf.getvalue())
    assert code == 0 and doc["status"] == "pass"
    assert doc["backend"] == "symbolic" and len(doc["results"]) == 29
