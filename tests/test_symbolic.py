from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

from conftest import assert_all_pass
from tl2b.cli import main
from tl2b.linalg import exact_det
from tl2b.scalars import (HalfExponent, OMEGA1, OMEGA2, ONE, THETA,
                          SingularArgumentError, derive_params,
                          make_param_point)
from tl2b.symbolic import LaurentPoly, SymbolicPoint
from tl2b.wordrep import ModuleSpec, gram_matrix, relation_audit


@pytest.fixture(scope="module")
def sym():
    return SymbolicPoint()


@pytest.fixture(scope="module")
def sym_params(sym):
    return derive_params(sym)


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


def test_backend_agreement_battery(sym, sym_params):
    point = make_param_point(4)
    params = derive_params(point)
    battery = [HalfExponent(1, 1, 1, 1), HalfExponent(-3, 2, -1, 4),
               OMEGA1 + ONE, THETA.scale(2), HalfExponent(0, 2, -2, 0)]
    for x in battery:
        assert sym.qnum(x).evaluate(point) == point.qnum(x)
    for name in ("delta", "s1", "s2", "b_even", "b_odd"):
        assert getattr(sym_params, name).evaluate(point) == \
            getattr(params, name)
    # a compound expression, evaluated both ways
    expr = (sym.qnum(OMEGA1) * sym.qnum(THETA) / sym.qnum(OMEGA2 + ONE)
            + sym.q_power(ONE) ** -3)
    direct = (point.qnum(OMEGA1) * point.qnum(THETA)
              / point.qnum(OMEGA2 + ONE) + point.q_power(ONE) ** -3)
    assert expr.evaluate(point) == direct


def test_symbolic_relation_audit(sym_params):
    assert_all_pass(relation_audit(ModuleSpec.big(2, sym_params)))


def test_symbolic_determinant_factorisation(sym, sym_params):
    # the four-dimensional determinant factorisation as a certificate
    spec = ModuleSpec.big(2, sym_params)
    det = exact_det(gram_matrix(spec))
    b, d = sym_params.b_for(2), sym_params.delta
    s1, s2 = sym_params.s1, sym_params.s2
    assert det == b * (b - s1) * (b - s2) * (b - s1 - s2 + d * s1 * s2)


def test_symbolic_closed_form_identity(sym, sym_params):
    from tl2b.pathbasis import (gram_closed_form,
                                gram_normalization_exponent)

    spec = ModuleSpec.big(2, sym_params)
    det = exact_det(gram_matrix(spec))
    closed = gram_closed_form(2, sym)
    assert det == closed * sym_params.s1 ** gram_normalization_exponent(2)


def test_symbolic_basis_command():
    # the Murphy spectra of the basis audit are unhashable symbolic scalars
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["basis", "--n", "2", "--backend", "symbolic"])
    doc = json.loads(buf.getvalue())
    assert code == 0 and doc["status"] == "pass"
    assert doc["backend"] == "symbolic" and len(doc["results"]) == 29
