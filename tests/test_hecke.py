from __future__ import annotations

from itertools import combinations

import pytest

from conftest import assert_all_pass
from tl2b.linalg import Matrix, commutator
from tl2b.hecke import (central_element, central_scalar, centre_audit,
                        equivalent_presentation_audit, hecke_relation_audit,
                        iji_audit, lift_to_hecke, murphy,
                        murphy_commutation_audit)
from tl2b.pathbasis import ModuleRep
from tl2b.scalars import OMEGA1, THETA, HalfExponent
from tl2b.wordrep import ModuleSpec


@pytest.fixture(scope="module", params=(2, 3, 4))
def gens(request, point):
    return lift_to_hecke(ModuleSpec.big(request.param, point))


def test_hecke_relations(gens):
    assert_all_pass(hecke_relation_audit(gens))


@pytest.mark.parametrize("kind", ("A", "B", "C"))
def test_murphy_commutations(gens, kind):
    assert_all_pass(murphy_commutation_audit(murphy(kind, gens)))


def test_equivalent_presentation(gens):
    assert_all_pass(equivalent_presentation_audit(murphy("C", gens)))


def test_equivalent_presentation_needs_two_sites(point):
    # family C has no J_1 at N = 1
    fam = murphy("C", lift_to_hecke(ModuleSpec.big(1, point)))
    with pytest.raises(ValueError, match="N >= 2"):
        equivalent_presentation_audit(fam)
    with pytest.raises(ValueError, match="affine family"):
        equivalent_presentation_audit(murphy("B", fam.gens))


def affine(spec):
    return murphy("C", lift_to_hecke(spec))


def test_centre(point):
    for n in (2, 3, 4):
        spec = ModuleSpec.big(n, point)
        assert_all_pass(centre_audit(spec, affine(spec)))


def test_centre_on_lines_module(point):
    # the centre is scalar there too, with the twist-free character
    spec = ModuleSpec.through_lines(3, 0, 1, 1, point)
    fam = affine(spec)
    assert_all_pass(centre_audit(spec, fam))
    z = central_element(fam)
    assert z.scalar_multiple_of_identity() is not None


def test_iji_audit(point):
    for n in (2, 3, 4, 5):
        spec = ModuleSpec.big(n, point)
        assert_all_pass(iji_audit(spec, affine(spec)))


def test_central_scalar_value(point):
    spec = ModuleSpec.big(3, point)
    z = central_element(murphy("C", lift_to_hecke(spec)))
    lam = central_scalar(point, 3, THETA)
    assert z.scalar_multiple_of_identity() == lam
    # the pole-free form is [N] [2th] / [th]
    assert lam == (point.qnum(HalfExponent.integer(3))
                   * point.qnum(THETA.scale(2)) / point.qnum(THETA))


def test_symmetric_functions_of_type_b_murphys_are_central(point):
    for n in (2, 3, 4):
        spec = ModuleSpec.big(n, point)
        gens = lift_to_hecke(spec)
        js = murphy("B", gens).j
        dim = js[0].nrows
        elementary = []
        for k in range(1, len(js) + 1):
            acc = Matrix.zeros(dim, dim)
            for subset in combinations(range(len(js)), k):
                prod = Matrix.identity(dim)
                for idx in subset:
                    prod = prod @ js[idx]
                acc = acc + prod
            elementary.append(acc)
        for mat in elementary:
            for i in range(n):  # all generators except the far boundary
                assert commutator(mat, gens.g[i]).is_zero()


def test_murphy_on_nested_idempotents(point):
    # eigen-relations of the single-boundary family on the nested vectors
    from tl2b.pathbasis import idempotent_matrix

    n = 4
    spec = ModuleSpec.big(n, point)
    rep = ModuleRep(spec)
    gens = lift_to_hecke(spec)
    js = murphy("B", gens).j
    mats = {level: idempotent_matrix(rep, level) for level in range(n + 1)}
    for level in range(1, n + 1):
        e_mat = mats[level]
        assert (e_mat @ e_mat - e_mat).is_zero()
        for low in range(level):
            assert (mats[low] @ e_mat - e_mat).is_zero()  # E_i E_j = E_j
        m = level - 1
        if m % 2 == 0:
            lam = point.q_power(-OMEGA1 + HalfExponent.integer(-m))
        else:
            lam = point.q_power(OMEGA1 + HalfExponent.integer(-(m - 1)))
        assert (js[m] @ e_mat - e_mat.scale(lam)).is_zero()


def test_kernel_relation_spot_check(gens, point):
    # the left cubic reduction, written out in full
    g0, g1 = gens.g[0], gens.g[1]
    dim = g0.nrows
    ident = Matrix.identity(dim)
    q = lambda k: point.q_power(HalfExponent.integer(k))
    c1 = point.q_power(OMEGA1) + point.q_power(-OMEGA1)
    expr = (g1 @ g0 @ g1 + (g0 @ g1).scale(q(-1)) + (g1 @ g0).scale(q(-1))
            - g1.scale(q(-1) * c1) + g0.scale(q(-2)) - ident.scale(q(-2) * c1))
    assert expr.is_zero()


def test_inverse_images(gens):
    dim = gens.g[0].nrows
    ident = Matrix.identity(dim)
    for g, ginv in zip(gens.g, gens.ginv):
        assert (g @ ginv - ident).is_zero()
