from __future__ import annotations

import pytest

from conftest import assert_all_pass
from tl2b._ratback import RAT
from tl2b.linalg import Matrix, exact_det
from tl2b.pathbasis import ModuleRep, build_b1, exceptional_points
from tl2b.irreps import (ExceptionalSpec, central_character, conjecture_cases,
                         conjecture_check, detect_invariant,
                         family_relation_audit,
                         make_exceptional_point, murphy_spectrum_match,
                         random_word_traces_agree, traces_agree_all_words)
from tl2b.wordrep import (ModuleSpec, enumerate_basis, generator_matrix,
                          gram_matrix, irrep_dim)


def test_spec_validation():
    ExceptionalSpec(4, 1, 3, -1, 1)
    with pytest.raises(ValueError):
        ExceptionalSpec(4, 1, 2, 1, 1)  # even offset on an even chain
    with pytest.raises(ValueError):
        ExceptionalSpec(3, 1, 0, -1, 1)  # zero offset carries +w1 only


def test_exceptional_point_construction():
    espec = ExceptionalSpec(3, -1, 2, 1, -1)
    point = make_exceptional_point(5, espec)
    assert point.theta_mode == "exceptional"
    assert point.t == espec.tau(point.s, point.a, point.v)
    assert len(point.kernel) == 1
    g = point.kernel[0]
    kv = espec.kernel_vector()
    assert g in (kv, tuple(-x for x in kv))


def test_exceptional_point_is_distinct_from_every_other_twist():
    # the standing distinctness assumption, implied by the point's
    # certificate rather than checked when the point is drawn
    for n in range(2, 7):
        specs = [ExceptionalSpec(n, *e) for e in exceptional_points(n)]
        for espec in specs:
            for seed in (1, 2, 3):
                point = make_exceptional_point(seed, espec)
                q_theta = point.t ** 2
                for other in specs:
                    if other != espec:
                        tau = other.tau(point.s, point.a, point.v)
                        assert tau ** 2 != q_theta


def test_determinant_vanishes_at_every_exceptional_twist(point):
    for n in (2, 3, 4):
        for (sign, m, e1, e2) in exceptional_points(n):
            espec = ExceptionalSpec(n, sign, m, e1, e2)
            point = make_exceptional_point(1, espec)
            assert exact_det(gram_matrix(ModuleSpec.big(n, point))) == 0


def test_generic_controls_do_not_vanish(points):
    for point in points:
        for n in (2, 3, 4):
            assert exact_det(gram_matrix(ModuleSpec.big(n, point)))


def test_block_structure_and_characters():
    for n in (2, 3, 4):
        for (sign, m, e1, e2) in exceptional_points(n)[:6]:
            espec = ExceptionalSpec(n, sign, m, e1, e2)
            point = make_exceptional_point(2, espec)
            basis = build_b1(ModuleRep(ModuleSpec.big(n, point)))
            pair = detect_invariant(basis, espec)
            d_sub, d_quo = pair.dims
            assert d_sub == irrep_dim(n, m)
            assert d_sub + d_quo == 1 << n
            assert_all_pass(family_relation_audit(pair.sub, point))
            assert_all_pass(family_relation_audit(pair.quo, point))
            x = espec.theta_exponent()
            assert central_character(pair.sub, point, x).is_zero()
            assert central_character(pair.quo, point, x).is_zero()


def test_boundary_block_degeneration():
    # at the twist the right-boundary two-by-two block loses its upper
    # corner and its surviving diagonal entry is exactly s2
    from tl2b.scalars import HalfExponent, OMEGA1
    from tl2b.pathbasis import k_coeff

    espec = ExceptionalSpec(4, 1, 1, 1, 1)
    point = make_exceptional_point(1, espec)
    u = OMEGA1 + HalfExponent.integer(-1)
    assert not k_coeff(-u, point)
    assert k_coeff(u, point) == point.s2


def test_detect_invariant_rejects_generic_point(point):
    basis = build_b1(ModuleRep(ModuleSpec.big(3, point)))
    espec = ExceptionalSpec(3, 1, 0, 1, 1)
    with pytest.raises(ArithmeticError):
        detect_invariant(basis, espec)


def _direct_sum(spec_a, spec_b) -> dict:
    """The generator family of the direct sum, spec_a's block first."""
    fam = {}
    for i in range(spec_a.n_sites + 1):
        ma = generator_matrix(spec_a, i)
        mb = generator_matrix(spec_b, i)
        da, db = ma.nrows, mb.nrows
        rows = [row + [0] * db for row in ma.rows]
        rows += [[0] * da + row for row in mb.rows]
        fam[i] = Matrix(rows)
    return fam


def test_central_character_reports_nonscalar(point):
    # a direct sum of modules with different central scalars is detected:
    # each sum acts by the twist's scalar on its first block, so the offset
    # is nonzero first on the diagonal of the second, not at Z_N's first
    # nonzero entry
    for n, m_a, m_b, where in ((3, 2, 0, (1, 1)), (4, 1, 3, (5, 5))):
        x = ExceptionalSpec(n, 1, m_a, 1, 1).theta_exponent()
        spec_a = ModuleSpec.through_lines(n, m_a, 1, 1, point)
        assert central_character(spec_a.generators, point,
                                 x).is_zero()
        fam = _direct_sum(spec_a,
                          ModuleSpec.through_lines(n, m_b, 1, 1, point))
        assert central_character(fam, point,
                                 x).first_nonzero() == where


def test_explicit_n2_example():
    # the twist with opposite wall signs: the invariant vector in
    # half-diagram coordinates is )( - s1 ((, and the one-dimensional
    # block acts by (0, 0, s2)
    espec = ExceptionalSpec(2, 1, 1, 1, -1)
    point = make_exceptional_point(1, espec)
    assert point.b_for(2) == point.s1
    spec = ModuleSpec.big(2, point)
    basis = build_b1(ModuleRep(spec))
    pair = detect_invariant(basis, espec)
    assert pair.dims == (1, 3)
    assert pair.sub[0].rows == [[0]]
    assert pair.sub[1].rows == [[0]]
    assert pair.sub[2].rows == [[point.s2]]
    [top_path] = pair.sub_paths
    vec = basis.change_of_basis.column(basis.paths.index(top_path))
    labels = [h.pattern for h in enumerate_basis(spec)]
    coeff = {lab: x for lab, x in zip(labels, vec)}
    scale = coeff[")("]
    assert scale
    assert coeff["(("] == -point.s1 * scale
    assert not coeff["))"] and not coeff["()"]
    # and the through-line module with one line realises the same action
    lines = ModuleSpec.through_lines(2, 1, 1, -1, point)
    mats = [generator_matrix(lines, i) for i in range(3)]
    assert mats[0].is_zero() and mats[1].is_zero()
    assert mats[2].rows == [[point.s2]]


def test_trace_engine_detects_difference(point):
    fam_a = {i: generator_matrix(ModuleSpec.big(2, point), i)
             for i in range(3)}
    fam_b = dict(fam_a)
    fam_b[2] = fam_b[2].scale(RAT(2))
    agree, _ = traces_agree_all_words(fam_a, fam_b)
    assert not agree
    assert not random_word_traces_agree(fam_a, fam_b, 32, 6, seed=3)
    agree, words = traces_agree_all_words(fam_a, fam_a)
    assert agree and words >= 4


def test_conjecture_cases_lists():
    assert (1, -1, -1) not in conjecture_cases(2)
    assert (0, 1, 1) in conjecture_cases(3)
    assert all(n % 2 == 1 for (n, _e1, _e2) in conjecture_cases(4))


def test_conjecture_small():
    for n_sites in (2, 3):
        for (n, e1, e2) in conjecture_cases(n_sites):
            report = conjecture_check(n_sites, n, e1, e2, seed=1)
            assert report["verdict"] == "equivalent"
            assert report["dims"]["lines_module"] == irrep_dim(n_sites, n)


def test_murphy_spectrum_match_negative(point):
    spec = ModuleSpec.big(2, point)
    fam = {i: generator_matrix(spec, i) for i in range(3)}
    from tl2b.pathbasis import path_order

    wrong_paths = [path_order(2)[0]]  # too few paths for the dimension
    assert not murphy_spectrum_match(fam, point, wrong_paths)
