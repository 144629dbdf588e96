from __future__ import annotations

import pytest

from conftest import assert_all_pass
from tl2b.linalg import exact_det
from tl2b.scalars import HalfExponent, OMEGA1, OMEGA2, ONE
from tl2b.pathbasis import (ModuleRep, action_audit_b1, addable_tiles,
                            all_paths, apply_tile, build_b1,
                            exceptional_points, f_factor, fixed_height_gram,
                            fundamental_path, g_factor, gram_closed_form,
                            gram_closed_form_halfdiagram, gram_diag_b1,
                            gram_normalization_exponent,
                            idempotent_identities, idempotent_image, k_coeff,
                            kbar_coeff, murphy_audit_b1,
                            murphy_eigenvalue, path_order, path_weight,
                            r_coeff, removable_tiles, tile_multiset,
                            tile_order_independence, unapply_tile, ybe_audit)
from tl2b.wordrep import ModuleSpec, gram_matrix, irrep_dim


@pytest.fixture(scope="module")
def rep3(params):
    return ModuleRep(ModuleSpec.big(3, params))


@pytest.fixture(scope="module")
def basis3(rep3):
    return build_b1(rep3)


def test_r_at_one_is_delta(point, params):
    assert r_coeff(ONE, point) == params.delta


def test_k_vanishing_at_exceptional_twist():
    from tl2b.irreps import ExceptionalSpec, make_exceptional_point

    espec = ExceptionalSpec(4, 1, 1, 1, 1)  # th = -1 + w1 + w2
    point = make_exceptional_point(1, espec)
    u = -OMEGA1 + HalfExponent.integer(1)
    assert not k_coeff(u, point)


def test_half_argument_rejected(point):
    with pytest.raises(ValueError):
        k_coeff(HalfExponent(1, 0, 0, 0), point)


def test_tile_moves_roundtrip():
    for n in (2, 3, 4, 5, 6):
        paths = all_paths(n)
        assert len(paths) == 1 << n
        assert len(path_order(n)) == 1 << n
        assert not removable_tiles(fundamental_path(n))
        for p in paths:
            for tile in addable_tiles(p):
                q = apply_tile(p, tile)
                assert unapply_tile(q, tile) == p
                assert tile in removable_tiles(q)
                assert tile_multiset(q) == tuple(sorted(
                    tile_multiset(p) + ((tile.position, tile.shoulder,
                                         tile.boundary),)))
            for tile in removable_tiles(p):
                assert tile in addable_tiles(unapply_tile(p, tile))


def test_every_path_reachable():
    for n in (2, 3, 4, 5, 6, 7, 8):
        assert sorted(path_order(n)) == sorted(all_paths(n))
        assert path_weight(fundamental_path(n)) == 0


def test_fundamental_vector_is_idempotent_image(rep3):
    fund, e_mat = idempotent_image(rep3)
    assert (e_mat @ e_mat - e_mat).is_zero()
    image = e_mat.apply(fund)
    assert image == fund


def test_order_independence(basis3):
    assert tile_order_independence(basis3)


def test_sample_path_tile_word(params):
    # a length-six sample path equals its tile word applied to the start
    rep = ModuleRep(ModuleSpec.big(6, params))
    basis = build_b1(rep)
    fund = basis.vectors[fundamental_path(6)]
    vec = rep.apply_k(-(OMEGA1 + ONE), fund)
    vec = rep.apply_r(4, -(OMEGA1 + ONE), vec)
    vec = rep.apply_r(5, -(OMEGA1 + HalfExponent.integer(2)), vec)
    vec = rep.apply_r(1, OMEGA1, vec)
    assert vec == basis.vectors[(0, 1, 0, -1, -2, -3, -2)]


def test_action_audit(basis3):
    assert_all_pass(action_audit_b1(basis3))


def test_murphy_audit(basis3):
    assert_all_pass(murphy_audit_b1(basis3))


def test_murphy_product_example(params, point):
    # length-four path returning to zero: the product of all eigenvalues
    path = (0, 1, 2, 1, 0)
    prod = point.one
    for m in range(4):
        prod = prod * murphy_eigenvalue(point, m, path)
    assert prod == point.q_power(HalfExponent.integer(-4))


def test_ybe_audit(params):
    for n in (2, 3, 4):
        assert_all_pass(ybe_audit(ModuleRep(ModuleSpec.big(n, params))))


def test_idempotent_identities(params):
    for n in (2, 3, 4, 5):
        assert_all_pass(idempotent_identities(ModuleRep(ModuleSpec.big(n, params))))


def test_uni_triangular_against_word_filtration(params):
    # every basis vector equals its bare tile word on the start vector,
    # up to strictly shorter generator words
    from tl2b.irreps import _Span

    for n in (2, 3, 4):
        rep = ModuleRep(ModuleSpec.big(n, params))
        basis = build_b1(rep)
        fund = basis.vectors[fundamental_path(n)]
        span = _Span(rep.dim)
        span.add(list(fund))
        max_weight = max(path_weight(p) for p in basis.paths)
        frontier = [list(fund)]
        spans = [_copy_span(span)]
        for _ in range(max_weight):
            new_frontier = []
            for vec in frontier:
                for i in range(n + 1):
                    image = rep.apply_e(i, vec)
                    if span.add(list(image)):
                        new_frontier.append(image)
            frontier = new_frontier
            spans.append(_copy_span(span))
        for path in basis.paths:
            w = path_weight(path)
            if w == 0:
                continue
            seq = []
            cur = path
            while cur != fundamental_path(n):
                tile = removable_tiles(cur)[0]
                seq.append(tile)
                cur = unapply_tile(cur, tile)
            word_vec = list(fund)
            for tile in reversed(seq):
                word_vec = rep.apply_e(tile.position, word_vec)
            diff = [x - y for x, y in zip(basis.vectors[path], word_vec)]
            assert not spans[w - 1].add(list(diff)), \
                f"difference for {path} leaves the shorter-word span"


def _copy_span(span):
    from tl2b.irreps import _Span

    out = _Span(span.width)
    out.rows = [row[:] for row in span.rows]
    out.pivots = list(span.pivots)
    return out


def test_gram_diagonal_via_transport(params):
    for n in (2, 3, 4, 5):
        spec = ModuleSpec.big(n, params)
        basis = build_b1(ModuleRep(spec))
        g = gram_matrix(spec)
        transported = basis.change_of_basis.transpose() @ g @ basis.change_of_basis
        diag = gram_diag_b1(basis)
        kappa = transported.rows[0][0]
        assert kappa
        for i, p in enumerate(basis.paths):
            for j, q in enumerate(basis.paths):
                expected = kappa * diag[p] if i == j else 0
                assert transported.rows[i][j] == expected


def test_closed_form_equals_tile_product(points):
    for point in points:
        from tl2b.scalars import derive_params

        params = derive_params(point)
        for n in (2, 3, 4, 5):
            basis = build_b1(ModuleRep(ModuleSpec.big(n, params)))
            diag = gram_diag_b1(basis)
            prod = point.one
            for p in basis.paths:
                prod = prod * diag[p]
            assert prod == gram_closed_form(n, point)


def test_brute_force_matches_closed_form_with_normalization(points):
    from tl2b.scalars import derive_params

    for point in points:
        params = derive_params(point)
        for n in (2, 3, 4):
            spec = ModuleSpec.big(n, params)
            brute = exact_det(gram_matrix(spec))
            assert brute == gram_closed_form_halfdiagram(n, point, params.s1)
            exponent = gram_normalization_exponent(n)
            assert brute == gram_closed_form(n, point) * params.s1 ** exponent


def test_determinant_t_dependence_matches_oracle(params, point):
    # the twist-dependent part of the determinant is identical in both
    # normalisations, so ratios at two twists agree with the closed form
    from tl2b._ratback import RAT
    from tl2b.scalars import ParamPoint, derive_params

    n = 3
    values = []
    for t in (RAT(3, 7), RAT(11, 5)):
        pt = ParamPoint(point.s, point.a, point.v, t, theta_mode="explicit")
        pr = derive_params(pt)
        brute = exact_det(gram_matrix(ModuleSpec.big(n, pr)))
        values.append((brute, gram_closed_form(n, pt)))
    (b1, c1), (b2, c2) = values
    assert b1 * c2 == b2 * c1


def test_tile_count_identity(point):
    # number of paths containing a cell at (i, h) is 2^(N-i) M_i(h)
    n = 5
    counts = {}
    for p in all_paths(n):
        for (pos, shoulder, boundary) in tile_multiset(p):
            if not boundary:
                counts[(pos, shoulder)] = counts.get((pos, shoulder), 0) + 1
    for (pos, shoulder), count in counts.items():
        assert count == (1 << (n - pos)) * irrep_dim(pos, shoulder)


def test_prefactor_exponent_is_boundary_tile_count():
    for n in (2, 3, 4, 5):
        total = 0
        for p in all_paths(n):
            total += sum(1 for (_i, _h, boundary) in tile_multiset(p)
                         if boundary)
        assert gram_normalization_exponent(n) == 2 * total


def test_fixed_height_gram_matches_blocks(params, point):
    for n in (3, 4):
        spec = ModuleSpec.big(n, params)
        basis = build_b1(ModuleRep(spec))
        g = gram_matrix(spec)
        transported = basis.change_of_basis.transpose() @ g @ basis.change_of_basis
        for h_n in range(-n, n + 1):
            if (n - h_n) % 2:
                continue
            idx = [i for i, p in enumerate(basis.paths) if p[-1] == h_n]
            block = transported.submatrix(idx, idx)
            cls = [basis.paths[i] for i in idx]
            lowest = tuple(min(p[k] for p in cls) for k in range(n + 1))
            low = cls.index(lowest)
            normalized = exact_det(block) / block.rows[low][low] ** len(idx)
            assert normalized == fixed_height_gram(n, h_n, point)
    with pytest.raises(ValueError):
        fixed_height_gram(4, 3, point)


def test_single_path_class_trivial(point):
    assert fixed_height_gram(4, 4, point) == 1
    assert fixed_height_gram(5, -5, point) == 1


def test_exceptional_point_lists():
    # chain of length 2: twists +-(1 -+ w1 -+ w2), eight in total
    points2 = exceptional_points(2)
    assert len(points2) == 8
    assert all(m == 1 for (_s, m, _e1, _e2) in points2)
    points3 = exceptional_points(3)
    assert len(points3) == 12
    assert {m for (_s, m, _e1, _e2) in points3} == {0, 2}
    assert all(e1 == 1 for (_s, m, e1, _e2) in points3 if m == 0)


def test_determinant_swap_symmetries(point):
    # the factor product (prefactor aside) is symmetric in w1 <-> w2 and
    # in w2 <-> twist
    from tl2b.scalars import ParamPoint

    for n in (2, 3, 4):
        def factors_product(pt):
            from tl2b.pathbasis import gram_closed_form_report

            prod = pt.one
            for item in gram_closed_form_report(n, pt):
                if "prefactor_base" not in item:
                    prod = prod * item["value"] ** item["mult"]
            return prod

        swapped_vt = ParamPoint(point.s, point.a, point.t, point.v)
        swapped_av = ParamPoint(point.s, point.v, point.a, point.t)
        base = factors_product(point)
        assert base == factors_product(swapped_vt)
        assert base == factors_product(swapped_av)


def test_f_g_factors(point):
    u = OMEGA1 + HalfExponent.integer(-2)
    assert f_factor(2, point) == r_coeff(u, point) * r_coeff(-u, point)
    assert g_factor(2, point) == k_coeff(u, point) * k_coeff(-u, point)
    kbar_coeff(OMEGA2, point)  # defined and finite at a generic point


def test_pole_arguments_rejected(point):
    import pytest as _pytest

    from tl2b.scalars import SingularArgumentError, ZERO_EXP

    with _pytest.raises(SingularArgumentError):
        r_coeff(ZERO_EXP, point)
    with _pytest.raises(SingularArgumentError):
        k_coeff(ZERO_EXP, point)
