from __future__ import annotations

import pytest

from conftest import assert_all_pass
from tl2b import pathbasis
from tl2b._ratback import RAT
from tl2b.linalg import Matrix, _extend_span, exact_det
from tl2b.scalars import (HalfExponent, OMEGA1, OMEGA2, ONE, ParamPoint,
                          make_param_point)
from tl2b.pathbasis import (BasisB1, ModuleRep, action_audit_b1,
                            addable_tiles,
                            all_paths, apply_tile, build_b1,
                            exceptional_points, fixed_height_gram,
                            fundamental_path, gram_closed_form,
                            gram_closed_form_halfdiagram,
                            gram_closed_form_report, gram_diag_b1,
                            gram_normalization_exponent,
                            idempotent_identities, idempotent_image, k_coeff,
                            kbar_coeff, murphy_audit_b1,
                            murphy_eigenvalue, path_order, path_weight,
                            r_coeff, removable_tiles, tile_generators,
                            tile_multiset, tile_order_independence,
                            unapply_tile, ybe_audit)
from tl2b.wordrep import ModuleSpec, gram_matrix, irrep_dim


@pytest.fixture(scope="module")
def rep3(point):
    return ModuleRep(ModuleSpec.big(3, point))


@pytest.fixture(scope="module")
def basis3(rep3):
    return build_b1(rep3)


def test_r_at_one_is_delta(point):
    assert r_coeff(ONE, point) == point.delta


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
                assert tile.from_above == (tile.shoulder >= 0)
                assert tile_multiset(q) == tuple(sorted(
                    tile_multiset(p) + (tile,)))
            for tile in removable_tiles(p):
                assert tile in addable_tiles(unapply_tile(p, tile))


def test_each_tile_coefficient_is_evaluated_once_per_point(point,
                                                           monkeypatch):
    calls = []
    for name in ("r_coeff", "k_coeff"):
        def counted(u, pt, exact=getattr(pathbasis, name)):
            calls.append(u)
            return exact(u, pt)

        monkeypatch.setattr(pathbasis, name, counted)
    pathbasis._tile_coeffs.cache_clear()
    basis = build_b1(ModuleRep(ModuleSpec.big(6, point)))
    tile_generators(basis.paths, point)
    gram_diag_b1(basis)
    distinct = {(t.boundary, t.shoulder)
                for p in basis.paths for t in tile_multiset(p)}
    assert len(calls) <= 2 * len(distinct)


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


def _vector(basis, path):
    """b_p, the column of the change of basis at ``path``."""
    return basis.change_of_basis.column(basis.paths.index(path))


def _with_columns(basis, cols):
    """``basis`` with its change of basis replaced by ``cols``."""
    return BasisB1(basis.rep, basis.paths, Matrix.from_columns(cols))


def _regrown_order_independence(basis):
    """Every removable tile of every path yields the same vector, decided
    by growing each vector again from its predecessor."""
    for path in basis.paths:
        for tile in removable_tiles(path):
            prev = _vector(basis, unapply_tile(path, tile))
            vec = _add_tile(basis.rep, tile, prev)
            if vec != _vector(basis, path):
                return False
    return True


def _add_tile(rep, tile, vec):
    """(E_i - c) vec, c = r(+-u) or k(+-u) with u = w1 - h, the sign + when
    the shoulder h is nonnegative."""
    u = OMEGA1 + HalfExponent.integer(-tile.shoulder)
    u = u if tile.shoulder >= 0 else -u
    c = (k_coeff if tile.boundary else r_coeff)(u, rep.point)
    return [y - c * x for x, y in zip(vec, rep.apply_e(tile.position, vec))]


def _altered(basis, k):
    """``basis`` with column k of its change of basis doubled."""
    cols = [_vector(basis, p) for p in basis.paths]
    cols[k] = [2 * x for x in cols[k]]
    return _with_columns(basis, cols)


#: (n, kind, argument) of the bases both order-independence checks decide:
#: point seeds, critical twists by their index in ``exceptional_points``,
#: and the symbolic point
ORACLE_CASES = ([(n, "seed", seed) for seed in (1, 2) for n in range(2, 7)]
                + [(n, "critical", k) for n in (3, 4) for k in range(4)]
                + [(3, "symbolic", None)])


def _oracle_point(n, kind, arg):
    from tl2b.irreps import ExceptionalSpec, make_exceptional_point
    from tl2b.symbolic import SymbolicPoint

    if kind == "seed":
        return make_param_point(arg)
    if kind == "critical":
        twist = exceptional_points(n)[arg]
        return make_exceptional_point(1, ExceptionalSpec(n, *twist))
    return SymbolicPoint()


@pytest.mark.parametrize("n, kind, arg", ORACLE_CASES)
def test_order_independence_agrees_with_regrowing_every_vector(n, kind, arg):
    basis = build_b1(ModuleRep(ModuleSpec.big(n, _oracle_point(n, kind, arg))))
    assert tile_order_independence(basis)
    assert _regrown_order_independence(basis)


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 2)])
def test_order_independence_fails_with_one_column_altered(n, seed):
    basis = build_b1(ModuleRep(ModuleSpec.big(n, make_param_point(seed))))
    for k in range(len(basis.paths)):
        altered = _altered(basis, k)
        assert not tile_order_independence(altered), k
        assert not _regrown_order_independence(altered), k


def test_sample_path_tile_word(point):
    # a length-six sample path equals its tile word applied to the start
    rep = ModuleRep(ModuleSpec.big(6, point))
    basis = build_b1(rep)
    fund = _vector(basis, fundamental_path(6))
    vec = rep.apply_k(-(OMEGA1 + ONE), fund)
    vec = rep.apply_r(4, -(OMEGA1 + ONE), vec)
    vec = rep.apply_r(5, -(OMEGA1 + HalfExponent.integer(2)), vec)
    vec = rep.apply_r(1, OMEGA1, vec)
    assert vec == _vector(basis, (0, 1, 0, -1, -2, -3, -2))


def test_action_audit(basis3):
    assert_all_pass(action_audit_b1(basis3))


def test_murphy_audit(basis3):
    assert_all_pass(murphy_audit_b1(basis3))


def _assert_tile_generators_transport(basis):
    gens = tile_generators(basis.paths, basis.point)
    assert len(gens) == basis.n_sites + 1
    for i, gen in enumerate(gens):
        assert all(sum(1 for x in gen.column(k) if x) <= 2
                   for k in range(gen.ncols))
        assert gen == basis.generator_in_coordinates(i), i


@pytest.mark.parametrize("n", range(2, 7))
def test_tile_generators_equal_the_transported_generators(point, n):
    # the tile rule against B^-1 E_i B, at a generic and an explicit twist
    explicit = ParamPoint(point.s, point.a, point.v, RAT(3, 7),
                          theta_mode="explicit")
    for pt in (point, explicit):
        _assert_tile_generators_transport(build_b1(ModuleRep(
            ModuleSpec.big(n, pt))))


def test_tile_generators_on_the_symbolic_backend():
    from tl2b.symbolic import SymbolicPoint

    _assert_tile_generators_transport(build_b1(ModuleRep(
        ModuleSpec.big(2, SymbolicPoint()))))


def _murphy_statuses(records) -> dict:
    """The b1.murphy.{m}.{path} records, by id."""
    return {r["identity_id"]: r["status"] for r in records
            if r["identity_id"].split(".")[2].isdigit()}


def _murphy_reference(basis) -> dict:
    """The same records, each decided by J_m b_p in canonical coordinates."""
    out = {}
    for path in basis.paths:
        vec = _vector(basis, path)
        for m in range(basis.n_sites):
            lam = pathbasis.murphy_eigenvalue(basis.point, m, path)
            ok = basis.rep.apply_murphy_b(m, vec) == [lam * x for x in vec]
            name = ",".join(map(str, path))
            out[f"b1.murphy.{m}.{name}"] = "pass" if ok else "fail"
    return out


def test_murphy_audit_decides_in_path_coordinates(point, monkeypatch):
    basis = build_b1(ModuleRep(ModuleSpec.big(4, point)))

    def canonical(*_args):
        raise AssertionError("a record fell back to canonical coordinates")

    monkeypatch.setattr(ModuleRep, "apply_murphy_b", canonical)
    assert_all_pass(murphy_audit_b1(basis))


def test_murphy_verdicts_match_the_canonical_check_on_a_corrupt_basis(point):
    basis = build_b1(ModuleRep(ModuleSpec.big(4, point)))
    cols = [_vector(basis, p) for p in basis.paths]
    cols[5] = [x + y for x, y in zip(cols[5], cols[6])]
    corrupt = _with_columns(basis, cols)
    assert any(r["status"] == "fail" for r in action_audit_b1(corrupt))
    statuses = _murphy_statuses(murphy_audit_b1(corrupt))
    assert "fail" in statuses.values()
    assert statuses == _murphy_reference(corrupt)


def test_a_wrong_murphy_eigenvalue_fails_both_ways(point, monkeypatch):
    basis = build_b1(ModuleRep(ModuleSpec.big(4, point)))
    target = basis.paths[7]
    exact = pathbasis.murphy_eigenvalue

    def wrong(pt, index, path):
        lam = exact(pt, index, path)
        return 2 * lam if (index, path) == (1, target) else lam

    monkeypatch.setattr(pathbasis, "murphy_eigenvalue", wrong)
    statuses = _murphy_statuses(murphy_audit_b1(basis))
    assert statuses == _murphy_reference(basis)
    name = ",".join(map(str, target))
    assert [k for k, v in statuses.items() if v == "fail"] == [
        f"b1.murphy.1.{name}"]


def test_murphy_product_example(point):
    # length-four path returning to zero: the product of all eigenvalues
    path = (0, 1, 2, 1, 0)
    prod = point.one
    for m in range(4):
        prod = prod * murphy_eigenvalue(point, m, path)
    assert prod == point.q_power(HalfExponent.integer(-4))


def test_ybe_audit(point):
    for n in (2, 3, 4):
        assert_all_pass(ybe_audit(ModuleRep(ModuleSpec.big(n, point))))


def test_idempotent_identities(point):
    for n in (2, 3, 4, 5):
        assert_all_pass(idempotent_identities(ModuleRep(ModuleSpec.big(n, point))))


def _sparse(vec):
    """The nonzero entries of ``vec`` as backend rationals, by index."""
    return {j: RAT(x) for j, x in enumerate(vec) if x}


def test_uni_triangular_against_word_filtration(point):
    # every basis vector equals its bare tile word on the start vector,
    # up to strictly shorter generator words
    for n in (2, 3, 4):
        rep = ModuleRep(ModuleSpec.big(n, point))
        basis = build_b1(rep)
        fund = _vector(basis, fundamental_path(n))
        span = {}
        _extend_span(span, _sparse(fund))
        max_weight = max(path_weight(p) for p in basis.paths)
        frontier = [list(fund)]
        spans = [dict(span)]
        for _ in range(max_weight):
            new_frontier = []
            for vec in frontier:
                for i in range(n + 1):
                    image = rep.apply_e(i, vec)
                    if _extend_span(span, _sparse(image)):
                        new_frontier.append(image)
            frontier = new_frontier
            spans.append(dict(span))
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
            diff = [x - y for x, y in zip(_vector(basis, path), word_vec)]
            assert not _extend_span(spans[w - 1], _sparse(diff)), \
                f"difference for {path} leaves the shorter-word span"


def test_gram_diagonal_via_transport(point):
    for n in (2, 3, 4, 5):
        spec = ModuleSpec.big(n, point)
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
        for n in (2, 3, 4, 5):
            basis = build_b1(ModuleRep(ModuleSpec.big(n, point)))
            diag = gram_diag_b1(basis)
            prod = point.one
            for p in basis.paths:
                prod = prod * diag[p]
            assert prod == gram_closed_form(n, point)


def test_brute_force_matches_closed_form_with_normalization(points):
    for point in points:
        for n in (2, 3, 4):
            spec = ModuleSpec.big(n, point)
            brute = exact_det(gram_matrix(spec))
            assert brute == gram_closed_form_halfdiagram(n, point)
            exponent = gram_normalization_exponent(n)
            assert brute == gram_closed_form(n, point) * point.s1 ** exponent


def test_determinant_t_dependence_matches_oracle(point):
    # the twist-dependent part of the determinant is identical in both
    # normalisations, so ratios at two twists agree with the closed form
    from tl2b._ratback import RAT
    from tl2b.scalars import ParamPoint

    n = 3
    values = []
    for t in (RAT(3, 7), RAT(11, 5)):
        pt = ParamPoint(point.s, point.a, point.v, t, theta_mode="explicit")
        brute = exact_det(gram_matrix(ModuleSpec.big(n, pt)))
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


def test_fixed_height_gram_matches_blocks(point):
    for n in (3, 4):
        spec = ModuleSpec.big(n, point)
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


@pytest.mark.parametrize("n", range(2, 8))
def test_each_critical_twist_zeroes_one_gram_factor(n):
    from tl2b.irreps import ExceptionalSpec, make_exceptional_point

    twists = exceptional_points(n)
    assert len(twists) == 4 * n
    for sign, m, e1, e2 in twists:
        point = make_exceptional_point(1, ExceptionalSpec(n, sign, m, e1, e2))
        zeros = [item["exponent"]
                 for item in gram_closed_form_report(n, point)[1:]
                 if not item["value"]]
        # th = sign*(-m + e1*w1 + e2*w2) makes m - e1*w1 - e2*w2 + sign*th
        # vanish; for m = 0 the table holds that exponent negated (+w1)
        assert zeros in ([HalfExponent(m, -e1, -e2, sign)],
                         [HalfExponent(-m, e1, e2, -sign)]), (sign, m, e1, e2)


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
    assert (pathbasis._tile_factor(point, False, 2)
            == r_coeff(u, point) * r_coeff(-u, point))
    assert (pathbasis._tile_factor(point, True, 2)
            == k_coeff(u, point) * k_coeff(-u, point))
    kbar_coeff(OMEGA2, point)  # defined and finite at a generic point


def test_pole_arguments_rejected(point):
    import pytest as _pytest

    from tl2b.scalars import SingularArgumentError, ZERO_EXP

    with _pytest.raises(SingularArgumentError):
        r_coeff(ZERO_EXP, point)
    with _pytest.raises(SingularArgumentError):
        k_coeff(ZERO_EXP, point)
