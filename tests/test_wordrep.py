from __future__ import annotations

from itertools import product

import pytest

from conftest import assert_all_pass, diagram_matrix
from tl2b.diagrams import FullDiagram, HalfDiagram, compose, word_to_element
from tl2b.irreps import conjecture_cases
from tl2b.linalg import exact_det
from tl2b.symbolic import SymbolicPoint
from tl2b.wordrep import (ModuleSpec, ballot, enumerate_basis,
                          generator_matrix, gram_matrix, idempotent_words,
                          irrep_dim, relation_audit, word_product)


def test_ballot_values():
    assert ballot(2, 0) == 2
    assert ballot(4, 2) == 4
    assert ballot(3, 2) == 0  # parity
    assert ballot(2, 4) == 0
    assert ballot(4, -2) == ballot(4, 2)


def test_no_boundary_count_matches_enumeration():
    # sequences over () with n through lines and no wall connections
    count = 0
    for h in _all_halves(4):
        if h.n_left == 0 and h.n_right == 0 and h.n_through == 0:
            count += 1
    assert count == ballot(4, 0) - ballot(4, 2) == 2


def _all_halves(n):
    from itertools import product

    from tl2b.diagrams import InvalidDiagramError

    for chars in product(")(|", repeat=n):
        try:
            yield HalfDiagram("".join(chars))
        except InvalidDiagramError:
            continue


def test_irrep_dims():
    assert irrep_dim(3, 0) == 4
    assert irrep_dim(2, 1) == 1
    assert irrep_dim(5, 1) + irrep_dim(5, 3) == irrep_dim(6, 2)
    for m in (3, 5, 7, 9):
        assert irrep_dim(m, 0) == 1 << (m - 1)


def test_dimension_tables(point):
    for n in range(2, 11):
        start = 1 if n % 2 == 0 else 0
        for nn in range(start, n + 1, 2):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    if not 1 <= nn + (e1 + e2) // 2 <= n:
                        continue
                    if nn == 0 and (e1, e2) != (1, 1):
                        continue
                    spec = ModuleSpec.through_lines(n, nn, e1, e2, point)
                    assert len(enumerate_basis(spec)) == irrep_dim(n, nn)
        big = ModuleSpec.big(n, point)
        assert len(enumerate_basis(big)) == 1 << n


def test_explicit_small_bases(point):
    big2 = ModuleSpec.big(2, point)
    assert [str(h) for h in enumerate_basis(big2)] == ["))", ")(*", "()", "(("]
    lines = ModuleSpec.through_lines(3, 0, 1, 1, point)
    assert [h.pattern for h in enumerate_basis(lines)] == \
        ["))|", "()|", "|()", "|(("]
    assert len(enumerate_basis(ModuleSpec.big(3, point))) == 8


def test_inner_product_examples(point):
    spec = ModuleSpec.through_lines(4, 1, 1, 1, point)
    index = {h.pattern: k for k, h in enumerate(spec.basis)}
    g = gram_matrix(spec)

    def form(x, y):
        return g[index[x], index[y]]

    assert form("|()|", "()||") == 1
    assert form("()||", "()||") == point.delta
    assert form("||()", "()||") == 0


def test_explicit_gram_matrix_n2(point):
    spec = ModuleSpec.big(2, point)
    basis = enumerate_basis(spec)
    index = {h.pattern: k for k, h in enumerate(basis)}
    order = [index["()"], index["))"], index["(("], index[")("]]
    g = gram_matrix(spec)
    b, d, s1, s2 = spec.b, point.delta, point.s1, point.s2
    expected = [[d, 1, 1, b],
                [1, s1, b, s1 * b],
                [1, b, s2, s2 * b],
                [b, s1 * b, s2 * b, s1 * s2 * b]]
    for i, ei in enumerate(order):
        for j, ej in enumerate(order):
            assert g.rows[ei][ej] == expected[i][j]
    det = exact_det(g)
    assert det == b * (b - s1) * (b - s2) * (b - s1 - s2 + d * s1 * s2)


def _pairing(x: HalfDiagram, y: HalfDiagram, big: bool):
    """``(weight, b exponent)`` of the pairing of x and y, or None for zero.

    Zero whenever the closure is not proportional to the required shape
    (through-line loss).  In the 2^N module each half-diagram brings its
    own horizontal line; the pair as a whole trades max(fx, fy) plus half
    the freshly closed horizontal lines for powers of b, which stays
    division-free even where b vanishes.
    """
    fx, fy = int(x.hline), int(y.hline)
    out = compose(FullDiagram(x.pattern, x.pattern, 2 * fx),
                  FullDiagram(y.pattern, y.pattern, 2 * fy))
    if not big:
        if out.shape != (x.pattern, y.pattern, 0):
            return None
        return out.weight, 0
    born = out.hlines - 2 * fx - 2 * fy
    return out.weight, max(fx, fy) + born // 2


def _assert_form_matches_pairing(spec):
    """Every entry of ``gram_matrix``, zeros included, against the
    closed-pairing rule ``_pairing``."""
    g = gram_matrix(spec).rows
    for i, x in enumerate(spec.basis):
        for j, y in enumerate(spec.basis):
            key = _pairing(x, y, spec.kind == "big")
            expect = spec.point.zero if key is None else spec.weigh(*key)
            assert g[i][j] == expect, (spec.n_sites, x, y)


def _modules(n_sites, point):
    """The 2^N module and every through-line module of the critical labels."""
    return [ModuleSpec.big(n_sites, point)] + [
        ModuleSpec.through_lines(n_sites, n, e1, e2, point)
        for n, e1, e2 in conjecture_cases(n_sites)]


@pytest.mark.parametrize("n_sites", (2, 3, 4, 5))
def test_gram_form_is_the_closed_pairing(any_point, n_sites):
    for spec in _modules(n_sites, any_point):
        _assert_form_matches_pairing(spec)


def test_symbolic_gram_form_is_the_closed_pairing():
    for spec in _modules(2, SymbolicPoint()):
        _assert_form_matches_pairing(spec)


def test_gram_symmetric_and_intertwining(point):
    for spec in (ModuleSpec.big(3, point),
                 ModuleSpec.through_lines(4, 1, 1, -1, point),
                 ModuleSpec.through_lines(3, 0, 1, 1, point)):
        g = gram_matrix(spec)
        assert g == g.transpose()
        for i in range(spec.n_sites + 1):
            e = generator_matrix(spec, i)
            assert g @ e == e.transpose() @ g


def test_lines_module_gram_nondegenerate(point):
    spec = ModuleSpec.through_lines(3, 0, 1, 1, point)
    assert exact_det(gram_matrix(spec))


def test_relation_audit_passes(point):
    for n in (2, 3, 4, 5):
        assert_all_pass(relation_audit(ModuleSpec.big(n, point)))
    assert_all_pass(relation_audit(ModuleSpec.through_lines(4, 1, -1, 1, point)))


def test_relation_audit_negative_control(point):
    # an e_N built by the composition rules squares to the true s2, not to
    # a corrupted one
    spec = ModuleSpec.big(3, point)
    e_n = generator_matrix(spec, 3)
    assert (e_n @ e_n - e_n.scale(point.s2)).is_zero()
    assert not (e_n @ e_n - e_n.scale(point.s2 + 1)).is_zero()


def test_centre_scalar_negative_control(point):
    # tying the wrong horizontal-line weight to the twist breaks the
    # central scalar, which is the only place the tie is observable
    from tl2b.hecke import centre_audit, lift_to_hecke, murphy

    spec = ModuleSpec(3, "big", point, b=point.b_for(3) + 1)
    records = centre_audit(spec, murphy("C", lift_to_hecke(spec)))
    bad = {r["identity_id"] for r in records if r["status"] == "fail"}
    assert "centre.scalar" in bad


def test_idempotent_annihilation_on_lines_modules(point):
    for n, nn, e1, e2 in [(3, 2, 1, 1), (4, 1, 1, -1), (5, 2, -1, -1)]:
        spec = ModuleSpec.through_lines(n, nn, e1, e2, point)
        w1, w2 = idempotent_words(n)
        assert word_product(spec.generators, w1).is_zero()
        assert word_product(spec.generators, w2).is_zero()


@pytest.mark.parametrize("n_sites", (2, 3, 4))
def test_word_diagrams_act_on_through_line_modules_as_products(point,
                                                                n_sites):
    # every word of length 1 to 3, on every module with a through line
    words = [w for k in (1, 2, 3)
             for w in product(range(n_sites + 1), repeat=k)]
    for n, e1, e2 in conjecture_cases(n_sites):
        spec = ModuleSpec.through_lines(n_sites, n, e1, e2, point)
        for w in words:
            d = word_to_element(w, n_sites)
            assert (diagram_matrix(d, spec)
                    == word_product(spec.generators, w)), (n, e1, e2, w)


def test_generator_matrix_example(point):
    spec = ModuleSpec.big(2, point)
    basis = enumerate_basis(spec)
    col = {h.pattern: k for k, h in enumerate(basis)}[")("]
    e0 = generator_matrix(spec, 0)
    assert e0.rows[col][col] == point.s1


def test_invalid_module_specs(point):
    with pytest.raises(ValueError):
        ModuleSpec.through_lines(3, 1, 1, 1, point)  # wrong parity
    with pytest.raises(ValueError):
        ModuleSpec.through_lines(2, 1, -1, -1, point)  # no through lines
    with pytest.raises(ValueError):
        ModuleSpec.through_lines(3, 2, 1, 2, point)
