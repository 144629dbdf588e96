from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_all_pass
from tl2b._ratback import RAT
from tl2b import pathbasis, spinchain
from tl2b.linalg import Matrix
from tl2b.pathbasis import ModuleRep, build_b1
from tl2b.scalars import OMEGA1, OMEGA2, ONE, THETA
from tl2b.spinchain import (SpinRep, ebar, ebar_identities, equivalence_audit,
                            spin_generator, spin_relation_audit,
                            spin_vector_to_json, twist_symmetry_audit)
from tl2b.wordrep import ModuleSpec, word_product


def _unit(dim, j):
    out = [0] * dim
    out[j] = 1
    return out


def test_bulk_local_action(point):
    # two-site blocks: the projector form, with aligned pairs annihilated
    rep = SpinRep(2, point)
    q = point.q_power(ONE)
    up_down = 0b10
    down_up = 0b01
    image = rep.apply_e(1, _unit(4, up_down))
    assert image[up_down] == 1 / q and image[down_up] == -1
    image = rep.apply_e(1, _unit(4, down_up))
    assert image[down_up] == q and image[up_down] == -1
    assert not any(rep.apply_e(1, _unit(4, 0b11)))
    assert not any(rep.apply_e(1, _unit(4, 0b00)))


def test_boundary_local_action(point, params):
    rep = SpinRep(1, point)
    e0 = spin_generator(0, 1, point)
    assert e0.rows[1][1] + e0.rows[0][0] == params.s1  # trace
    e1 = spin_generator(1, 1, point)
    assert e1.rows[1][1] + e1.rows[0][0] == params.s2
    # the twist enters only the right boundary off-diagonal entries
    up, down = 1, 0
    d2 = point.q_power(ONE + OMEGA2) - point.q_power(-(ONE + OMEGA2))
    assert e1.rows[down][up] == point.q_power(-THETA) / d2


def test_relations(points):
    from tl2b.scalars import derive_params

    for point in points:
        params = derive_params(point)
        for n in (2, 3, 4, 5):
            assert_all_pass(spin_relation_audit(n, point, params))


def test_twist_symmetry(point):
    for n in (2, 3, 4):
        assert_all_pass(twist_symmetry_audit(n, point))


def test_dense_equals_local(point):
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        rep = SpinRep(n, point)
        for i in (0, 1, n - 1, n):
            dense = rep.e_matrix(i)
            vec = [RAT(rng.randrange(-9, 10), rng.randrange(1, 7))
                   for _ in range(rep.dim)]
            assert dense.apply(vec) == rep.apply_e(i, vec)


def test_ebar_shape(point):
    vec1 = ebar(1, point)
    # single site: q^-w1 on up, 1 on down
    assert vec1[1] == point.q_power(-OMEGA1) and vec1[0] == 1
    vec2 = ebar(2, point)
    assert vec2[0b11] == point.q_power(-OMEGA1) * point.q_power(ONE + OMEGA1)
    assert vec2[0b00] == 1


def test_ebar_identities(points):
    from tl2b.scalars import derive_params

    for point in points:
        params = derive_params(point)
        for n in (2, 3, 4, 5):
            assert_all_pass(ebar_identities(n, point, params))


def test_ebar_identities_form_no_matrix_product(monkeypatch, point, params):
    calls = []
    original = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.nrows, other.ncols))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert_all_pass(ebar_identities(4, point, params))
    assert calls == []


def test_spin_generators_are_built_once(point):
    rep = SpinRep(3, point)
    assert all(rep.e_matrix(i) is rep.e_matrix(i) for i in range(4))


def test_equivalence(params, point):
    for n in (2, 3, 4):
        assert_all_pass(equivalence_audit(n, point, params))


def test_spin_vector_json(point):
    data = spin_vector_to_json(ebar(2, point), 2)
    assert set(data) == {"00", "01", "10", "11"}
    assert data["00"] == "1"
    sparse = spin_vector_to_json([0, point.one, 0, 0], 2)
    assert list(sparse) == ["01"]


@pytest.fixture(scope="session")
def two_models(point, params):
    """N -> (half-diagram rep, spin rep, their path bases) for N = 2..4."""
    out = {}
    for n in (2, 3, 4):
        diagram = ModuleRep(ModuleSpec.big(n, params))
        spin = SpinRep(n, point, params)
        out[n] = (diagram, spin, build_b1(diagram),
                  build_b1(spin, fundamental=ebar(n, point)))
    return out


def _letter_by_letter(rep, word):
    """The word's matrix from ``apply_e`` on every unit vector."""
    cols = []
    for j in range(rep.dim):
        vec = _unit(rep.dim, j)
        for i in reversed(word):
            vec = rep.apply_e(i, vec)
        cols.append(vec)
    return Matrix.from_columns(cols)


@given(data=st.data(), n=st.integers(2, 4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_word_agrees_in_diagram_and_spin_models(two_models, data, n):
    word = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6))
    diagram, spin, basis_d, basis_s = two_models[n]
    mats = []
    for rep, basis in ((diagram, basis_d), (spin, basis_s)):
        gens = [rep.e_matrix(i) for i in range(n + 1)]
        mat = word_product(gens, word)
        assert mat == _letter_by_letter(rep, word)
        mats.append(basis.in_coordinates(mat))
    assert mats[0] == mats[1]


# ---------------------------------------------------------------------------
# the intertwiner form of the equivalence


def _count_inverts(monkeypatch):
    calls = []
    original = pathbasis.invert

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(pathbasis, "invert", counted)
    return calls


def test_equivalence_inverts_only_the_diagram_basis(monkeypatch, point,
                                                    params):
    calls = _count_inverts(monkeypatch)
    records = equivalence_audit(3, point, params)
    assert_all_pass(records)
    diagram = build_b1(ModuleRep(ModuleSpec.big(3, params)))
    assert calls == [diagram.change_of_basis]


def test_equivalence_without_a_certificate_inverts_exactly(monkeypatch, point,
                                                           params):
    calls = _count_inverts(monkeypatch)
    monkeypatch.setattr(spinchain, "nonsingular_certificate", lambda m: None)
    assert_all_pass(equivalence_audit(3, point, params))
    spin = build_b1(SpinRep(3, point, params), fundamental=ebar(3, point))
    assert len(calls) == 2 and spin.change_of_basis in calls


def test_perturbed_spin_generator_fails_at_a_named_entry(monkeypatch, point,
                                                         params):
    n, bad, (r, c) = 3, 2, (5, 1)
    original = SpinRep.e_matrix

    def perturbed(self, i):
        mat = original(self, i)
        if i != bad:
            return mat
        return mat + Matrix([[RAT(1, 7) if (a, b) == (r, c) else 0
                              for b in range(self.dim)]
                             for a in range(self.dim)])

    monkeypatch.setattr(SpinRep, "e_matrix", perturbed)
    records = {rec["identity_id"]: rec
               for rec in equivalence_audit(n, point, params)}
    # E_s B_s - B_s M_d is the perturbation times B_s: row r holds
    # row c of B_s, scaled
    cob = build_b1(SpinRep(n, point, params),
                   fundamental=ebar(n, point)).change_of_basis
    col = next(j for j in range(cob.ncols) if cob[c, j])
    assert records[f"spin.equiv.e{bad}"]["status"] == "fail"
    assert records[f"spin.equiv.e{bad}"]["deviation"] == f"entry({r}, {col})"
    for i in range(n + 1):
        if i != bad:
            assert records[f"spin.equiv.e{i}"]["status"] == "pass"


def test_singular_spin_basis_still_raises(monkeypatch, point, params):
    monkeypatch.setattr(spinchain, "ebar", lambda n, pt: [0] * (1 << n))
    with pytest.raises(ZeroDivisionError):
        equivalence_audit(3, point, params)
