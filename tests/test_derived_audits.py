"""The audits that derive records, or factor their products differently,
against verbatim copies of the audits that formed every product.

``old_murphy_commutation_audit``, ``old_equivalent_presentation_audit`` and
``old_ybe_audit`` are the audits as they were before the g-commutators were
read from e_i, the Murphy commutators were derived from the g/J records and
each R_i(u) and K(u) was formed once; ``old_tile_verdicts`` and
``old_spin_equiv_records`` form E B - B M with ``product_difference``, as
``BasisB1.tile_action`` and ``spinchain.equivalence_audit`` did.
"""

from __future__ import annotations

import random

import pytest

from conftest import columns_of
from tl2b import hecke
from tl2b._ratback import RAT
from tl2b.audit import audit
from tl2b.hecke import lift_family, murphy
from tl2b.linalg import (Matrix, commutator, intertwiner_differences, invert,
                         product_difference)
from tl2b.pathbasis import (BasisB1, ModuleRep, _YBE_BATTERY, _shift,
                            build_b1, k_coeff, kbar_coeff, matrix_k, matrix_r,
                            r_coeff, tile_generators, ybe_audit)
from tl2b import spinchain
from tl2b.scalars import OMEGA1, OMEGA2, ONE, THETA, HalfExponent
from tl2b.spinchain import SpinRep, equivalence_audit
from tl2b.symbolic import SymbolicPoint
from tl2b.wordrep import ModuleSpec

KINDS = ("A", "B", "C")


# ---------------------------------------------------------------------------
# verbatim copies of the audits that formed every product


def old_murphy_commutation_audit(fam):
    gens = fam.gens
    n = gens.n_sites
    js = fam.j
    out = []
    idx = list(range(len(js)))
    for x in idx:
        for y in idx:
            if x < y:
                out.append(audit(f"murphy.comm.{fam.kind}.{x}.{y}",
                                 commutator(js[x], js[y])))
    offset = 1 if fam.kind == "A" else 0
    for gi in range(1, n):
        for jj in idx:
            label = jj + offset
            if label in (gi - 1, gi):
                continue
            out.append(audit(f"murphy.gj.{fam.kind}.{gi}.{label}",
                             commutator(gens.g[gi], js[jj])))
    for gi in range(1, n):
        lo, hi = gi - 1 - offset, gi - offset
        if 0 <= lo and hi < len(js):
            out.append(audit(f"murphy.gprod.{fam.kind}.{gi}",
                             commutator(gens.g[gi], js[lo] @ js[hi])))
            out.append(audit(f"murphy.gsum.{fam.kind}.{gi}",
                             commutator(gens.g[gi], js[lo] + js[hi])))
    if fam.kind == "C":
        for jj in idx[1:]:
            out.append(audit(f"murphy.g0j.C.{jj}", commutator(gens.g[0], js[jj])))
    if fam.kind in ("B", "C"):
        out.append(audit(f"murphy.g0j0pair.{fam.kind}",
                         commutator(gens.g[0], js[0] + fam.jinv[0])))
    return out


def old_equivalent_presentation_audit(fam):
    gens = fam.gens
    point = gens.point
    n = gens.n_sites
    j0 = fam.j[0]
    g = gens.g
    out = []
    for i in range(2, n):
        out.append(audit(f"equiv.comm.{i}", commutator(g[i], j0)))
    out.append(audit("equiv.j0g1j0g1",
                     j0 @ g[1] @ j0 @ g[1] - g[1] @ j0 @ g[1] @ j0))
    out.append(audit("equiv.g0g1j0g1",
                     g[0] @ g[1] @ j0 @ g[1] - g[1] @ j0 @ g[1] @ g[0]))
    ident = Matrix.identity(gens.dim)
    x = j0 @ gens.ginv[0]
    quad = ((x - ident.scale(point.q_power(OMEGA2)))
            @ (x - ident.scale(point.q_power(-OMEGA2))))
    out.append(audit("equiv.quadratic", quad))
    rebuild = ident
    for i in reversed(range(1, n)):
        rebuild = rebuild @ g[i]
    rebuild = rebuild @ j0 @ gens.ginv[0]
    for i in range(1, n):
        rebuild = rebuild @ gens.ginv[i]
    out.append(audit("equiv.gn_rebuild", rebuild - g[n]))
    return out


def old_hecke_comm_records(gens):
    n = gens.n_sites
    return [audit(f"hecke.comm.{i}.{j}", commutator(gens.g[i], gens.g[j]))
            for i in range(n + 1) for j in range(i + 2, n + 1)]


def old_ybe_audit(rep):
    n = rep.n_sites
    ident = Matrix.identity(rep.dim)
    point = rep.point
    def matrix_kbar(rep, u):
        return _shift(rep, 0, kbar_coeff(u, point))

    walls = (("left", "kbar", 1, matrix_kbar, kbar_coeff),
             ("right", "k", n - 1, matrix_k, k_coeff))
    out = []
    for idx, (u, v) in enumerate(_YBE_BATTERY):
        for i in range(1, n - 1):
            lhs = (matrix_r(rep, i, u) @ matrix_r(rep, i + 1, u + v)
                   @ matrix_r(rep, i, v))
            rhs = (matrix_r(rep, i + 1, v) @ matrix_r(rep, i, u + v)
                   @ matrix_r(rep, i + 1, u))
            out.append(audit(f"ybe.bulk.{idx}.{i}", lhs - rhs))
        for i in range(1, n):
            prod = matrix_r(rep, i, u) @ matrix_r(rep, i, -u)
            expect = ident.scale(r_coeff(u, point) * r_coeff(-u, point))
            out.append(audit(f"ybe.unitary.r.{idx}.{i}", prod - expect))
        for side, tag, adj, kmat, coeff in walls:
            k2u, k2v, ku, kmu = (kmat(rep, w)
                                 for w in (u.scale(2), v.scale(2), u, -u))
            if n >= 2:
                r_sum = matrix_r(rep, adj, u + v)
                r_diff = matrix_r(rep, adj, u - v)
                lhs = k2v @ r_sum @ k2u @ r_diff
                rhs = r_diff @ k2u @ r_sum @ k2v
                out.append(audit(f"ybe.reflect.{side}.{idx}", lhs - rhs))
            expect = ident.scale(coeff(u, point) * coeff(-u, point))
            out.append(audit(f"ybe.unitary.{tag}.{idx}", ku @ kmu - expect))
    return out


def old_tile_verdicts(basis):
    gens = tile_generators(basis.paths, basis.point)
    cob = basis.change_of_basis
    held = {}
    for i, gen in enumerate(gens):
        diff = product_difference(basis.rep.e_matrix(i), cob, cob, gen)
        for k, path in enumerate(basis.paths):
            held[i, path] = not any(diff.column(k))
    return held


def old_spin_equiv_records(rep):
    basis_d = build_b1(ModuleRep(ModuleSpec.big(rep.n_sites, rep.point)))
    cob = build_b1(rep).change_of_basis
    out = []
    for i in range(rep.n_sites + 1):
        md = basis_d.generator_in_coordinates(i)
        out.append(audit(f"spin.equiv.e{i}", product_difference(
            rep.e_matrix(i), cob, cob, md)))
    return out


# ---------------------------------------------------------------------------
# helpers


def _bump(mat: Matrix, r: int, c: int) -> Matrix:
    """``mat`` with 1/7 added at (r, c)."""
    return mat + Matrix([[RAT(1, 7) if (a, b) == (r, c) else 0
                          for b in range(mat.ncols)]
                         for a in range(mat.nrows)])


def _perturbed_family(point, n, bad, r=1, c=2):
    """e_0 .. e_N of the 2^N module, with e_bad perturbed at (r, c)."""
    e = list(ModuleSpec.big(n, point).generators)
    e[bad] = _bump(e[bad], r, c)
    return lift_family(e, point)


class _PerturbedRep(ModuleRep):
    def __init__(self, spec, bad, r=1, c=2):
        super().__init__(spec)
        self.bumped = (bad, _bump(spec.generators[bad], r, c))

    def e_matrix(self, i):
        bad, mat = self.bumped
        return mat if i == bad else super().e_matrix(i)


def _failed(records):
    return [r for r in records if r["status"] == "fail"]


# ---------------------------------------------------------------------------
# the records are those of the audits that formed every product


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_hecke_audits_match_the_formed_ones(any_point, n):
    gens = hecke.lift_to_hecke(ModuleSpec.big(n, any_point))
    for kind in KINDS:
        fam = murphy(kind, gens)
        assert (hecke.murphy_commutation_audit(fam)
                == old_murphy_commutation_audit(fam))
    fam = murphy("C", gens)
    assert (hecke.equivalent_presentation_audit(fam)
            == old_equivalent_presentation_audit(fam))
    comm = [r for r in hecke.hecke_relation_audit(gens)
            if r["identity_id"].startswith("hecke.comm.")]
    assert comm == old_hecke_comm_records(gens)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_ybe_audit_matches_the_formed_one(any_point, n):
    rep = ModuleRep(ModuleSpec.big(n, any_point))
    assert ybe_audit(rep) == old_ybe_audit(rep)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_intertwiner_verdicts_match_the_product_difference(any_point, n):
    rep = ModuleRep(ModuleSpec.big(n, any_point))
    assert build_b1(rep).tile_action()[1] == old_tile_verdicts(build_b1(rep))
    spin = SpinRep(n, any_point)
    records = {r["identity_id"]: r for r in equivalence_audit(spin)}
    for rec in old_spin_equiv_records(spin):
        assert records[rec["identity_id"]] == rec


@pytest.mark.parametrize("n, bad", ((3, 0), (3, 1), (3, 3), (4, 2), (4, 4),
                                    (5, 3)))
def test_perturbed_generator_fails_at_the_same_entries(point, n, bad):
    gens = _perturbed_family(point, n, bad)
    failed = []
    for kind in KINDS:
        fam = murphy(kind, gens)
        new = hecke.murphy_commutation_audit(fam)
        assert new == old_murphy_commutation_audit(fam)
        failed += _failed(new)
    fam = murphy("C", gens)
    new = hecke.equivalent_presentation_audit(fam)
    assert new == old_equivalent_presentation_audit(fam)
    failed += _failed(new)
    comm = [r for r in hecke.hecke_relation_audit(gens)
            if r["identity_id"].startswith("hecke.comm.")]
    assert comm == old_hecke_comm_records(gens)
    assert failed, "the perturbation broke no audited identity"

    rep = _PerturbedRep(ModuleSpec.big(n, point), bad)
    new = ybe_audit(rep)
    assert new == old_ybe_audit(rep) and _failed(new)
    assert build_b1(rep).tile_action()[1] == old_tile_verdicts(build_b1(rep))


def test_a_broken_premise_forms_the_commutator(monkeypatch, point):
    # e_2 perturbed: J_2 and J_3 of family B change, [g_2, J_0] fails, and
    # murphy.comm.B.0.2 must be formed, not derived
    fam = murphy("B", _perturbed_family(point, 4, 2))
    formed = []
    original = hecke.commutator

    def counted(x, y):
        formed.append((x, y))
        return original(x, y)

    monkeypatch.setattr(hecke, "commutator", counted)
    records = {r["identity_id"]: r
               for r in hecke.murphy_commutation_audit(fam)}
    js = fam.j
    broken = [(x, y) for x in range(len(js)) for y in range(x + 2, len(js))
              if records[f"murphy.gj.B.{y}.{x}"]["status"] == "fail"
              or records[f"murphy.comm.B.{x}.{y - 1}"]["status"] == "fail"]
    assert (0, 2) in broken
    for x, y in broken:
        assert any(a is js[x] and b is js[y] for a, b in formed)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_passing_premises_form_only_adjacent_commutators(monkeypatch, point,
                                                         n):
    gens = hecke.lift_to_hecke(ModuleSpec.big(n, point))
    for kind in KINDS:
        fam = murphy(kind, gens)
        pairs = []
        original = hecke.commutator

        def counted(x, y):
            pairs.append((x, y))
            return original(x, y)

        monkeypatch.setattr(hecke, "commutator", counted)
        hecke.murphy_commutation_audit(fam)
        monkeypatch.setattr(hecke, "commutator", original)
        js = fam.j
        formed = {(x, y) for a, b in pairs for x, jx in enumerate(js)
                  for y, jy in enumerate(js) if a is jx and b is jy}
        assert formed == {(x, x + 1) for x in range(len(js) - 1)}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_murphy_elements_are_built_by_conjugation(point, n):
    # the premise of every derived record: J_y = g J_{y-1} g
    gens = hecke.lift_to_hecke(ModuleSpec.big(n, point))
    for kind in KINDS:
        fam = murphy(kind, gens)
        offset = 1 if kind == "A" else 0
        for y in range(1, len(fam.j)):
            g = gens.g[y + offset]
            assert fam.j[y] == g @ fam.j[y - 1] @ g


# ---------------------------------------------------------------------------
# the column routine against product_difference


def _random_rows(rng, nrows, ncols, density=0.5, den=9):
    return [[RAT(rng.randrange(-20, 21), rng.randrange(1, den))
             if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def _check(b, pairs):
    """The routine's differences equal those of ``product_difference`` on
    copies, and leave b unconverted."""
    got = list(intertwiner_differences(columns_of(b), pairs))
    stored = [dict(row) for row in b._rows]
    for diff, (e, m) in zip(got, pairs):
        want = product_difference(Matrix(e.rows), Matrix(b.rows),
                                  Matrix(b.rows), Matrix(m.rows))
        assert diff == want and diff.rows == want.rows
        assert diff.first_nonzero() == want.first_nonzero()
    assert b._den is None and b._rows == stored
    return got


@pytest.mark.parametrize("seed", range(8))
def test_column_differences_on_random_rationals(seed):
    rng = random.Random(seed)
    n, k = rng.randrange(1, 7), rng.randrange(1, 7)
    b = Matrix(_random_rows(rng, n, k))
    pairs = [(Matrix(_random_rows(rng, n, n)),
              Matrix(_random_rows(rng, k, k, density=rng.random())))
             for _ in range(3)]
    _check(b, pairs)


def test_column_differences_vanish_on_an_intertwiner():
    # b M = E b by construction: every column holds
    rng = random.Random(5)
    rows = _random_rows(rng, 4, 4, density=1.0)
    m = Matrix(_random_rows(rng, 4, 4))
    e = Matrix(rows) @ m @ invert(Matrix(rows))
    (diff,) = _check(Matrix(rows), [(e, m)])
    assert diff.is_zero()


def test_column_differences_on_ints_zero_columns_and_dense_m():
    ints = Matrix([[2, 0, 1], [1, -3, 0], [0, 0, 5]])
    zero_col = Matrix([[RAT(1, 2), 0, 3], [RAT(-4, 3), 0, 1], [5, 0, 0]])
    dense = Matrix([[RAT(i + 1, j + 2) + 1 for j in range(3)]
                    for i in range(3)])
    zero = Matrix.zeros(3, 3)
    for b in (ints, zero_col, dense):
        b = Matrix(b.rows)
        _check(b, [(ints, dense), (dense, zero_col), (zero, zero),
                   (Matrix(ints.rows), Matrix(ints.rows))])


def test_column_differences_fall_back_on_symbolic_entries():
    sym = SymbolicPoint()
    x, y = sym.qnum(OMEGA1 + ONE), sym.qnum(THETA)
    z = sym.q_power(HalfExponent(1, -1, 0, 2))
    b = Matrix([[x, 0], [RAT(1, 3), z]])
    e = Matrix([[y, 1], [z, RAT(-2, 5)]])
    m = Matrix([[1, y], [0, x * z]])
    for pair_b, pair in ((b, (e, m)),
                         (Matrix([[1, 2], [3, RAT(1, 2)]]), (e, m)),
                         (Matrix([[1, 2], [3, RAT(1, 2)]]),
                          (Matrix([[1, 0], [RAT(2, 3), 1]]), m))):
        (got,) = intertwiner_differences(columns_of(pair_b), [pair])
        assert got == pair[0] @ pair_b - pair_b @ pair[1]


def test_column_differences_reject_mismatched_shapes():
    two, three = Matrix.identity(2), Matrix.identity(3)
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    for b, e, m in ((two, three, two), (two, two, three), (wide, two, two)):
        with pytest.raises(ValueError, match="shape mismatch"):
            list(intertwiner_differences(columns_of(b), [(e, m)]))


# ---------------------------------------------------------------------------
# the path bases are read from their columns, never formed or converted


def test_tile_action_leaves_the_basis_unconverted(point):
    basis = build_b1(ModuleRep(ModuleSpec.big(4, point)))
    basis.tile_action()
    assert "change_of_basis" not in vars(basis)
    assert basis.change_of_basis._den is None


def test_equivalence_audit_leaves_the_spin_basis_unconverted(monkeypatch,
                                                             point):
    built = []
    original = spinchain.build_b1

    def kept(rep):
        basis = original(rep)
        built.append(basis)
        return basis

    monkeypatch.setattr(spinchain, "build_b1", kept)
    records = equivalence_audit(SpinRep(4, point))
    assert all(r["status"] == "pass" for r in records)
    spin = [b for b in built if isinstance(b.rep, SpinRep)]
    assert len(spin) == 1 and "change_of_basis" not in vars(spin[0])
    assert spin[0].change_of_basis._den is None
    # B_d is formed once, for the transport of its generators
    (diagram,) = (b for b in built if not isinstance(b.rep, SpinRep))
    assert "change_of_basis" in vars(diagram)


def _corrupted(basis, k):
    """``basis`` with the first nonzero entry of column k raised by one: its
    numerator n becomes n + d, or its value x becomes x + 1 in a column of
    values."""
    den, col = basis.columns[k]
    i = next(i for i, x in enumerate(col) if x)
    col = list(col)
    col[i] += 1 if den is None else den
    cols = list(basis.columns)
    cols[k] = (den, col)
    return BasisB1(basis.rep, basis.paths, cols)


@pytest.mark.parametrize("n, k, symbolic", [(3, 5, False), (2, 1, True)])
def test_a_corrupted_basis_column_fails_at_the_same_entry(monkeypatch, point,
                                                          n, k, symbolic):
    point = SymbolicPoint() if symbolic else point
    big = ModuleSpec.big(n, point)
    # the tile verdicts of B_d, and each difference, against the formed B
    corrupt = _corrupted(build_b1(ModuleRep(big)), k)
    gens, held = corrupt.tile_action()
    assert held == old_tile_verdicts(corrupt) and not all(held.values())
    cob = corrupt.change_of_basis
    pairs = [(corrupt.rep.e_matrix(i), gen) for i, gen in enumerate(gens)]
    for diff, (e, m) in zip(intertwiner_differences(corrupt.columns, pairs),
                            pairs):
        want = product_difference(e, cob, cob, m)
        assert diff == want and diff.first_nonzero() == want.first_nonzero()
    # the spin.equiv records of B_s, against product_difference on B_s
    original = spinchain.build_b1
    monkeypatch.setattr(spinchain, "build_b1", lambda rep: (
        _corrupted(original(rep), k) if isinstance(rep, SpinRep)
        else original(rep)))
    rep = SpinRep(n, point)
    got = [r for r in equivalence_audit(rep)
           if r["identity_id"].startswith("spin.equiv.")]
    basis_d = build_b1(ModuleRep(big))
    cob = _corrupted(build_b1(rep), k).change_of_basis
    want = [audit(f"spin.equiv.e{i}", product_difference(
        rep.e_matrix(i), cob, cob, basis_d.generator_in_coordinates(i)))
        for i in range(n + 1)]
    assert got == want and any(r["status"] == "fail" for r in want)
