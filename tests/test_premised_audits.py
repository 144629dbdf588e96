"""Records derived from premises in a record store, against verbatim copies
of the audits that formed their matrices.

``old_hecke_relation_audit``, ``old_ybe_audit``, ``old_build_b1``,
``old_nonsingular_certificate``, ``old_ebar_identities`` and
``old_action_table`` are the routines as they were before the two-generator
identities were decided by normal form, the path bases grown in integers,
the certificate read from column numerators, E_l ebar read from the level
below and each weight of a generator's action weighed once.  The Murphy and
equivalent-presentation audits are compared with the copies in
``test_derived_audits``, which form every product.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from graphlib import CycleError, TopologicalSorter
from math import gcd
from pathlib import Path

import pytest

from conftest import columns_of
import tl2b
from tl2b import cli, hecke, pathbasis, wordrep
from tl2b._ratback import RAT
from tl2b.audit import Records, audit
from tl2b.diagrams import act_on_half, generator_diagram
from tl2b.hecke import g_coefficients, lift_family, murphy
from tl2b.linalg import (Matrix, _det_mod_p, _CERTIFICATE_PRIMES, commutator,
                         nonsingular_certificate)
from tl2b.pathbasis import (ModuleRep, _shift, _tile_coeffs, build_b1,
                            fundamental_path, path_order, removable_tiles,
                            unapply_tile, ybe_audit)
from tl2b.scalars import ONE, OMEGA1, OMEGA2, HalfExponent, make_param_point
from tl2b.spinchain import SpinRep, ebar_identities
from tl2b.symbolic import SymbolicPoint
from tl2b.wordrep import (ModuleSpec, PairWords, action_table,
                          check_relations, evaluate, word_product)

from test_derived_audits import (old_equivalent_presentation_audit,
                                 old_murphy_commutation_audit, old_ybe_audit)


# ---------------------------------------------------------------------------
# verbatim copies of the routines that formed every matrix


def old_hecke_relation_audit(gens):
    point = gens.point
    n = gens.n_sites
    g = gens.g
    ident = Matrix.identity(gens.dim)
    q = lambda k: point.q_power(ONE.scale(k))

    def quadratic(i, root, other):
        return (g[i] - ident.scale(root)) @ (g[i] - ident.scale(other))

    def kernel(a, w, c):
        return (gens.word((a, w, a))
                + (gens.word((w, a)) + gens.word((a, w))).scale(q(-1))
                - g[a].scale(q(-1) * c) + g[w].scale(q(-2))
                - ident.scale(q(-2) * c))

    out = [audit(f"hecke.inverse.{i}", g[i] @ gens.ginv[i] - ident)
           for i in range(n + 1)]
    for i in range(1, n):
        out.append(audit(f"hecke.quadratic.bulk.{i}",
                         quadratic(i, q(1), -q(-1))))
    for i in range(1, n - 1):
        out.append(audit(f"hecke.braid.{i}",
                         gens.word((i, i + 1, i)) - gens.word((i + 1, i, i + 1))))
        out.append(audit(f"hecke.kernel.bulk.{i}", kernel(i, i + 1, -q(-1))))
    gc = gens.g_comm
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out.append(audit(f"hecke.comm.{i}.{j}", commutator(gc[i], gc[j])))
    for side, w, a, omega in (("left", 0, 1, OMEGA1),
                              ("right", n, n - 1, OMEGA2)):
        root, other = point.q_power(omega), point.q_power(-omega)
        out.append(audit(f"hecke.quadratic.{side}", quadratic(w, root, other)))
        if n >= 2:
            out.append(audit(f"hecke.braid.{side}", gens.word((w, a, w, a))
                             - gens.word((a, w, a, w))))
        out.append(audit(f"hecke.kernel.{side}", kernel(a, w, root + other)))
    return out


def old_build_b1(rep):
    n = rep.n_sites
    paths = path_order(n)
    vectors = {fundamental_path(n): rep.fundamental_vector()}
    for path in paths:
        if path in vectors:
            continue
        for tile in removable_tiles(path):
            prev = unapply_tile(path, tile)
            if prev not in vectors:
                continue
            c_lo, _ = _tile_coeffs(rep.point, tile.boundary, tile.shoulder)
            vectors[path] = _shift(rep, tile.position, c_lo, vectors[prev])
            break
    return Matrix.from_columns([vectors[p] for p in paths])


def old_nonsingular_certificate(matrix):
    rows = matrix.rows
    if not all(isinstance(x, (int, type(RAT(1)))) for row in rows
               for x in row):
        return None
    for p in _CERTIFICATE_PRIMES:
        if any(int(x.denominator) % p == 0 for row in rows for x in row):
            continue
        residues = [[int(x.numerator) * pow(int(x.denominator), -1, p)
                     for x in row] for row in rows]
        if _det_mod_p(residues, p):
            return p
    return None


def old_ebar_identities(rep):
    n_sites = rep.n_sites
    vec = rep.fundamental_vector()
    out = []
    for level in range(n_sites + 1):
        out.append(audit(f"spin.ebar.fix.E{level}",
                         pathbasis.apply_idempotent(rep, level, vec) == vec))
    image = rep.apply_e(0, vec)
    out.append(audit("spin.ebar.e0",
                     all(x == rep.point.s1 * y for x, y in zip(image, vec))))
    u = pathbasis._LEVEL_ARGUMENTS[(n_sites + 1) % 2][0]
    v = pathbasis._LEVEL_ARGUMENTS[n_sites % 2][0]
    image = rep.apply_e(n_sites - 1, rep.apply_k(u, vec))
    out.append(audit("spin.ebar.boundary.first", not any(image)))
    image = rep.apply_e(n_sites - 1, rep.apply_k(
        v - ONE, rep.apply_r(n_sites - 1, v, vec)))
    out.append(audit("spin.ebar.boundary.second", not any(image)))
    return out


def old_action_table(spec, i):
    basis = spec.basis
    index = {h.pattern: r for r, h in enumerate(basis)}
    gen = generator_diagram(i, spec.n_sites)
    table = []
    for h in basis:
        hit = act_on_half(gen, h)
        scalar = hit and spec.weigh(hit[0], hit[1])
        table.append((index[hit[2].pattern], scalar) if scalar else None)
    return table


# ---------------------------------------------------------------------------
# helpers


def _bump(mat: Matrix, r: int, c: int) -> Matrix:
    """``mat`` with 1/7 added at (r, c)."""
    return mat + Matrix([[RAT(1, 7) if (a, b) == (r, c) else 0
                          for b in range(mat.ncols)]
                         for a in range(mat.nrows)])


class _Rep(ModuleRep):
    """The 2^N module with the given e_0 .. e_N."""

    def __init__(self, spec, e):
        super().__init__(spec)
        self.e = e

    def e_matrix(self, i):
        return self.e[i]


def passed(records, *idents):
    """Whether each of ``idents`` has a passing record in ``records``."""
    return all(records.get(i, {}).get("status") == "pass" for i in idents)


def _relations_records(e, point):
    """(new, old): the records of the audits that read premises, in the
    order of ``cli.cmd_relations`` with a store, and as the copies that
    form every matrix."""
    n = len(e) - 1
    store = Records(e, point)
    store.add(check_relations(e, point))
    gens = lift_family(e, point)
    new = hecke.hecke_relation_audit(gens, store)
    old = old_hecke_relation_audit(gens)
    for kind in ("A", "B", "C"):
        fam = murphy(kind, gens)
        new += hecke.murphy_commutation_audit(fam, store)
        old += old_murphy_commutation_audit(fam)
    if n >= 2:  # J_1 of family C exists from N = 2 on
        fam = murphy("C", gens)
        new += hecke.equivalent_presentation_audit(fam, store)
        old += old_equivalent_presentation_audit(fam)
    rep = _Rep(ModuleSpec.big(n, point), e)
    new += ybe_audit(rep, store)
    old += old_ybe_audit(rep)
    return new, old


def _failed(records):
    return [r for r in records if r["status"] == "fail"]


# ---------------------------------------------------------------------------
# the derived records are the formed ones


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_premised_records_match_the_formed_ones(any_point, n):
    e = list(ModuleSpec.big(n, any_point).generators)
    new, old = _relations_records(e, any_point)
    assert new == old


@pytest.mark.parametrize("n, bad, where", (
    (1, 0, (1, 0)), (1, 1, (0, 1)), (2, 0, (1, 2)), (2, 2, (3, 0)),
    (3, 1, (1, 2)), (3, 3, (5, 6)), (4, 0, (1, 2)), (4, 2, (1, 2)),
    (5, 3, (1, 2)), (5, 5, (0, 3))))
def test_a_perturbed_generator_fails_at_the_same_entries(n, bad, where):
    point = make_param_point(1)
    e = list(ModuleSpec.big(n, point).generators)
    e[bad] = _bump(e[bad], *where)
    new, old = _relations_records(e, point)
    assert new == old
    assert _failed(new), "the perturbation broke no audited identity"


def test_a_failed_premise_forms_the_matrix(point):
    # e_2 perturbed at N = 4: bulk.sq.2 fails, so every identity in g_2 is
    # formed, and each one that fails names the entry the formed one does
    e = list(ModuleSpec.big(4, point).generators)
    e[2] = _bump(e[2], 1, 2)
    store = Records(e, point)
    store.add(check_relations(e, point))
    assert not passed(store, "bulk.sq.2")
    assert passed(store, "left.sq", "bulk.sq.1", "left.jones")
    gens = lift_family(e, point)
    records = {r["identity_id"]: r
               for r in hecke.hecke_relation_audit(gens, store)}
    old = {r["identity_id"]: r for r in old_hecke_relation_audit(gens)}
    assert records == old
    assert records["hecke.braid.2"]["status"] == "fail"
    assert records["hecke.quadratic.bulk.2"]["status"] == "fail"
    # g_2 g_2^-1 = 1 is formed; g_0 g_0^-1 = 1, whose premise passed, is
    # derived
    assert "hecke.inverse.2" not in store.routes
    assert store.routes["hecke.inverse.0"] == ("left.sq",)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_the_formed_hecke_records_match_the_old_ones(point, n):
    # with no store every record is formed, the normal-form ones by
    # ``wordrep.evaluate`` from their terms
    e = list(ModuleSpec.big(n, point).generators)
    gens = lift_family(e, point)
    assert hecke.hecke_relation_audit(gens) == old_hecke_relation_audit(gens)
    e[n // 2] = _bump(e[n // 2], 0, 1)
    gens = lift_family(e, point)
    new = hecke.hecke_relation_audit(gens)
    assert new == old_hecke_relation_audit(gens) and _failed(new)


def test_clean_premises_form_no_two_generator_product(monkeypatch, point):
    spec = ModuleSpec.big(5, point)
    store = Records(spec.generators, point)
    store.add(wordrep.relation_audit(spec))
    products = []
    original = Matrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    gens = hecke.lift_to_hecke(spec)
    records = hecke.hecke_relation_audit(gens, store)
    assert all(r["status"] == "pass" for r in records)
    records = ybe_audit(ModuleRep(spec), store)
    assert all(r["status"] == "pass" for r in records)
    assert not products


def test_families_a_and_b_build_no_murphy_element(monkeypatch, point):
    spec = ModuleSpec.big(5, point)
    store = Records(spec.generators, point)
    wordrep.relation_audit(spec, store)
    gens = hecke.lift_to_hecke(spec)
    hecke.hecke_relation_audit(gens, store)
    formed = []
    original = hecke.commutator

    def counted(x, y):
        formed.append((x, y))
        return original(x, y)

    monkeypatch.setattr(hecke, "commutator", counted)
    for kind in ("A", "B"):
        fam = murphy(kind, gens)
        records = hecke.murphy_commutation_audit(fam, store)
        assert all(r["status"] == "pass" for r in records)
        assert not formed, kind
        assert "j" not in vars(fam) and "jinv" not in vars(fam)


def test_records_about_other_matrices_are_not_premises(point):
    spec = ModuleSpec.big(3, point)
    store = Records(spec.generators, point)
    wordrep.relation_audit(spec, store)
    copies = [Matrix(m.rows) for m in spec.generators]
    assert Records.about(store, spec.generators, point) is store
    assert Records.about(store, copies, point) == {}
    assert Records.about(store, spec.generators[:-1], point) == {}
    assert Records.about(store, spec.generators, make_param_point(2)) == {}
    assert Records.about(None, spec.generators, point) == {}


# ---------------------------------------------------------------------------
# the routes of the derived records form a proof graph


def _proof_store(n, point):
    """The store of every audit that keeps its records there, run in the
    order of ``cli.cmd_relations`` (``equivalent_presentation_audit`` from
    N = 2 on, where family C has J_1)."""
    spec = ModuleSpec.big(n, point)
    store = Records(spec.generators, point)
    wordrep.relation_audit(spec, store)
    gens = hecke.lift_to_hecke(spec)
    hecke.hecke_relation_audit(gens, store)
    for kind in ("A", "B", "C"):
        hecke.murphy_commutation_audit(murphy(kind, gens), store)
    if n >= 2:
        hecke.equivalent_presentation_audit(murphy("C", gens), store)
    ybe_audit(ModuleRep(spec), store)
    return store


def _premise_free(n, point):
    """The identities that pass with no premise: J_0 and J_0^-1 of family B
    are polynomials in e_0, and [g_i, g_j] vanishes when g_i or g_j is a
    scalar, that is, when its coefficient of e is 0."""
    scalar = [not g_coefficients(point, n, i, 1)[1] for i in range(n + 1)]
    return {"murphy.g0j0pair.B"} | {
        f"hecke.comm.{i}.{j}" for i in range(n + 1)
        for j in range(i + 2, n + 1) if scalar[i] or scalar[j]}


def _assert_proof_graph(store, n, point):
    """Every premise and read source has a record and every premise passes;
    the premise and read edges form no cycle; and every leaf is a formed
    record or a premise-free identity."""
    edges = {ident: (route,) if isinstance(route, str) else route
             for ident, route in store.routes.items()}
    for ident, route in store.routes.items():
        assert all(p in store for p in edges[ident]), ident
        if not isinstance(route, str):
            assert passed(store, *route), ident
    leaves = {ident for ident, after in edges.items() if not after}
    assert leaves <= _premise_free(n, point)
    tuple(TopologicalSorter(edges).static_order())  # raises on a cycle


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_the_derivations_form_a_proof_graph(point, n):
    store = _proof_store(n, point)
    _assert_proof_graph(store, n, point)
    # family C's base [J_0, J_1] is formed, and equiv.j0g1j0g1 reads it
    assert ("murphy.comm.C.0.1" in store) == (n >= 2)
    assert "murphy.comm.C.0.1" not in store.routes


@pytest.mark.parametrize("n", (1, 2, 3))
def test_the_symbolic_derivations_form_a_proof_graph(n):
    point = SymbolicPoint()
    _assert_proof_graph(_proof_store(n, point), n, point)


def test_a_cycle_or_failed_premise_breaks_the_proof_graph(point):
    store = _proof_store(3, point)
    store.routes["murphy.comm.C.0.1"] = "equiv.j0g1j0g1"
    with pytest.raises(CycleError):
        _assert_proof_graph(store, 3, point)
    store = _proof_store(3, point)
    store["hecke.braid.1"] = {**store["hecke.braid.1"], "status": "fail"}
    with pytest.raises(AssertionError):
        _assert_proof_graph(store, 3, point)


@pytest.mark.parametrize("n, routes", ((2, (27, 32, 4)), (4, (50, 93, 11)),
                                       (6, (77, 190, 22))))
def test_relations_keeps_the_routes_of_its_records(monkeypatch, n, routes):
    # (formed, derived or trivially true, read from another record) at
    # seed 1, as before the derivations went through one store
    stores = []

    class Kept(Records):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(cli, "Records", Kept)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["relations", "--n", str(n), "--seed", "1"]) == 0
    results = json.loads(buf.getvalue())["results"]
    store, = stores
    assert {r["identity_id"] for r in results} >= set(store)
    read = sum(isinstance(r, str) for r in store.routes.values())
    assert (len(results) - len(store.routes), len(store.routes) - read,
            read) == routes
    _assert_proof_graph(store, n, store.point)


def test_relations_builds_only_the_affine_chains(monkeypatch):
    fams = []
    original = hecke.murphy

    def kept(kind, gens):
        fam = original(kind, gens)
        fams.append(fam)
        return fam

    monkeypatch.setattr(hecke, "murphy", kept)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["relations", "--n", "4"]) == 0
    built = {fam.kind: ("j" in vars(fam), "jinv" in vars(fam))
             for fam in fams}
    assert built == {"A": (False, False), "B": (False, False),
                     "C": (True, True)}


@pytest.mark.parametrize("n", (1, 4))
def test_the_lazy_chains_build_the_family(point, n):
    gens = hecke.lift_to_hecke(ModuleSpec.big(n, point))
    letters = gens.g + gens.ginv[::-1]
    for kind in ("A", "B", "C"):
        fam = murphy(kind, gens)
        assert fam.size == len(fam.j) == len(fam.jinv)
        for m, j in enumerate(fam.j, start=1 if kind == "A" else 0):
            assert j == word_product(letters, hecke.murphy_word(kind, n, m))
        ident = Matrix.identity(gens.dim)
        assert fam.j[0] @ fam.first_inverse == ident
        assert fam.jinv[0] is fam.first_inverse
        for j, jinv in zip(fam.j, fam.jinv):
            assert j @ jinv == ident


# ---------------------------------------------------------------------------
# the two-generator normal form


def _all_pass(n):
    return {ident: {"status": "pass"}
            for ident, *_ in wordrep._defining_relations(n)}


def _reduced(words, word):
    return words.product([{(i,): 1} for i in word])


def test_squares_rewrite_by_the_loop_weights(point):
    n = 4
    for i, alpha in ((0, point.s1), (2, point.delta), (n, point.s2)):
        words = PairWords(point, n, (i,))
        assert _reduced(words, (i, i)) == {(i,): alpha}
        assert _reduced(words, (i, i, i)) == {(i,): alpha * alpha}


def test_bulk_jones_relations_rewrite_in_both_orders(point):
    words = PairWords(point, 4, (1, 2))
    assert _reduced(words, (1, 2, 1)) == {(1,): 1}
    assert _reduced(words, (2, 1, 2)) == {(2,): 1}
    assert _reduced(words, (1, 2, 1, 2)) == {(1, 2): 1}
    assert _reduced(words, (2, 2, 1, 2)) == {(2,): point.delta}


def test_a_wall_rewrites_only_its_neighbours_jones_relation(point):
    n = 4
    left = PairWords(point, n, (0, 1))
    assert _reduced(left, (1, 0, 1)) == {(1,): 1}
    assert _reduced(left, (0, 1, 0)) == {(0, 1, 0): 1}
    assert _reduced(left, (0, 1, 0, 1, 0)) == {(0, 1, 0): 1}
    right = PairWords(point, n, (n - 1, n))
    assert _reduced(right, (n - 1, n, n - 1)) == {(n - 1,): 1}
    # e_N e_{N-1} e_N is a reduced word
    assert _reduced(right, (n, n - 1, n)) == {(n, n - 1, n): 1}
    assert _reduced(right, (n, n, n - 1, n)) == {(n, n - 1, n): point.s2}


def test_the_two_walls_give_both_orders_at_one_site(point):
    words = PairWords(point, 1, (0, 1))
    assert _reduced(words, (0, 1, 0)) == {(0,): 1}
    assert _reduced(words, (1, 0, 1)) == {(1,): 1}


def test_only_the_relations_among_the_letters_are_rules(point):
    words = PairWords(point, 5, (2, 3))
    assert set(words.rules) == {(2, 2), (3, 3), (2, 3, 2), (3, 2, 3)}
    single = PairWords(point, 5, (0,))
    assert set(single.rules) == {(0, 0)}


def test_a_failed_or_missing_relation_gives_no_rewriting(point):
    # the relations among the letters are the premises of a reduction, so
    # a record whose relation failed or is missing is formed
    store = Records((), point)
    store.update(_all_pass(4))
    store["bulk.jones.2.1"] = {"status": "fail"}
    e0, e1, e2 = ({(i,): 1} for i in range(3))
    jones = PairWords.premises(point, 4, (1, 2), (1, e1, e2, e1), (-1, e1))
    assert jones == ("bulk.sq.1", "bulk.sq.2", "bulk.jones.1.2",
                     "bulk.jones.2.1")
    square = PairWords.premises(point, 4, (1,), (1, e1, e1),
                                (-point.delta, e1))
    assert square == ("bulk.sq.1",)
    assert PairWords.premises(point, 4, (1, 2), (1, e1, e2)) is None
    nonzero = lambda: Matrix([[0, 1]])
    assert store.derive("x", jones, nonzero)["deviation"] == "entry(0, 1)"
    assert store.derive("y", square, nonzero)["status"] == "pass"
    del store["left.sq"]
    zero = PairWords.premises(point, 4, (0,), (1, e0, e0), (-point.s1, e0))
    assert store.derive("z", zero, nonzero)["status"] == "fail"
    assert store.routes == {"y": square}


def test_vanishes_sums_scaled_products(point):
    words = PairWords(point, 3, (1, 2))
    e1, e2 = {(1,): 1}, {(2,): 1}
    assert words.vanishes((1, e1, e1), (-point.delta, e1))
    assert words.vanishes((1, e1, e2, e1), (-1, e1))
    assert not words.vanishes((1, e1, e2), (-1, e2, e1))
    assert words.vanishes((1,), (-1,))
    assert not words.vanishes((1,))


def test_the_rewriting_holds_on_the_module(point):
    # every reduction is an identity of the 2^N matrices
    n = 3
    gens = ModuleSpec.big(n, point).generators
    words = PairWords(point, n, (2, 3))
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.choice((2, 3)) for _ in range(rng.randrange(1, 7)))
        (reduced, c), = _reduced(words, word).items()
        assert word_product(gens, word) == word_product(gens, reduced).scale(c)
    # and a sum of scaled products evaluates to its matrix, which is zero
    # whenever the sum reduces to zero
    zero = Matrix.zeros(2 ** n, 2 ** n)
    element = lambda: {tuple(rng.choice((2, 3))
                             for _ in range(rng.randrange(0, 4))):
                       rng.choice((1, -1, point.delta))}
    for k in range(40):
        terms = [(rng.choice((1, -2, point.s2)),
                  *(element() for _ in range(rng.randrange(0, 3))))
                 for _ in range(rng.randrange(1, 4))]
        if k % 4 == 0:  # a sum that reduces to zero
            terms += [(-c, *factors) for c, *factors in terms]
            assert words.vanishes(*terms)
        expected = zero
        for c, *factors in terms:
            prod = Matrix.identity(2 ** n).scale(c)
            for factor in factors:
                prod = prod @ sum((word_product(gens, w).scale(x)
                                   for w, x in factor.items()), zero)
            expected = expected + prod
        assert evaluate(gens, terms) == expected
        if words.vanishes(*terms):
            assert expected == zero
    e2, e3 = {(2,): 1}, {(3,): 1}
    assert words.vanishes((1, e2, e3, e2), (-1, e2))
    assert evaluate(gens, [(1, e2, e3, e2), (-1, e2)]) == zero


# ---------------------------------------------------------------------------
# the path bases grown in integers


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_integer_growth_gives_the_value_columns(any_point, n):
    for rep in (ModuleRep(ModuleSpec.big(n, any_point)),
                SpinRep(n, any_point)):
        basis = build_b1(rep)
        # the columns are in lowest terms, as the column format requires
        assert all(gcd(d, *col) == 1 for d, col in basis.columns)
        assert basis.change_of_basis.rows == old_build_b1(rep).rows
        assert basis.change_of_basis._den is None


@pytest.mark.parametrize("n", (1, 2))
def test_symbolic_growth_keeps_the_value_loop(n):
    point = SymbolicPoint()
    for rep in (ModuleRep(ModuleSpec.big(n, point)), SpinRep(n, point)):
        assert build_b1(rep).change_of_basis.rows == old_build_b1(rep).rows


def test_the_certificate_matches_the_dense_rows():
    rng = random.Random(11)
    p = _CERTIFICATE_PRIMES[0]
    for k in range(40):
        n = rng.randrange(1, 6)
        rows = [[RAT(rng.randrange(-9, 10), rng.choice((1, 2, 3, 7, p)))
                 if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if k % 5 == 0:  # a repeated row: singular
            rows[-1] = list(rows[0])
        m = Matrix(rows)
        assert (nonsingular_certificate(columns_of(m))
                == old_nonsingular_certificate(m))
    ints = Matrix([[2, 1], [1, 1]])
    assert (nonsingular_certificate(columns_of(ints))
            == old_nonsingular_certificate(ints))


def test_the_certificate_of_a_spin_path_basis(any_point):
    basis = build_b1(SpinRep(4, any_point))
    got = nonsingular_certificate(basis.columns)
    assert "change_of_basis" not in vars(basis)
    cob = basis.change_of_basis
    assert got == old_nonsingular_certificate(cob)
    assert cob._den is None


# ---------------------------------------------------------------------------
# the small savings


class _PerturbedSpin(SpinRep):
    def __init__(self, n, point, bad):
        super().__init__(n, point)
        self.bad = bad

    def e_matrix(self, i):
        mat = super().e_matrix(i)
        return _bump(mat, 0, 1) if i == self.bad else mat


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_ebar_identities_match_the_formed_levels(any_point, n):
    rep = SpinRep(n, any_point)
    assert ebar_identities(rep) == old_ebar_identities(rep)


@pytest.mark.parametrize("n, bad", ((3, 0), (3, 1), (4, 2), (5, 3)))
def test_a_failed_level_forms_the_next_from_scratch(point, n, bad):
    rep = _PerturbedSpin(n, point, bad)
    new = ebar_identities(rep)
    assert new == old_ebar_identities(rep)
    assert _failed(new)


def test_ebar_reuse_halves_the_generator_applications(monkeypatch, point):
    rep = SpinRep(6, point)
    products = []
    original = Matrix.__matmul__

    def counted(a, b):
        products.append(b.ncols)
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    ebar_identities(rep)
    assert products.count(1) == 63


def test_q_power_is_formed_once_per_exponent(point):
    x = HalfExponent(3, -1, 2, 1)
    value = point.s ** 3 * point.a ** -1 * point.v ** 2 * point.t
    assert point.q_power(x) == value
    assert point.q_power(x) is point.q_power(HalfExponent(3, -1, 2, 1))
    fresh = make_param_point(1)
    assert fresh == point and hash(fresh) == hash(point)


def test_action_table_weighs_each_weight_once(monkeypatch, point):
    spec = ModuleSpec.big(5, point)
    old = [old_action_table(spec, i) for i in range(6)]
    calls = []
    original = ModuleSpec.weigh

    def counted(self, weight, pairs):
        calls.append((weight, pairs))
        return original(self, weight, pairs)

    monkeypatch.setattr(ModuleSpec, "weigh", counted)
    for i in range(6):
        calls.clear()
        assert action_table(spec, i) == old[i]
        assert len(calls) == len(set(calls))


def test_word_product_starts_from_the_first_letter(point):
    gens = ModuleSpec.big(3, point).generators
    assert word_product(gens, (2,)) is gens[2]
    assert word_product(gens, ()) == Matrix.identity(8)
    ident = Matrix.identity(8)
    assert word_product(gens, (1, 2, 0)) == ident @ gens[1] @ gens[2] @ gens[0]


def test_the_cli_imports_symbolic_only_when_asked():
    check = ("import sys, tl2b.cli\n"
             "print('tl2b.symbolic' in sys.modules)\n")
    src = str(Path(tl2b.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
