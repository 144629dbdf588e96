"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is an exact identity on exact rationals; tolerances are all
zero by construction.  Run with ``pytest tests/test_acceptance.py -s`` to
see the per-criterion lines; the deselected-by-default slow markers extend
two criteria to the 256-dimensional chain.
"""

from __future__ import annotations

import time

import pytest

from tl2b._ratback import RAT
from tl2b.linalg import exact_det
from tl2b.scalars import ParamPoint, make_param_point
from tl2b import hecke, irreps, pathbasis, spinchain, wordrep

SEEDS = (1, 2, 3)


def _announce(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_small_gram_determinant():
    start = time.time()
    ok = True
    for seed in SEEDS:
        point = make_param_point(seed)
        spec = wordrep.ModuleSpec.big(2, point)
        det = exact_det(wordrep.gram_matrix(spec))
        b, d, s1, s2 = spec.b, point.delta, point.s1, point.s2
        ok = ok and det == b * (b - s1) * (b - s2) * (b - s1 - s2 + d * s1 * s2)
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _announce(1, ok, "4x4 Gram determinant factorisation at 3 points "
              f"({elapsed:.2f}s)")


def test_criterion_2_closed_form_determinant():
    start = time.time()
    ok = True
    for n in range(2, 7):
        exponent = pathbasis.gram_normalization_exponent(n)
        for seed in SEEDS:
            point = make_param_point(seed)
            spec = wordrep.ModuleSpec.big(n, point)
            brute = exact_det(wordrep.gram_matrix(spec))
            closed = pathbasis.gram_closed_form(n, point)
            # the product formula (prefactor included) in its own basis
            # normalisation, tied to the half-diagram determinant by the
            # exact boundary-tile factor
            ok = ok and brute == closed * point.s1 ** exponent
            # and the formula against the independent tile recursion
            basis = pathbasis.build_b1(pathbasis.ModuleRep(spec))
            diag = pathbasis.gram_diag_b1(basis)
            product = point.one
            for p in basis.paths:
                product = product * diag[p]
            ok = ok and product == closed
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    _announce(2, ok, "closed determinant vs brute force, N=2..6, 3 points "
              f"each ({elapsed:.1f}s)")


def test_criterion_3_dimension_tables():
    point = make_param_point(1)
    ok = True
    for n in range(2, 11):
        start = 1 if n % 2 == 0 else 0
        for nn in range(start, n + 1, 2):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    if not 1 <= nn + (e1 + e2) // 2 <= n:
                        continue
                    spec = wordrep.ModuleSpec.through_lines(n, nn, e1, e2,
                                                            point)
                    ok = ok and (len(wordrep.enumerate_basis(spec))
                                 == wordrep.irrep_dim(n, nn))
        ok = ok and len(wordrep.enumerate_basis(
            wordrep.ModuleSpec.big(n, point))) == 1 << n
    dims3 = sorted([len(wordrep.enumerate_basis(
        wordrep.ModuleSpec.through_lines(3, 2, e1, e2, point)))
        for e1 in (1, -1) for e2 in (1, -1)])
    dims3 += [len(wordrep.enumerate_basis(
        wordrep.ModuleSpec.through_lines(3, 0, 1, 1, point)))]
    dims3 += [len(wordrep.enumerate_basis(wordrep.ModuleSpec.big(3, point)))]
    ok = ok and dims3 == [1, 1, 1, 1, 4, 8]
    _announce(3, ok, "module dimensions equal ballot sums for N <= 10")


def test_criterion_4_murphy_diagonalisation():
    point = make_param_point(1)
    ok = True
    for n in range(2, 9):
        rep = pathbasis.ModuleRep(wordrep.ModuleSpec.big(n, point))
        basis = pathbasis.build_b1(rep)
        records = pathbasis.murphy_audit_b1(basis)
        ok = ok and all(r["status"] == "pass" for r in records)
    _announce(4, ok, "path basis diagonalises the single-boundary Murphy "
              "family with distinct spectra, N <= 8")


def test_criterion_5_central_element():
    ok = True
    for seed in SEEDS[:1]:
        point = make_param_point(seed)
        for n in range(2, 7):
            spec = wordrep.ModuleSpec.big(n, point)
            records = hecke.centre_audit(
                spec, hecke.murphy("C", hecke.lift_to_hecke(spec)))
            ok = ok and all(r["status"] == "pass" for r in records)
    # characters of the invariant blocks and their quotients
    for n in (3, 4, 5):
        for spec_tuple in pathbasis.exceptional_points(n)[:4]:
            espec = irreps.ExceptionalSpec(n, *spec_tuple)
            point = irreps.make_exceptional_point(1, espec)
            basis = pathbasis.build_b1(
                pathbasis.ModuleRep(wordrep.ModuleSpec.big(n, point)))
            pair = irreps.detect_invariant(basis, espec)
            for family in (pair.sub, pair.quo):
                ok = ok and irreps.central_character(
                    family, point, espec.theta_exponent()).is_zero()
    _announce(5, ok, "central element is the expected scalar on the 2^N "
              "module (N <= 6) and on the block families")


def test_criterion_6_quotient_evaluations():
    point = make_param_point(1)
    ok = True
    total = 0
    for n in range(2, 7):
        spec = wordrep.ModuleSpec.big(n, point)
        records = hecke.iji_audit(
            spec, hecke.murphy("C", hecke.lift_to_hecke(spec)))
        total += len(records)
        ok = ok and all(r["status"] == "pass" for r in records)
    _announce(6, ok, f"all {total} horizontal-line evaluations "
              "(recursions, explicit, inverse, normalisations, assembled), "
              "N = 2..6")


def test_criterion_7_spin_chain_equivalence():
    point = make_param_point(1)
    ok = True
    for n in range(2, 7):
        records = spinchain.equivalence_audit(spinchain.SpinRep(n, point))
        ok = ok and all(r["status"] == "pass" for r in records)
    _announce(7, ok, "path coordinates agree entry-by-entry on both models "
              "and the boundary identities hold on the product vector, "
              "N <= 6")


def test_criterion_8_exceptional_points():
    ok = True
    start = time.time()
    for n in range(2, 7):
        for spec_tuple in pathbasis.exceptional_points(n):
            espec = irreps.ExceptionalSpec(n, *spec_tuple)
            point = irreps.make_exceptional_point(1, espec)
            spec = wordrep.ModuleSpec.big(n, point)
            ok = ok and exact_det(wordrep.gram_matrix(spec)) == 0
            basis = pathbasis.build_b1(pathbasis.ModuleRep(spec))
            pair = irreps.detect_invariant(basis, espec)
            d_sub, d_quo = pair.dims
            expected = wordrep.irrep_dim(n, espec.m)
            ok = ok and (d_sub, d_quo) == (expected, (1 << n) - expected)
            if espec.m == 0:
                ok = ok and d_sub == 1 << (n - 1)
    # sixteen generic control twists per chain length
    base = make_param_point(1)
    for n in range(2, 7):
        exceptional_squares = set()
        for sign, m, e1, e2 in pathbasis.exceptional_points(n):
            tau = (base.s ** (-m) * base.a ** e1 * base.v ** e2) ** sign
            exceptional_squares.add(tau * tau)
        controls = 0
        k = 2
        while controls < 16:
            t = RAT(2 * k + 1, k)
            k += 1
            if t * t in exceptional_squares:
                continue
            try:
                point = ParamPoint(base.s, base.a, base.v, t,
                                   theta_mode="explicit")
            except Exception:
                continue
            det = exact_det(wordrep.gram_matrix(wordrep.ModuleSpec.big(n, point)))
            ok = ok and det != 0
            controls += 1
    _announce(8, ok, "determinant vanishes at every critical twist and at "
              f"none of 16 controls per N, N <= 6 ({time.time() - start:.1f}s)")


def test_criterion_9_relation_and_spectral_suite():
    ok = True
    for seed in SEEDS:
        point = make_param_point(seed)
        for n in range(2, 7):
            spec = wordrep.ModuleSpec.big(n, point)
            records = wordrep.relation_audit(spec)
            records += pathbasis.ybe_audit(pathbasis.ModuleRep(spec))
            ok = ok and all(r["status"] == "pass" for r in records)
    _announce(9, ok, "defining relations, Yang-Baxter, both reflections and "
              "unitarity, N <= 6, 3 seeds")


def test_criterion_10_identification_evidence():
    ok = True
    cases = 0
    for n_sites in range(2, 6):
        for (nn, e1, e2) in irreps.conjecture_cases(n_sites):
            report = irreps.conjecture_check(n_sites, nn, e1, e2, seed=1)
            ok = ok and report["verdict"] == "equivalent"
            cases += 1
    _announce(10, ok, f"all {cases} identification cases with N <= 5 report "
              "'equivalent' (desk-scale evidence, not proof)")


@pytest.mark.slow
def test_criterion_2_slow_extension_n8():
    point = make_param_point(1)
    spec = wordrep.ModuleSpec.big(8, point)
    brute = exact_det(wordrep.gram_matrix(spec))
    closed = pathbasis.gram_closed_form_halfdiagram(8, point)
    assert brute == closed
    print("[criterion  2+] PASS: 256x256 determinant matches the closed form")


@pytest.mark.slow
@pytest.mark.parametrize("n", (7, 8))
def test_relations_slow_extension(n):
    point = make_param_point(1)
    records = wordrep.relation_audit(wordrep.ModuleSpec.big(n, point))
    assert all(r["status"] == "pass" for r in records)


@pytest.mark.slow
@pytest.mark.parametrize("n", (7, 8))
def test_gram_diagonal_in_path_basis_slow(n):
    point = make_param_point(1)
    spec = wordrep.ModuleSpec.big(n, point)
    basis = pathbasis.build_b1(pathbasis.ModuleRep(spec))
    gram = wordrep.gram_matrix(spec)
    transported = basis.change_of_basis.transpose() @ gram @ basis.change_of_basis
    diag = pathbasis.gram_diag_b1(basis)
    # one dense read: each read of ``rows`` builds a new dense copy
    rows = transported.rows
    kappa = rows[0][0]
    for i, p in enumerate(basis.paths):
        for j, q in enumerate(basis.paths):
            expected = kappa * diag[p] if i == j else 0
            assert rows[i][j] == expected
