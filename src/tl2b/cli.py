"""Batch command line: audits, determinants, bases, and structure reports.

Every command writes one JSON document (schema ``tl2b/1``) that embeds the
point, the seed and the library version, and exits nonzero if any audited
identity fails.  Reports are byte-identical for identical configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from . import __version__
from ._ratback import BACKEND, rat_from_str
from .audit import audit
from .scalars import (GenericityError, ParamPoint, derive_params,
                      make_param_point)
from .symbolic import SymbolicPoint
from .linalg import exact_det
from . import hecke, irreps, pathbasis, spinchain, wordrep


_SIGNS = {"+": 1, "-": -1, "1": 1, "-1": -1}


def _sign(text: str) -> int:
    if text not in _SIGNS:
        raise ValueError(f"--theta sign {text!r} is not one of + - 1 -1")
    return _SIGNS[text]


def _parse_theta(text: str):
    """generic | 'sign,m,eps1,eps2' | explicit rational 'p/q'."""
    text = text.strip()
    if text == "generic":
        return ("generic", None)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 4:
        return ("exceptional", (_sign(parts[0]), int(parts[1]),
                                _sign(parts[2]), _sign(parts[3])))
    return ("explicit", rat_from_str(text))


@contextlib.contextmanager
def _unlimited_int_strings():
    """Lift the interpreter's cap on int-to-decimal conversion while a
    command runs: exact determinants from N = 7 on have more digits than the
    default 4300.  Every user-supplied string is parsed before, under it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _build_point(args):
    mode, detail = args.twist
    if args.backend == "symbolic":
        if mode != "generic":
            raise ValueError("the symbolic backend only supports --theta generic")
        return SymbolicPoint()
    if mode == "generic":
        return make_param_point(args.seed, args.bound)
    if mode == "exceptional":
        espec = irreps.ExceptionalSpec(args.n, *detail)
        return irreps.make_exceptional_point(args.seed, espec, args.bound)
    base = make_param_point(args.seed, args.bound)
    return ParamPoint(base.s, base.a, base.v, detail,
                      genericity_bound=args.bound, theta_mode="explicit")


def _envelope(args, command: str, results, extra=None) -> dict:
    failures = [r for r in results if r.get("status") == "fail"]
    doc = {
        "schema": "tl2b/1",
        "command": command,
        "version": __version__,
        "backend": BACKEND if args.backend == "numeric" else "symbolic",
        "config": {
            "n": args.n,
            "seed": args.seed,
            "bound": args.bound,
            "theta": args.theta,
        },
        "status": "fail" if failures else "pass",
        "first_failure": failures[0] if failures else None,
        "results": results,
    }
    if extra:
        doc.update(extra)
    return doc


def _emit(args, doc) -> int:
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as handle:
        if args.format == "json":
            handle.write(json.dumps(doc, indent=2, sort_keys=True,
                                    default=str) + "\n")
        else:
            handle.write(_to_csv(doc))
    return 0 if doc["status"] == "pass" else 1


def _to_csv(doc) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "gram_matrix" in doc:
        writer.writerow(["basis"] + doc["basis"])
        for label, row in zip(doc["basis"], doc["gram_matrix"]):
            writer.writerow([label] + row)
        return buf.getvalue()
    writer.writerow(["identity_id", "status", "deviation"])
    for r in doc["results"]:
        writer.writerow([r.get("identity_id"), r.get("status"),
                         r.get("deviation", "")])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def cmd_relations(args) -> int:
    point = _build_point(args)
    params = derive_params(point)
    spec = wordrep.ModuleSpec.big(args.n, params)
    results = list(wordrep.relation_audit(spec))
    gens = hecke.lift_to_hecke(spec)
    results += hecke.hecke_relation_audit(gens)
    affine = hecke.murphy("C", gens)
    for fam in (hecke.murphy("A", gens), hecke.murphy("B", gens), affine):
        results += hecke.murphy_commutation_audit(fam)
    results += hecke.equivalent_presentation_audit(affine)
    results += hecke.centre_audit(spec, affine)
    results += hecke.iji_audit(spec, affine)
    rep = pathbasis.ModuleRep(spec)
    results += pathbasis.ybe_audit(rep)
    results.sort(key=lambda r: r["identity_id"])
    doc = _envelope(args, "relations", results,
                    {"point": point.to_json()})
    return _emit(args, doc)


#: largest n whose symbolic Gram determinant finishes: at n = 3 the
#: elimination over Laurent fractions has not finished within minutes
_SYMBOLIC_GRAM_MAX_N = 2


def cmd_gram(args) -> int:
    if args.backend == "symbolic" and args.n > _SYMBOLIC_GRAM_MAX_N:
        raise ValueError("symbolic gram is supported for n <= "
                         f"{_SYMBOLIC_GRAM_MAX_N}, not n = {args.n}")
    point = _build_point(args)
    params = derive_params(point)
    spec = wordrep.ModuleSpec.big(args.n, params)
    gram = wordrep.gram_matrix(spec)
    brute = exact_det(gram)
    closed = pathbasis.gram_closed_form(args.n, point)
    closed_half = pathbasis.gram_closed_form_halfdiagram(args.n, point,
                                                         params.s1)
    factors = pathbasis.gram_closed_form_report(args.n, point)
    results = [audit("gram.det.halfdiagram_basis",
                     None if brute == closed_half else "mismatch")]
    basis = [str(h) for h in spec.basis]
    exc = [{"sign": s, "m": m, "eps1": e1, "eps2": e2}
           for (s, m, e1, e2) in pathbasis.exceptional_points(args.n)]
    factor_table = []
    for item in factors:
        if "prefactor_base" in item:
            factor_table.append({"factor": item["prefactor_base"],
                                 "mult": item["mult"],
                                 "value": str(item["value"])})
        else:
            e = item["exponent"]
            factor_table.append({"factor": f"[({e.m} {e.c1}w1 {e.c2}w2 {e.c3}th)/2]",
                                 "mult": item["mult"],
                                 "value": str(item["value"])})
    doc = _envelope(args, "gram", results, {
        "point": point.to_json(),
        "basis": basis,
        "gram_matrix": [[str(x) for x in row] for row in gram.rows],
        "det_halfdiagram_basis": str(brute),
        "det_tile_basis": str(closed),
        "normalization_exponent": pathbasis.gram_normalization_exponent(args.n),
        "factor_table": factor_table,
        "exceptional_points": exc,
    })
    return _emit(args, doc)


def cmd_basis(args) -> int:
    point = _build_point(args)
    params = derive_params(point)
    spec = wordrep.ModuleSpec.big(args.n, params)
    rep = pathbasis.ModuleRep(spec)
    basis = pathbasis.build_b1(rep)
    results = [audit("b1.order_independence",
                     pathbasis.tile_order_independence(basis))]
    results += pathbasis.action_audit_b1(basis)
    results += pathbasis.murphy_audit_b1(basis)
    results += pathbasis.idempotent_identities(rep)
    diag = pathbasis.gram_diag_b1(basis)
    results.sort(key=lambda r: r["identity_id"])
    doc = _envelope(args, "basis", results, {
        "point": point.to_json(),
        "paths": [list(p) for p in basis.paths],
        "gram_diagonal": {",".join(map(str, p)): str(diag[p])
                          for p in basis.paths},
    })
    return _emit(args, doc)


def cmd_spinchain(args) -> int:
    point = _build_point(args)
    params = derive_params(point)
    results = spinchain.spin_relation_audit(args.n, point, params)
    results += spinchain.twist_symmetry_audit(args.n, point)
    results += spinchain.equivalence_audit(args.n, point, params)
    results.sort(key=lambda r: r["identity_id"])
    ground = spinchain.ebar(args.n, point)
    doc = _envelope(args, "spinchain", results, {
        "point": point.to_json(),
        "ebar": spinchain.spin_vector_to_json(ground, args.n),
    })
    return _emit(args, doc)


def cmd_irreps(args) -> int:
    mode, detail = args.twist
    results = []
    extra = {}
    if mode == "exceptional":
        espec = irreps.ExceptionalSpec(args.n, *detail)
        point = irreps.make_exceptional_point(args.seed, espec, args.bound)
        params = derive_params(point)
        spec = wordrep.ModuleSpec.big(args.n, params)
        basis = pathbasis.build_b1(pathbasis.ModuleRep(spec))
        pair = irreps.detect_invariant(basis, espec)
        results += irreps.family_relation_audit(pair.sub, params,
                                                "irreps.sub.family.")
        results += irreps.family_relation_audit(pair.quo, params,
                                                "irreps.quo.family.")
        lam_s, err = irreps.central_character(pair.sub, point)
        expected = irreps.expected_character(point, args.n,
                                             espec.theta_exponent())
        if err is not None:  # the centre is not scalar on the block
            deviation = f"entry{err}"
        else:
            deviation = None if lam_s == expected else f"character {lam_s}"
        results.append(audit("irreps.central.sub", deviation))
        sub_dim = wordrep.irrep_dim(args.n, espec.m)
        extra = {"point": point.to_json(),
                 "dims": {"sub": pair.dims[0], "quo": pair.dims[1]},
                 "expected_dims": {"sub": sub_dim,
                                   "quo": (1 << args.n) - sub_dim}}
    else:
        verdicts = []
        for (n, e1, e2) in irreps.conjecture_cases(args.n):
            rep = irreps.conjecture_check(args.n, n, e1, e2, args.seed)
            verdicts.append(rep)
            results.append(audit(
                f"irreps.conjecture.n{n}.e{e1}.e{e2}",
                None if rep["verdict"] == "equivalent" else rep["verdict"]))
        extra = {"verdicts": verdicts,
                 "note": "equivalence verdicts are desk-scale evidence"}
    results.sort(key=lambda r: r["identity_id"])
    doc = _envelope(args, "irreps", results, extra)
    return _emit(args, doc)


def cmd_modules(args) -> int:
    point = _build_point(args)
    params = derive_params(point)
    nodes = []
    edges = []
    n = args.n
    start = 1 if n % 2 == 0 else 2
    ns = list(range(start, n + 1, 2))
    if n % 2 == 1:
        ns = [0] + ns
    for nn in ns:
        for e1 in (1, -1):
            for e2 in (1, -1):
                n_through = nn + (e1 + e2) // 2
                if not 1 <= n_through <= n:
                    continue
                spec = wordrep.ModuleSpec.through_lines(n, nn, e1, e2, params)
                name = f"W({n},{nn})[{'+' if e1 == 1 else '-'}{'+' if e2 == 1 else '-'}]"
                nodes.append({"module": name, "n": nn, "eps1": e1, "eps2": e2,
                              "through_lines": n_through,
                              "dim": spec.dim,
                              "expected_dim": wordrep.irrep_dim(n, nn)})
    nodes.append({"module": f"W({n})(b)", "n": None, "through_lines": 0,
                  "dim": 1 << n, "expected_dim": 1 << n})
    by_key = {(d["n"], d.get("eps1"), d.get("eps2")): d["module"]
              for d in nodes if d["n"] is not None}
    for d in nodes:
        if d["n"] is None:
            continue
        lower = (d["n"] - 2, d.get("eps1"), d.get("eps2"))
        if lower in by_key:
            edges.append({"from": d["module"], "to": by_key[lower]})
        elif d["through_lines"] <= 2:
            edges.append({"from": d["module"], "to": f"W({n})(b)"})
    results = [audit(f"modules.dim.{d['module']}",
                     None if d["dim"] == d["expected_dim"]
                     else f"dim {d['dim']}") for d in nodes]
    doc = _envelope(args, "modules", results, {
        "point": point.to_json(),
        "modules": nodes,
        "embedding_edges": edges,
    })
    return _emit(args, doc)


#: largest n of a command that builds the 2^n-dimensional module, so that a
#: larger request is refused up front instead of running out of time or
#: memory; 8 is the largest n any test uses.  ``modules`` only counts
#: dimensions and is exempt.
_MAX_N = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tl2b",
        description="exact audits for the two-boundary Temperley-Lieb algebra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("relations", cmd_relations), ("gram", cmd_gram),
                     ("basis", cmd_basis), ("spinchain", cmd_spinchain),
                     ("irreps", cmd_irreps), ("modules", cmd_modules)):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True, help="chain length")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--bound", type=int, default=40)
        p.add_argument("--theta", default="generic",
                       help="generic | 'sign,m,eps1,eps2' | rational 'p/q'")
        p.add_argument("--backend", choices=("numeric", "symbolic"),
                       default="numeric")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("chain length must be at least 2")
    if args.backend == "symbolic" and args.n > 4:
        parser.error("the symbolic backend is supported for n <= 4")
    try:
        if args.command != "modules" and args.n > _MAX_N:
            raise ValueError(f"{args.command} is supported for n <= {_MAX_N}, "
                             f"not n = {args.n} (a module of dimension "
                             f"2^{args.n})")
        args.twist = _parse_theta(args.theta)
        with _unlimited_int_strings():
            return args.func(args)
    except (GenericityError, ValueError, ArithmeticError) as exc:
        record = {"schema": "tl2b/1", "command": args.command,
                  "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
