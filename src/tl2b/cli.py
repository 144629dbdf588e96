"""Batch command line: audits, determinants, bases, and structure reports.

Every command writes one JSON document (schema ``tl2b/1``) that embeds the
point, the seed and the library version, and exits nonzero if any audited
identity fails.  Reports are byte-identical for identical configuration.
``_check_request`` refuses, before any work, a negative ``--bound`` and a
chain length or twist that the command and backend do not serve; that and
every other bad input get the ``tl2b/1`` error record and exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from . import __version__
from ._ratback import BACKEND, rat_from_str
from .audit import Records, audit
from .scalars import GenericityError, ParamPoint, make_param_point
from .linalg import exact_det
from . import hecke, irreps, pathbasis, spinchain, wordrep


_SIGNS = {"+": 1, "-": -1, "1": 1, "-1": -1}


def _sign(text: str) -> int:
    if text not in _SIGNS:
        raise ValueError(f"--theta sign {text!r} is not one of + - 1 -1")
    return _SIGNS[text]


def _parse_theta(text: str):
    """generic | 'sign,m,eps1,eps2' | explicit rational 'p/q'; any text with
    a comma is a critical twist."""
    text = text.strip()
    if text == "generic":
        return ("generic", None)
    if "," not in text:
        return ("explicit", rat_from_str(text))
    try:
        sign, m, eps1, eps2 = (p.strip() for p in text.split(","))
        m = int(m)
    except ValueError:
        raise ValueError(f"--theta {text!r} is not a critical twist "
                         "sign,m,eps1,eps2 with an integer m") from None
    return ("exceptional", (_sign(sign), m, _sign(eps1), _sign(eps2)))


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


#: largest n served, by backend and command; a command missing from a
#: backend's table is not served on it.  Numeric commands build modules of
#: dimension up to 2^n, and 8 is the largest n any test uses.  At n = 4,
#: symbolic ``relations`` takes 2.8 s (one run) and ``spinchain`` 5.5
#: minutes (Python 3.11, shared 2-core Xeon), and the symbolic Gram
#: determinant does not finish at n = 3.
_MAX_N = {
    "numeric": {"relations": 8, "gram": 8, "basis": 8, "spinchain": 8,
                "irreps": 8, "modules": 8},
    "symbolic": {"relations": 4, "gram": 2, "basis": 4, "spinchain": 4,
                 "modules": 4},
}

#: largest n that ``irreps --theta generic`` serves: it checks every
#: identification case, about 30 s at n = 6, and its case of dimension 64 at
#: n = 7 did not finish in 600 s.  Critical twists are served to ``_MAX_N``.
_MAX_GENERIC_IRREPS_N = 6


def _check_request(args) -> None:
    """Refuse a request that is not served, before any work, and set
    ``args.twist`` to ``(mode, detail)``; a critical twist's detail is its
    ``ExceptionalSpec``."""
    if args.n < 2:
        raise ValueError(f"chain length must be at least 2, not n = {args.n}")
    if args.bound < 0:
        raise ValueError(f"--bound must be nonnegative, not {args.bound}")
    symbolic = "symbolic " if args.backend == "symbolic" else ""
    limit = _MAX_N[args.backend].get(args.command)
    if limit is None:
        raise ValueError(f"{symbolic}{args.command} is not supported")
    if args.n > limit:
        raise ValueError(f"{symbolic}{args.command} is supported for "
                         f"n <= {limit}, not n = {args.n}")
    mode, detail = _parse_theta(args.theta)
    if symbolic and mode != "generic":
        raise ValueError("the symbolic backend only supports --theta generic")
    if args.command == "irreps" and mode == "explicit":
        raise ValueError("irreps takes --theta generic or a critical twist, "
                         "not an explicit value")
    if (args.command == "irreps" and mode == "generic"
            and args.n > _MAX_GENERIC_IRREPS_N):
        raise ValueError(f"irreps --theta generic is supported for n <= "
                         f"{_MAX_GENERIC_IRREPS_N}, not n = {args.n}")
    if mode == "exceptional":
        detail = irreps.ExceptionalSpec(args.n, *detail)
    args.twist = (mode, detail)


def _build_point(args):
    mode, detail = args.twist
    if args.backend == "symbolic":
        from .symbolic import SymbolicPoint
        return SymbolicPoint()
    if mode == "exceptional":
        return irreps.make_exceptional_point(args.seed, detail, args.bound)
    base = make_param_point(args.seed, args.bound)
    if mode == "generic":
        return base
    return ParamPoint(base.s, base.a, base.v, detail,
                      genericity_bound=args.bound, theta_mode="explicit")


def _envelope(args, results, extra) -> dict:
    failures = [r for r in results if r.get("status") == "fail"]
    doc = {
        "schema": "tl2b/1",
        "command": args.command,
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
    doc.update(extra)
    return doc


def _emit(args, report) -> int:
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as handle:
        if args.format == "json":
            handle.write(json.dumps(report, indent=2, sort_keys=True,
                                    default=str) + "\n")
        else:
            handle.write(_to_csv(report))
    return 0 if report["status"] == "pass" else 1


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


def cmd_relations(args) -> tuple[list, dict]:
    point = _build_point(args)
    spec = wordrep.ModuleSpec.big(args.n, point)
    # every record about spec.generators, by identity id: the audits keep
    # their records here and derive records from the ones they find
    store = Records(spec.generators, point)
    results = wordrep.relation_audit(spec, store)
    gens = hecke.lift_to_hecke(spec)
    results += hecke.hecke_relation_audit(gens, store)
    affine = hecke.murphy("C", gens)
    for fam in (hecke.murphy("A", gens), hecke.murphy("B", gens), affine):
        results += hecke.murphy_commutation_audit(fam, store)
    results += hecke.equivalent_presentation_audit(affine, store)
    results += hecke.centre_audit(spec, affine)
    results += hecke.iji_audit(spec, affine)
    rep = pathbasis.ModuleRep(spec)
    results += pathbasis.ybe_audit(rep, store)
    results.sort(key=lambda r: r["identity_id"])
    return results, {"point": point.to_json()}


def cmd_gram(args) -> tuple[list, dict]:
    point = _build_point(args)
    spec = wordrep.ModuleSpec.big(args.n, point)
    gram = wordrep.gram_matrix(spec)
    brute = exact_det(gram)
    closed = pathbasis.gram_closed_form(args.n, point)
    closed_half = pathbasis.gram_closed_form_halfdiagram(args.n, point)
    results = [audit("gram.det.halfdiagram_basis",
                     None if brute == closed_half else "mismatch")]
    factor_table = []
    for item in pathbasis.gram_closed_form_report(args.n, point):
        e = item.get("exponent")
        factor = (item.get("prefactor_base")
                  or f"[({e.m} {e.c1}w1 {e.c2}w2 {e.c3}th)/2]")
        factor_table.append({"factor": factor, "mult": item["mult"],
                             "value": str(item["value"])})
    exc = [{"sign": s, "m": m, "eps1": e1, "eps2": e2}
           for (s, m, e1, e2) in pathbasis.exceptional_points(args.n)]
    return results, {
        "point": point.to_json(),
        "basis": [str(h) for h in spec.basis],
        "gram_matrix": [[str(x) for x in row] for row in gram.rows],
        "det_halfdiagram_basis": str(brute),
        "det_tile_basis": str(closed),
        "normalization_exponent": pathbasis.gram_normalization_exponent(args.n),
        "factor_table": factor_table,
        "exceptional_points": exc,
    }


def cmd_basis(args) -> tuple[list, dict]:
    point = _build_point(args)
    rep = pathbasis.ModuleRep(wordrep.ModuleSpec.big(args.n, point))
    basis = pathbasis.build_b1(rep)
    results = [audit("b1.order_independence",
                     pathbasis.tile_order_independence(basis))]
    results += pathbasis.action_audit_b1(basis)
    results += pathbasis.murphy_audit_b1(basis)
    results += pathbasis.idempotent_identities(rep)
    diag = pathbasis.gram_diag_b1(basis)
    results.sort(key=lambda r: r["identity_id"])
    return results, {
        "point": point.to_json(),
        "paths": [list(p) for p in basis.paths],
        "gram_diagonal": {",".join(map(str, p)): str(diag[p])
                          for p in basis.paths},
    }


def cmd_spinchain(args) -> tuple[list, dict]:
    point = _build_point(args)
    rep = spinchain.SpinRep(args.n, point)
    results = spinchain.spin_relation_audit(rep)
    results += spinchain.twist_symmetry_audit(rep)
    results += spinchain.equivalence_audit(rep)
    results.sort(key=lambda r: r["identity_id"])
    return results, {
        "point": point.to_json(),
        "ebar": spinchain.spin_vector_to_json(rep.fundamental_vector(),
                                              args.n),
    }


def cmd_irreps(args) -> tuple[list, dict]:
    mode, espec = args.twist
    results = []
    if mode == "exceptional":
        point = _build_point(args)
        spec = wordrep.ModuleSpec.big(args.n, point)
        basis = pathbasis.build_b1(pathbasis.ModuleRep(spec))
        pair = irreps.detect_invariant(basis, espec)
        results += irreps.family_relation_audit(pair.sub, point,
                                                "irreps.sub.family.")
        results += irreps.family_relation_audit(pair.quo, point,
                                                "irreps.quo.family.")
        results.append(audit("irreps.central.sub", irreps.central_character(
            pair.sub, point, espec.theta_exponent())))
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
    return results, extra


def cmd_modules(args) -> tuple[list, dict]:
    point = _build_point(args)
    nodes = []
    edges = []
    n = args.n
    for nn, e1, e2 in pathbasis.critical_labels(n):
        n_through = wordrep.through_line_count(nn, e1, e2)
        if not n_through:
            continue
        spec = wordrep.ModuleSpec.through_lines(n, nn, e1, e2, point)
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
    return results, {
        "point": point.to_json(),
        "modules": nodes,
        "embedding_edges": edges,
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise, so that they get the error
    record; ``--help`` still prints and exits."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
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
    # argparse sets ``command`` before it parses the command's arguments,
    # so the error record names it even when those do not parse
    args = argparse.Namespace(command=None)
    try:
        parser.parse_args(argv, namespace=args)
        _check_request(args)
        if args.out:  # an unwritable path fails here, before any work
            created = not os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()
        try:
            with _unlimited_int_strings():
                results, extra = args.func(args)
                return _emit(args, _envelope(args, results, extra))
        except BaseException:  # a failed command leaves no file it made
            if args.out and created:
                os.remove(args.out)
            raise
    except (GenericityError, ValueError, ArithmeticError, OSError) as exc:
        record = {"schema": "tl2b/1", "command": args.command,
                  "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
