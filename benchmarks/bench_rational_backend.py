#!/usr/bin/env python3
"""Compare the compiled rational backend against the pure-Python fallback.

The package selects gmpy2's compiled mpq at import when available and falls
back to fractions.Fraction otherwise (TL2B_RATIONAL=fraction forces the
fallback).  This script times the hot kernels under both backends in
subprocesses:

* building the 2^N Gram matrix,
* its determinant,
* a chain of exact module-matrix products,
* growing the full path basis.

Run:  python benchmarks/bench_rational_backend.py [N]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

WORK = textwrap.dedent("""
    import json, sys, time
    sys.path.insert(0, "src")
    import tl2b
    from tl2b.scalars import make_param_point, derive_params
    from tl2b import wordrep, pathbasis
    from tl2b.linalg import exact_det

    n = int(sys.argv[1])
    point = make_param_point(1)
    params = derive_params(point)
    spec = wordrep.ModuleSpec.big(n, params)
    times = {"backend": tl2b.BACKEND}

    t0 = time.perf_counter()
    gram = wordrep.gram_matrix(spec)
    times["gram_build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    det = exact_det(gram)
    times["gram_det"] = time.perf_counter() - t0

    rep = pathbasis.ModuleRep(spec)
    mats = [rep.e_matrix(i) for i in range(n + 1)]
    t0 = time.perf_counter()
    acc = mats[0]
    for _ in range(3):
        for m in mats:
            acc = acc @ m
    times["matrix_chain"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pathbasis.build_b1(rep)
    times["basis_build"] = time.perf_counter() - t0

    print(json.dumps(times))
""")


def run(backend: str, n: int) -> dict:
    env = dict(os.environ, TL2B_RATIONAL=backend)
    out = subprocess.run([sys.executable, "-c", WORK, str(n)],
                         capture_output=True, text=True, env=env,
                         cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if out.returncode != 0:
        lines = out.stderr.strip().splitlines()
        raise RuntimeError(lines[-1] if lines else f"exit code {out.returncode}")
    return json.loads(out.stdout)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    rows = []
    for backend in ("gmpy2", "fraction"):
        try:
            rows.append(run(backend, n))
        except RuntimeError as exc:  # gmpy2 may be absent
            print(f"backend {backend}: unavailable ({exc})")
    if not rows:
        return
    keys = [k for k in rows[0] if k != "backend"]
    header = "kernel".ljust(16) + "".join(r["backend"].rjust(12) for r in rows)
    if len(rows) == 2:
        header += "speedup".rjust(10)
    print(f"chain length N = {n}")
    print(header)
    for k in keys:
        line = k.ljust(16) + "".join(f"{r[k]:.3f}s".rjust(12) for r in rows)
        if len(rows) == 2 and rows[0][k] > 0:
            line += f"{rows[1][k] / rows[0][k]:.1f}x".rjust(10)
        print(line)


if __name__ == "__main__":
    main()
