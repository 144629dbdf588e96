"""Exceptional twists: invariant blocks, sub/quotient families, and the
equivalence evidence between diagram modules and path-basis constituents.

At the twist values where the closed Gram determinant vanishes, the 2^N
module becomes reducible but indecomposable: the paths with final height
beyond a threshold span an invariant coordinate block.  The block and its
complement give two smaller representations whose dimensions, central
scalars and single-boundary Murphy spectra are computed here, together with
an exact trace-comparison engine that gathers evidence (never proof) that
the sub-representation matches the corresponding through-line module.

A generator family holds the matrices of e_0 .. e_N at indices 0 .. N: a
tuple, or a dict keyed 0 .. N.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._ratback import RAT
from .hecke import central_element, lift_family, murphy
# ``invert`` is unused here but stays bound: perfbench/tracer.py rebinds it
from .linalg import Matrix, invert, rank  # noqa: F401
from .scalars import (GenericityError, HalfExponent, OMEGA1, OMEGA2,
                      ParamPoint, derive_params)
from .pathbasis import (BasisB1, ModuleRep, build_b1, exceptional_points,
                        murphy_eigenvalue)
from .wordrep import ModuleSpec, check_relations, irrep_dim


@dataclass(frozen=True)
class ExceptionalSpec:
    """A twist q^th = (q^-m q^(e1 w1) q^(e2 w2))^sign from the critical list."""

    n_sites: int
    sign: int
    m: int
    eps1: int
    eps2: int

    def __post_init__(self):
        if (self.sign, self.m, self.eps1, self.eps2) not in set(
                exceptional_points(self.n_sites)):
            raise ValueError("not an exceptional twist for this chain length")

    def tau(self, s, a, v):
        """The value of q^(th/2) forced by this twist."""
        base = s ** (-self.m) * a ** self.eps1 * v ** self.eps2
        return base if self.sign == 1 else 1 / base

    def kernel_vector(self) -> tuple[int, int, int, int]:
        """Integer relation satisfied by (s, a, v, t) at this point."""
        return (self.m * self.sign, -self.eps1 * self.sign,
                -self.eps2 * self.sign, 1)

    def theta_exponent(self) -> HalfExponent:
        """th as a half-exponent, for central-character formulas."""
        return (HalfExponent.integer(-self.m) + OMEGA1.scale(self.eps1)
                + OMEGA2.scale(self.eps2)).scale(self.sign)


def make_exceptional_point(seed: int, espec: ExceptionalSpec,
                           genericity_bound: int = 40,
                           max_retries: int = 200) -> ParamPoint:
    """Generic (s, a, v) with the twist value forced by the spec.

    Rejects draws whose induced q^th collides with a different entry of the
    critical list (the standing distinctness assumption)."""
    rng = random.Random(seed)
    others = [e for e in exceptional_points(espec.n_sites)
              if e != (espec.sign, espec.m, espec.eps1, espec.eps2)]
    for _ in range(max_retries):
        draws = []
        for _ in range(3):
            while True:
                num = rng.randrange(2, 98)
                den = rng.randrange(2, 98)
                if num != den and math.gcd(num, den) == 1:
                    break
            draws.append(RAT(num, den))
        s, a, v = draws
        t = espec.tau(s, a, v)
        q_theta = t * t
        collision = False
        for sign, m, e1, e2 in others:
            other = (s ** (-m) * a ** e1 * v ** e2) ** sign
            if other * other == q_theta:
                collision = True
                break
        if collision:
            continue
        try:
            return ParamPoint(s, a, v, t, genericity_bound=genericity_bound,
                              theta_mode="exceptional")
        except GenericityError:
            continue
    raise GenericityError(
        f"no admissible exceptional point found after {max_retries} draws")


# ---------------------------------------------------------------------------
# invariant blocks


@dataclass
class SubQuotientPair:
    """Generator families on the invariant block and on its complement."""

    espec: ExceptionalSpec
    sub_paths: list
    quo_paths: list
    sub: tuple[Matrix, ...]
    quo: tuple[Matrix, ...]

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.sub_paths), len(self.quo_paths))


def detect_invariant(basis: BasisB1, espec: ExceptionalSpec) -> SubQuotientPair:
    """Find the invariant coordinate block at an exceptional twist.

    The block is spanned by the paths with final height >= m+1 when the
    twist carries +w1, and <= -m-1 when it carries -w1; block-triangularity
    of every generator against it is verified exactly."""
    n = basis.n_sites
    if espec.eps1 == 1:
        in_sub = lambda p: p[n] >= espec.m + 1
    else:
        in_sub = lambda p: p[n] <= -espec.m - 1
    sub_idx = [i for i, p in enumerate(basis.paths) if in_sub(p)]
    quo_idx = [i for i, p in enumerate(basis.paths) if not in_sub(p)]
    mats = tuple(basis.generator_in_coordinates(i) for i in range(n + 1))
    for i, mat in enumerate(mats):
        for r in quo_idx:
            for c in sub_idx:
                if mat[r, c]:
                    raise ArithmeticError(
                        f"block is not invariant under e_{i} at entry "
                        f"({r},{c}); the point is not exceptional as claimed")
    sub = tuple(mat.submatrix(sub_idx, sub_idx) for mat in mats)
    quo = tuple(mat.submatrix(quo_idx, quo_idx) for mat in mats)
    return SubQuotientPair(espec,
                           [basis.paths[i] for i in sub_idx],
                           [basis.paths[i] for i in quo_idx],
                           sub, quo)


def family_relation_audit(family: tuple[Matrix, ...], params,
                          prefix: str = "family.") -> list[dict]:
    """Defining relations on an arbitrary generator family."""
    records = check_relations(family, params, prefix)
    return sorted(records, key=lambda r: r["identity_id"])


# ---------------------------------------------------------------------------
# central characters


def central_character(family: tuple[Matrix, ...], point):
    """The scalar by which the centre acts, or an error report.

    Returns (scalar, None) when the central matrix is exactly scalar, and
    (None, offending entry) otherwise; a non-scalar centre signals that the
    family is reducible."""
    z = central_element(murphy("C", lift_family(family, point)))
    c = z.scalar_multiple_of_identity()
    if c is None:
        return None, z.first_nonzero()
    return c, None


def expected_character(point, n_sites: int, x: HalfExponent):
    """[N] (q^x + q^-x), the central scalar written pole-free."""
    return (point.qnum(HalfExponent.integer(n_sites))
            * (point.q_power(x) + point.q_power(-x)))


# ---------------------------------------------------------------------------
# Murphy spectra


def eigenvalue_multiplicity(mat: Matrix, lam) -> int:
    shifted = mat - Matrix.identity(mat.nrows).scale(lam)
    return mat.nrows - rank(shifted)


def murphy_spectrum_match(family: tuple[Matrix, ...], point, paths) -> bool:
    """The family's Murphy spectra agree with the path-predicted multisets.

    For each Murphy element the predicted eigenvalues must exhaust the space
    with the predicted multiplicities (which also certifies
    diagonalisability)."""
    js = murphy("B", lift_family(family, point)).j
    dim = family[0].nrows
    for m, jm in enumerate(js):
        predicted: dict = {}
        for p in paths:
            lam = murphy_eigenvalue(point, m, p)
            predicted[lam] = predicted.get(lam, 0) + 1
        total = 0
        for lam, mult in predicted.items():
            got = eigenvalue_multiplicity(jm, lam)
            if got != mult:
                return False
            total += got
        if total != dim:
            return False
    return True


# ---------------------------------------------------------------------------
# trace comparison


def _flatten_pair(a: Matrix, b: Matrix) -> list:
    return [x for row in a.rows for x in row] + [x for row in b.rows for x in row]


class _Span:
    """Incremental exact row space with reduction, for pair matrices."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def reduce(self, vec: list) -> list:
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            if vec[piv]:
                f = vec[piv] / row[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec: list) -> bool:
        vec = self.reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        self.rows.append(vec)
        self.pivots.append(piv)
        return True


def traces_agree_all_words(fam_a: tuple[Matrix, ...],
                           fam_b: tuple[Matrix, ...]) -> tuple[bool, int]:
    """Exact trace agreement of both families on every generator word.

    Breadth-first closure of the joint word span: once the span of pairs
    (word in A, word in B) is multiplicatively closed, trace equality on its
    basis decides trace equality for words of every length.  Returns
    (agree, number of words explicitly expanded)."""
    n = len(fam_a) - 1
    da, db = fam_a[0].nrows, fam_b[0].nrows
    span = _Span(da * da + db * db)
    start = (Matrix.identity(da), Matrix.identity(db))
    queue = [start]
    span.add(_flatten_pair(*start))
    words = 1
    agree = True
    while queue:
        a, b = queue.pop()
        for i in range(n + 1):
            na, nb = a @ fam_a[i], b @ fam_b[i]
            if span.add(_flatten_pair(na, nb)):
                words += 1
                tra = sum(na[k, k] for k in range(da))
                trb = sum(nb[k, k] for k in range(db))
                if tra != trb:
                    agree = False
                queue.append((na, nb))
    return agree, words


def random_word_traces_agree(fam_a, fam_b, count: int, max_len: int,
                             seed: int) -> bool:
    rng = random.Random(seed)
    n = len(fam_a) - 1
    da, db = fam_a[0].nrows, fam_b[0].nrows
    for _ in range(count):
        length = rng.randrange(1, max_len + 1)
        word = [rng.randrange(0, n + 1) for _ in range(length)]
        a, b = Matrix.identity(da), Matrix.identity(db)
        for i in word:
            a, b = a @ fam_a[i], b @ fam_b[i]
        tra = sum(a[k, k] for k in range(da))
        trb = sum(b[k, k] for k in range(db))
        if tra != trb:
            return False
    return True


# ---------------------------------------------------------------------------
# the equivalence verdict


def conjecture_check(n_sites: int, n: int, eps1: int, eps2: int,
                     seed: int = 1) -> dict:
    """Desk-scale evidence that the through-line module matches the
    invariant block at its twist; 'equivalent' is evidence, never proof."""
    espec = ExceptionalSpec(n_sites, 1, n, eps1, eps2)
    point = make_exceptional_point(seed, espec)
    params = derive_params(point)
    spec_lines = ModuleSpec.through_lines(n_sites, n, eps1, eps2, params)
    fam_w = spec_lines.generators
    big = ModuleSpec.big(n_sites, params)
    basis = build_b1(ModuleRep(big))
    pair = detect_invariant(basis, espec)
    fam_v = pair.sub
    report: dict = {
        "case": {"N": n_sites, "n": n, "eps1": eps1, "eps2": eps2,
                 "seed": seed},
        "dims": {"lines_module": fam_w[0].nrows, "invariant_block":
                 fam_v[0].nrows, "expected": irrep_dim(n_sites, n)},
    }
    dims_ok = fam_w[0].nrows == fam_v[0].nrows == irrep_dim(n_sites, n)
    x = espec.theta_exponent()
    lam_expect = expected_character(point, n_sites, x)
    lam_w, err_w = central_character(fam_w, point)
    lam_v, err_v = central_character(fam_v, point)
    central_ok = (err_w is None and err_v is None
                  and lam_w == lam_v == lam_expect)
    report["central_match"] = central_ok
    murphy_ok = (murphy_spectrum_match(fam_w, point, pair.sub_paths)
                 and murphy_spectrum_match(fam_v, point, pair.sub_paths))
    report["murphy_match"] = murphy_ok
    agree, n_words = traces_agree_all_words(fam_w, fam_v)
    random_ok = random_word_traces_agree(fam_w, fam_v, 64, 4 * n_sites,
                                         seed + 64)
    report["trace_words_checked"] = n_words + 64
    trace_ok = agree and random_ok
    report["trace_match"] = trace_ok
    verdict = "equivalent" if (dims_ok and central_ok and murphy_ok
                               and trace_ok) else "not decided"
    report["verdict"] = verdict
    return report


def conjecture_cases(n_sites: int) -> list[tuple[int, int, int]]:
    """(n, eps1, eps2) triples covered by the identification conjecture;
    only parities that leave at least one through line name a module."""
    out = []
    start = 1 if n_sites % 2 == 0 else 2
    for n in range(start, n_sites, 2):
        for e1 in (1, -1):
            for e2 in (1, -1):
                if n + (e1 + e2) // 2 >= 1:
                    out.append((n, e1, e2))
    if n_sites % 2 == 1:
        out.append((0, 1, 1))
    return out


__all__ = [
    "ExceptionalSpec", "SubQuotientPair", "central_character",
    "conjecture_cases", "conjecture_check", "detect_invariant",
    "expected_character", "family_relation_audit", "make_exceptional_point",
    "murphy_spectrum_match", "random_word_traces_agree",
    "traces_agree_all_words",
]
