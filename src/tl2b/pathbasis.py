"""The orthogonal path basis, its Gram form, and the closed determinant.

Basis vectors of the 2^N module are labelled by height paths
(0, h_1, ..., h_N) with unit steps.  Starting from the see-saw fundamental
path (0,-1,0,-1,...) every other path is built by adding square tiles:
a tile at bulk position i applies R_i(w1 - h) when its shoulder height
h = h_{i-1} is nonnegative (raising a local minimum) and R_i(-w1 + h) when
h < 0 (lowering a local maximum); a right-boundary half-tile applies
K_N(+-(w1 - h_{N-1})) with the same sign rule.  The fundamental vector is
the one-dimensional image of the nested idempotent E_N.

In this basis all boundary-adjacent structure is two-by-two: bulk action
vanishes on slopes, the left boundary is diagonal, and every Murphy element
of the intermediate (single-boundary) family is diagonal, which forces the
Gram matrix to be diagonal as well.  The diagonal entries follow a tile
recursion whose closed product form, with multiplicities given by ballot
sums, is evaluated here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .audit import audit
from .hecke import g_coefficients, murphy_word
from .linalg import Matrix, invert
from .scalars import ONE, OMEGA1, OMEGA2, THETA, HalfExponent
from .wordrep import ModuleSpec, idempotent_words, irrep_dim, word_product

Path = tuple[int, ...]


# ---------------------------------------------------------------------------
# spectral coefficients and operators


def r_coeff(u: HalfExponent, point):
    """r(u) = [u+1]/[u]."""
    return point.qnum(u + ONE) / point.qnum_nonzero(u)


def k_coeff(u: HalfExponent, point):
    """k(u) = -[(u-w2+th)/2][(u-w2-th)/2] / ([u][w2+1])."""
    top1 = (u - OMEGA2 + THETA).halved()
    top2 = (u - OMEGA2 - THETA).halved()
    if top1 is None or top2 is None:
        raise ValueError(f"argument {u} is not halvable against w2, th")
    return -(point.qnum(top1) * point.qnum(top2)
             / (point.qnum_nonzero(u) * point.qnum_nonzero(OMEGA2 + ONE)))


def kbar_coeff(u: HalfExponent, point):
    """Left-boundary mirror of k(u), with w1 and the same twist parameter."""
    top1 = (u - OMEGA1 + THETA).halved()
    top2 = (u - OMEGA1 - THETA).halved()
    if top1 is None or top2 is None:
        raise ValueError(f"argument {u} is not halvable against w1, th")
    return -(point.qnum(top1) * point.qnum(top2)
             / (point.qnum_nonzero(u) * point.qnum_nonzero(OMEGA1 + ONE)))


class ModuleRep:
    """A module with its generators e_0 .. e_N, each a Matrix."""

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        self.params = spec.params
        self.point = spec.params.point
        self.dim = spec.dim
        self.n_sites = spec.n_sites

    def apply_e(self, i: int, vec: list) -> list:
        return self.e_matrix(i).apply(vec)

    def e_matrix(self, i: int) -> Matrix:
        return self.spec.generators[i]

    def fundamental_vector(self) -> list:
        vec, _ = idempotent_image(self)
        return vec

    # operators -------------------------------------------------------------

    def apply_r(self, i: int, u: HalfExponent, vec: list) -> list:
        c = r_coeff(u, self.point)
        out = self.apply_e(i, vec)
        return [y - c * x for x, y in zip(vec, out)]

    def apply_k(self, u: HalfExponent, vec: list) -> list:
        c = k_coeff(u, self.point)
        out = self.apply_e(self.n_sites, vec)
        return [y - c * x for x, y in zip(vec, out)]

    def apply_g(self, i: int, sign: int, vec: list) -> list:
        lead, coeff = g_coefficients(self.point, self.n_sites, i, sign)
        out = self.apply_e(i, vec)
        if coeff == 1:  # bulk generators: no product with the unit
            return [lead * x + y for x, y in zip(vec, out)]
        return [lead * x + coeff * y for x, y in zip(vec, out)]

    def apply_murphy_b(self, m: int, vec: list) -> list:
        """J_m of the single-boundary family: g_m ... g_1 g_0 g_1 ... g_m."""
        for i in reversed(murphy_word("B", self.n_sites, m)):
            vec = self.apply_g(i, 1, vec)
        return vec


def matrix_r(rep: ModuleRep, i: int, u: HalfExponent) -> Matrix:
    return rep.e_matrix(i) - Matrix.identity(rep.dim).scale(r_coeff(u, rep.point))


def matrix_k(rep: ModuleRep, u: HalfExponent) -> Matrix:
    return rep.e_matrix(rep.n_sites) - Matrix.identity(rep.dim).scale(
        k_coeff(u, rep.point))


def matrix_kbar(rep: ModuleRep, u: HalfExponent) -> Matrix:
    return rep.e_matrix(0) - Matrix.identity(rep.dim).scale(
        kbar_coeff(u, rep.point))


# ---------------------------------------------------------------------------
# the nested idempotents


def idempotent_matrices(rep: ModuleRep,
                        level: int | None = None) -> list[Matrix]:
    """E_0 .. E_level (E_N by default), from E_0 = 1 and
    E_i = s1^((-1)^i) E_{i-1} e_{i-1} E_{i-1}."""
    level = rep.n_sites if level is None else level
    s1 = rep.params.s1
    out = [Matrix.identity(rep.dim)]
    for i in range(1, level + 1):
        prev = out[-1]
        out.append((prev @ rep.e_matrix(i - 1) @ prev).scale(
            s1 if i % 2 == 0 else 1 / s1))
    return out


def idempotent_matrix(rep: ModuleRep, level: int | None = None) -> Matrix:
    """E_level alone; see ``idempotent_matrices``."""
    return idempotent_matrices(rep, level)[-1]


def idempotent_image(rep: ModuleRep):
    """Generator of the image of E_N, checked to be one-dimensional.

    E_N must equal the image vector times one of its rows; the returned
    vector is normalised to coefficient 1 on the first basis element its
    first nonzero column touches.  Also returns the full E_N matrix, which
    the identity audits reuse.
    """
    e_full = idempotent_matrix(rep)
    where = e_full.transpose().first_nonzero()
    if where is None:
        raise ArithmeticError("the nested idempotent vanishes on the module")
    col, lead_row = where
    column = e_full.column(col)
    fund = [x / column[lead_row] for x in column]
    lead = e_full.submatrix([lead_row], range(rep.dim))
    if Matrix.from_columns([fund]) @ lead != e_full:
        raise ArithmeticError("the image of E_N is not one-dimensional")
    return fund, e_full


# ---------------------------------------------------------------------------
# paths and tiles


def fundamental_path(n_sites: int) -> Path:
    return tuple(0 if i % 2 == 0 else -1 for i in range(n_sites + 1))


def all_paths(n_sites: int) -> list[Path]:
    paths = [(0,)]
    for _ in range(n_sites):
        paths = [p + (p[-1] + s,) for p in paths for s in (1, -1)]
    return paths


@dataclass(frozen=True)
class TileEvent:
    """One tile addition: where, in which direction, and its shoulder height."""

    position: int
    from_above: bool
    boundary: bool
    shoulder: int

    def spectral_argument(self) -> HalfExponent:
        u = OMEGA1 + HalfExponent.integer(-self.shoulder)
        return u if self.from_above else -u


def addable_tiles(path: Path) -> list[TileEvent]:
    n = len(path) - 1
    out = []
    for i in range(1, n):
        h = path[i - 1]
        if path[i + 1] != h:
            continue
        if h >= 0 and path[i] == h - 1:
            out.append(TileEvent(i, True, False, h))
        elif h < 0 and path[i] == h + 1:
            out.append(TileEvent(i, False, False, h))
    h = path[n - 1]
    if h >= 0 and path[n] == h - 1:
        out.append(TileEvent(n, True, True, h))
    elif h < 0 and path[n] == h + 1:
        out.append(TileEvent(n, False, True, h))
    return out


def apply_tile(path: Path, tile: TileEvent) -> Path:
    delta = 2 if tile.from_above else -2
    lst = list(path)
    lst[tile.position] += delta
    return tuple(lst)


def removable_tiles(path: Path) -> list[TileEvent]:
    """Inverse moves; the fundamental path is the unique sink."""
    n = len(path) - 1
    out = []
    for i in range(1, n):
        h = path[i - 1]
        if path[i + 1] != h:
            continue
        if h >= 0 and path[i] == h + 1:
            out.append(TileEvent(i, True, False, h))
        elif h < 0 and path[i] == h - 1:
            out.append(TileEvent(i, False, False, h))
    h = path[n - 1]
    if h >= 0 and path[n] == h + 1:
        out.append(TileEvent(n, True, True, h))
    elif h < 0 and path[n] == h - 1:
        out.append(TileEvent(n, False, True, h))
    return out


def unapply_tile(path: Path, tile: TileEvent) -> Path:
    delta = -2 if tile.from_above else 2
    lst = list(path)
    lst[tile.position] += delta
    return tuple(lst)


@lru_cache(maxsize=None)
def tile_multiset(path: Path) -> tuple[tuple[int, int, bool], ...]:
    """The tiles between a path and the fundamental one, as
    (position, shoulder, boundary) with multiplicity; order-independent."""
    tiles = removable_tiles(path)
    if not tiles:
        return ()
    t = tiles[0]
    prev = unapply_tile(path, t)
    return tuple(sorted(tile_multiset(prev)
                        + ((t.position, t.shoulder, t.boundary),)))


def path_weight(path: Path) -> int:
    return len(tile_multiset(path))


def path_order(n_sites: int) -> list[Path]:
    return sorted(all_paths(n_sites), key=lambda p: (path_weight(p), p))


# ---------------------------------------------------------------------------
# the basis


@dataclass
class BasisB1:
    """The tile-built basis on a 2^N-dimensional representation."""

    rep: ModuleRep
    paths: list[Path]
    vectors: dict[Path, list]
    change_of_basis: Matrix
    _inverse: Matrix | None = field(default=None, repr=False)

    @property
    def n_sites(self) -> int:
        return self.rep.n_sites

    @property
    def point(self):
        return self.rep.point

    def inverse(self) -> Matrix:
        if self._inverse is None:
            self._inverse = invert(self.change_of_basis)
        return self._inverse

    def in_coordinates(self, mat: Matrix) -> Matrix:
        """Transport a canonical-coordinate operator into path coordinates."""
        return self.inverse() @ mat @ self.change_of_basis

    def generator_in_coordinates(self, i: int) -> Matrix:
        return self.in_coordinates(self.rep.e_matrix(i))


def _add_tile(rep: ModuleRep, tile: TileEvent, vec: list) -> list:
    """The vector of the path one tile above the path of ``vec``."""
    u = tile.spectral_argument()
    if tile.boundary:
        return rep.apply_k(u, vec)
    return rep.apply_r(tile.position, u, vec)


def build_b1(rep: ModuleRep, fundamental: list | None = None) -> BasisB1:
    """Grow all 2^N vectors from the fundamental one by tile addition."""
    n = rep.n_sites
    if rep.dim != 1 << n:
        raise ValueError("the path basis lives on a 2^N-dimensional module")
    fund = rep.fundamental_vector() if fundamental is None else fundamental
    paths = path_order(n)
    vectors: dict[Path, list] = {fundamental_path(n): fund}
    for path in paths:
        if path in vectors:
            continue
        for tile in removable_tiles(path):
            prev = unapply_tile(path, tile)
            if prev not in vectors:
                continue
            vectors[path] = _add_tile(rep, tile, vectors[prev])
            break
        else:
            raise AssertionError(f"no built predecessor for path {path}")
    cob = Matrix.from_columns([vectors[p] for p in paths])
    return BasisB1(rep, paths, vectors, cob)


def tile_order_independence(basis: BasisB1) -> bool:
    """Every removable tile of every path yields the same vector."""
    for path in basis.paths:
        for tile in removable_tiles(path):
            prev = basis.vectors[unapply_tile(path, tile)]
            vec = _add_tile(basis.rep, tile, prev)
            if any(x != y for x, y in zip(vec, basis.vectors[path])):
                return False
    return True


# ---------------------------------------------------------------------------
# audits of the action in path coordinates


def _vec_eq(x: list, y: list) -> bool:
    return all(a == b for a, b in zip(x, y))


def _vec_zero(x: list) -> bool:
    return not any(x)


def action_audit_b1(basis: BasisB1) -> list[dict]:
    """Eigenvalue of the left boundary, vanishing on slopes, and the exact
    two-by-two blocks on tile pairs, checked vector by vector."""
    rep = basis.rep
    point = rep.point
    params = rep.params
    n = rep.n_sites
    out = []
    for path in basis.paths:
        vec = basis.vectors[path]
        image = rep.apply_e(0, vec)
        if path[1] == -1:
            ok = _vec_eq(image, [params.s1 * x for x in vec])
        else:
            ok = _vec_zero(image)
        out.append(audit(f"b1.e0.{_pname(path)}", ok))
        for i in range(1, n):
            if path[i - 1] != path[i + 1]:
                out.append(audit(f"b1.slope.e{i}.{_pname(path)}",
                                 _vec_zero(rep.apply_e(i, vec))))
    for path in basis.paths:
        for tile in addable_tiles(path):
            upper = apply_tile(path, tile)
            h = tile.shoulder
            i = tile.position
            lo, hi = basis.vectors[path], basis.vectors[upper]
            u = tile.spectral_argument()
            if tile.boundary:
                c_lo, c_hi = (k_coeff(u, point), k_coeff(-u, point))
                image_lo = rep.apply_e(n, lo)
                image_hi = rep.apply_e(n, hi)
            else:
                c_lo, c_hi = (r_coeff(u, point), r_coeff(-u, point))
                image_lo = rep.apply_e(i, lo)
                image_hi = rep.apply_e(i, hi)
            ok1 = _vec_eq(image_lo, [c_lo * x + y for x, y in zip(lo, hi)])
            ok2 = _vec_eq(image_hi,
                          [c_lo * c_hi * x + c_hi * y for x, y in zip(lo, hi)])
            tag = "K" if tile.boundary else f"e{i}"
            out.append(audit(f"b1.block.{tag}.{_pname(path)}.h{h}", ok1 and ok2))
    return out


def _pname(path: Path) -> str:
    return ",".join(str(h) for h in path)


def murphy_eigenvalue(point, index: int, path: Path):
    """Eigenvalue of the index-th single-boundary Murphy element on a path."""
    h0, h1 = path[index], path[index + 1]
    exp = HalfExponent(m=-(h1 * h1 - h0 * h0) + 1 - 2 * index,
                      c1=2 * (h1 - h0))
    return point.q_power(exp)


def murphy_audit_b1(basis: BasisB1) -> list[dict]:
    """All single-boundary Murphy elements are diagonal with the height
    eigenvalues, the spectra separate paths, and their product matches the
    closed central eigenvalue."""
    rep = basis.rep
    point = rep.point
    n = rep.n_sites
    out = []
    spectra = []
    for path in basis.paths:
        vec = basis.vectors[path]
        eigs = []
        for m in range(n):
            lam = murphy_eigenvalue(point, m, path)
            eigs.append(lam)
            image = rep.apply_murphy_b(m, vec)
            out.append(audit(f"b1.murphy.{m}.{_pname(path)}",
                             _vec_eq(image, [lam * x for x in vec])))
        spectra.append(eigs)
        prod = point.one
        for lam in eigs:
            prod = prod * lam
        h_n = path[n]
        expected = point.q_power(HalfExponent(
            m=-h_n * h_n - n * (n - 2), c1=2 * h_n))
        out.append(audit(f"b1.murphy.prod.{_pname(path)}", prod == expected))
    # pairwise: symbolic scalars are unhashable
    distinct = all(x != y for k, x in enumerate(spectra)
                   for y in spectra[k + 1:])
    out.append(audit("b1.murphy.spectra_distinct", distinct))
    return out


# ---------------------------------------------------------------------------
# the Gram form in path coordinates


def f_factor(h: int, point):
    """f(h) = r(w1-h) r(-w1+h)."""
    u = OMEGA1 + HalfExponent.integer(-h)
    return r_coeff(u, point) * r_coeff(-u, point)


def g_factor(h: int, point):
    """g(h) = k(w1-h) k(-w1+h)."""
    u = OMEGA1 + HalfExponent.integer(-h)
    return k_coeff(u, point) * k_coeff(-u, point)


def gram_diag_b1(basis: BasisB1) -> dict[Path, object]:
    """Diagonal Gram entries from the tile recursion, with d = 1 at the
    fundamental path."""
    point = basis.point
    out = {}
    for path in basis.paths:
        d = point.one
        for _pos, shoulder, boundary in tile_multiset(path):
            d = d * (g_factor(shoulder, point) if boundary
                     else f_factor(shoulder, point))
        out[path] = d
    return out


def gram_closed_form_report(n_sites: int, point) -> list[dict]:
    """Factors [x]^mult of the closed determinant, plus the prefactor."""
    n = n_sites
    factors = []
    if n % 2 == 0:
        for m in range(0, (n - 2) // 2 + 1):
            mult = irrep_dim(n, 2 * m + 1)
            for e1 in (1, -1):
                for e2 in (1, -1):
                    for e3 in (1, -1):
                        exp = (HalfExponent.integer(1 + 2 * m)
                               + OMEGA1.scale(e1) + OMEGA2.scale(e2)
                               + THETA.scale(e3)).halved()
                        factors.append({"exponent": exp, "mult": mult})
    else:
        for e2 in (1, -1):
            for e3 in (1, -1):
                exp = (OMEGA1 + OMEGA2.scale(e2) + THETA.scale(e3)).halved()
                factors.append({"exponent": exp, "mult": 1 << (n - 1)})
        for m in range(1, (n - 1) // 2 + 1):
            mult = irrep_dim(n, 2 * m)
            for e1 in (1, -1):
                for e2 in (1, -1):
                    for e3 in (1, -1):
                        exp = (HalfExponent.integer(2 * m)
                               + OMEGA1.scale(e1) + OMEGA2.scale(e2)
                               + THETA.scale(e3)).halved()
                        factors.append({"exponent": exp, "mult": mult})
    pref_mult = -2 * sum(irrep_dim(n, n - 1 - 2 * m) for m in range(n))
    for item in factors:
        item["value"] = point.qnum(item["exponent"])
    return [{"prefactor_base": "[w1][w2+1]", "mult": pref_mult,
             "value": (point.qnum(OMEGA1) * point.qnum(OMEGA2 + ONE)) ** pref_mult}] + factors


def gram_closed_form(n_sites: int, point):
    """Exact value of the closed-form determinant of the 2^N Gram matrix."""
    out = None
    for item in gram_closed_form_report(n_sites, point):
        if "prefactor_base" in item:
            out = item["value"]
        else:
            out = out * item["value"] ** item["mult"]
    return out


def gram_normalization_exponent(n_sites: int) -> int:
    """Total boundary half-tile count over all paths, doubled.

    The closed determinant is stated in the basis generated from E_N with
    unit fundamental norm; the half-diagram basis determinant is larger by
    exactly s1 to this power (equivalently, the prefactor becomes
    ([w1+1][w2+1]) to the same negative power)."""
    return 2 * sum(irrep_dim(n_sites, n_sites - 1 - 2 * m)
                   for m in range(n_sites))


def gram_closed_form_halfdiagram(n_sites: int, point, s1=None):
    """Closed determinant in the half-diagram basis normalisation."""
    if s1 is None:
        s1 = point.qnum(OMEGA1) / point.qnum_nonzero(OMEGA1 + ONE)
    return (gram_closed_form(n_sites, point)
            * s1 ** gram_normalization_exponent(n_sites))


def exceptional_points(n_sites: int) -> list[tuple[int, int, int, int]]:
    """(sign, m, eps1, eps2) with th = sign*(-m + eps1*w1 + eps2*w2)."""
    out = []
    if n_sites % 2 == 0:
        ms = range(1, n_sites, 2)
    else:
        ms = range(0, n_sites, 2)
    for m in ms:
        for e1 in (1, -1):
            if m == 0 and e1 == -1:
                continue
            for e2 in (1, -1):
                for sign in (1, -1):
                    out.append((sign, m, e1, e2))
    return out


def fixed_height_gram(n_sites: int, h_n: int, point):
    """Normalised Gram determinant of the fixed-final-height block.

    Product over paths of the class of their tile values relative to the
    class-lowest path; the boundary factors are shared and cancel, so the
    result is a pure product of bulk factors f(h).
    """
    if abs(h_n) > n_sites or (n_sites - h_n) % 2:
        raise ValueError("final height is unreachable")
    cls = [p for p in all_paths(n_sites) if p[-1] == h_n]
    lowest = tuple(min(p[i] for p in cls) for i in range(n_sites + 1))
    assert lowest in cls
    counts: dict[tuple[int, int, bool], int] = {}
    for p in cls:
        for tile in tile_multiset(p):
            counts[tile] = counts.get(tile, 0) + 1
    base = {tile: len(cls) for tile in tile_multiset(lowest)}
    value = point.one
    for (pos, shoulder, boundary), mult in sorted(counts.items()):
        mult -= base.get((pos, shoulder, boundary), 0)
        if not mult:
            continue
        factor = (g_factor(shoulder, point) if boundary
                  else f_factor(shoulder, point))
        value = value * factor ** mult
    return value


# ---------------------------------------------------------------------------
# spectral-equation audit


def ybe_audit(rep: ModuleRep, battery=None) -> list[dict]:
    """Yang-Baxter, both reflection equations, and the unitarity relations,
    for a battery of generic exponent pairs."""
    n = rep.n_sites
    if battery is None:
        battery = [
            (OMEGA1, ONE),
            (OMEGA2 + ONE.scale(2), THETA - ONE.scale(1)),
            (OMEGA1 + OMEGA2, THETA + ONE.scale(2)),
        ]
    ident = Matrix.identity(rep.dim)
    point = rep.point
    out = []
    for idx, (u, v) in enumerate(battery):
        for i in range(1, n - 1):
            lhs = (matrix_r(rep, i, u) @ matrix_r(rep, i + 1, u + v)
                   @ matrix_r(rep, i, v))
            rhs = (matrix_r(rep, i + 1, v) @ matrix_r(rep, i, u + v)
                   @ matrix_r(rep, i + 1, u))
            out.append(audit(f"ybe.bulk.{idx}.{i}", lhs - rhs))
        if n >= 2:
            lhs = (matrix_kbar(rep, v.scale(2)) @ matrix_r(rep, 1, u + v)
                   @ matrix_kbar(rep, u.scale(2)) @ matrix_r(rep, 1, u - v))
            rhs = (matrix_r(rep, 1, u - v) @ matrix_kbar(rep, u.scale(2))
                   @ matrix_r(rep, 1, u + v) @ matrix_kbar(rep, v.scale(2)))
            out.append(audit(f"ybe.reflect.left.{idx}", lhs - rhs))
            lhs = (matrix_k(rep, v.scale(2)) @ matrix_r(rep, n - 1, u + v)
                   @ matrix_k(rep, u.scale(2)) @ matrix_r(rep, n - 1, u - v))
            rhs = (matrix_r(rep, n - 1, u - v) @ matrix_k(rep, u.scale(2))
                   @ matrix_r(rep, n - 1, u + v) @ matrix_k(rep, v.scale(2)))
            out.append(audit(f"ybe.reflect.right.{idx}", lhs - rhs))
        for i in range(1, n):
            prod = matrix_r(rep, i, u) @ matrix_r(rep, i, -u)
            expect = ident.scale(r_coeff(u, point) * r_coeff(-u, point))
            out.append(audit(f"ybe.unitary.r.{idx}.{i}", prod - expect))
        prod = matrix_k(rep, u) @ matrix_k(rep, -u)
        expect = ident.scale(k_coeff(u, point) * k_coeff(-u, point))
        out.append(audit(f"ybe.unitary.k.{idx}", prod - expect))
        prod = matrix_kbar(rep, u) @ matrix_kbar(rep, -u)
        expect = ident.scale(kbar_coeff(u, point) * kbar_coeff(-u, point))
        out.append(audit(f"ybe.unitary.kbar.{idx}", prod - expect))
    return sorted(out, key=lambda r: r["identity_id"])


# ---------------------------------------------------------------------------
# boundary and slope identities for the nested idempotent


def idempotent_identities(rep: ModuleRep) -> list[dict]:
    """Slope annihilation, the two boundary identities per parity (which
    need the horizontal-line quotient), and the idempotent chain
    evaluations, all against the full E_N matrix."""
    params = rep.params
    n = rep.n_sites
    _, e_full = idempotent_image(rep)
    out = []
    w1u = OMEGA1

    def rmat(i, u):
        return matrix_r(rep, i, u)

    for m in range(1, n):
        for target in (m - 1, m + 1):
            if not 1 <= target <= n - 1:
                continue
            if m % 2 == 0:
                diff = rep.e_matrix(m) @ rmat(target, w1u) @ e_full
                out.append(audit(f"en.slope.e{m}.R{target}(w1)", diff))
            else:
                diff = rep.e_matrix(m) @ rmat(target, -(w1u + ONE)) @ e_full
                out.append(audit(f"en.slope.e{m}.R{target}(-w1-1)", diff))
    if n % 2 == 0:
        diff = rep.e_matrix(n - 1) @ matrix_k(rep, -(w1u + ONE)) @ e_full
        out.append(audit("en.boundary.first", diff))
        diff = (rep.e_matrix(n - 1) @ matrix_k(rep, w1u - ONE)
                @ rmat(n - 1, w1u) @ e_full)
        out.append(audit("en.boundary.second", diff))
    else:
        diff = rep.e_matrix(n - 1) @ matrix_k(rep, w1u) @ e_full
        out.append(audit("en.boundary.first", diff))
        diff = (rep.e_matrix(n - 1) @ matrix_k(rep, -(w1u + ONE.scale(2)))
                @ rmat(n - 1, -(w1u + ONE)) @ e_full)
        out.append(audit("en.boundary.second", diff))

    gens = [rep.e_matrix(i) for i in range(n + 1)]
    i1, i2 = (word_product(gens, w) for w in idempotent_words(n))
    s1 = params.s1
    i1e, i2e = i1 @ e_full, i2 @ e_full
    en_e = gens[n] @ e_full
    if n % 2 == 0:
        out.append(audit("en.chain.21",
                         i2 @ i1e - i2e.scale(s1 ** (-(n // 2)))))
        out.append(audit("en.chain.12",
                         i1 @ i2e - (i1 @ en_e).scale(s1 ** (n // 2))))
    else:
        out.append(audit("en.chain.12",
                         i1 @ i2e - i1e.scale(s1 ** ((n + 1) // 2))))
        out.append(audit("en.chain.21", i2 @ i1e
                         - (i2 @ en_e).scale(s1 ** (-((n - 1) // 2)))))
    out.append(audit("en.e0.eigen",
                     rep.e_matrix(0) @ e_full - e_full.scale(params.s1)))
    if n > 1:
        out.append(audit("en.e0.kill", rep.e_matrix(0) @ rmat(1, w1u) @ e_full))
    return sorted(out, key=lambda r: r["identity_id"])


__all__ = [
    "BasisB1", "ModuleRep", "Path", "TileEvent", "action_audit_b1",
    "addable_tiles", "all_paths", "apply_tile",
    "build_b1", "exceptional_points", "f_factor", "fixed_height_gram",
    "fundamental_path", "g_factor", "gram_closed_form",
    "gram_closed_form_halfdiagram", "gram_closed_form_report", "gram_diag_b1",
    "gram_normalization_exponent", "idempotent_identities",
    "idempotent_image", "idempotent_matrices", "idempotent_matrix",
    "k_coeff", "kbar_coeff",
    "matrix_k", "matrix_kbar", "matrix_r", "murphy_audit_b1",
    "murphy_eigenvalue", "path_order", "path_weight", "r_coeff",
    "removable_tiles", "tile_multiset", "tile_order_independence",
    "unapply_tile", "ybe_audit",
]
