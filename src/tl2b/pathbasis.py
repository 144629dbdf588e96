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

A tile's coefficients c(u) and c(-u), with c = r or k, depend only on
whether it is the half-tile and on its shoulder h, and are evaluated once
per point.  The tile rule gives the generators in path coordinates directly
(``tile_generators``): M_0 .. M_N, with at most two nonzeros per column.
The basis audits run in these coordinates.  E_i b_p = sum_q (M_i)_qp b_q is
checked for every generator and every path, once per basis;
``action_audit_b1`` reads its records from those verdicts, and so does
``tile_order_independence``, since column p of M_i at a tile pair
(p, p + t) states b_{p+t} = (E_i - c_lo) b_p.  When every column holds,
E_i B = B M_i, so the Murphy elements J'_m
built from the M_i satisfy J_m B = B J'_m, and a column of J'_m equal to
lambda e_p proves J_m b_p = lambda b_p.  ``murphy_audit_b1`` decides every
other record by applying J_m to b_p in canonical coordinates, so each
verdict is the canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import NamedTuple

from ._ratback import RAT, is_rational
from .audit import Records, audit
from .hecke import g_coefficients, lift_family, murphy, murphy_word
from .linalg import Matrix, intertwiner_differences, invert
from .scalars import ONE, OMEGA1, OMEGA2, THETA, HalfExponent
from .wordrep import (ModuleSpec, PairWords, idempotent_words, irrep_dim,
                      word_product)

Path = tuple[int, ...]


# ---------------------------------------------------------------------------
# spectral coefficients and operators


def r_coeff(u: HalfExponent, point):
    """r(u) = [u+1]/[u]."""
    return point.qnum(u + ONE) / point.qnum_nonzero(u)


def _wall_coeff(u: HalfExponent, point, omega: HalfExponent):
    """-[(u-w+th)/2][(u-w-th)/2] / ([u][w+1]) at the wall of parameter w."""
    top1 = (u - omega + THETA).halved()
    top2 = (u - omega - THETA).halved()
    if top1 is None or top2 is None:
        wall = "w1" if omega == OMEGA1 else "w2"
        raise ValueError(f"argument {u} is not halvable against {wall}, th")
    return -(point.qnum(top1) * point.qnum(top2)
             / (point.qnum_nonzero(u) * point.qnum_nonzero(omega + ONE)))


def k_coeff(u: HalfExponent, point):
    """k(u) = -[(u-w2+th)/2][(u-w2-th)/2] / ([u][w2+1])."""
    return _wall_coeff(u, point, OMEGA2)


def kbar_coeff(u: HalfExponent, point):
    """Left-boundary mirror of k(u), with w1 and the same twist parameter."""
    return _wall_coeff(u, point, OMEGA1)


def _shift(rep: ModuleRep, j: int, c, vec: list | None = None):
    """e_j - c*1 as a Matrix, or applied to ``vec`` when it is given."""
    if vec is None:
        return rep.e_matrix(j) - Matrix.identity(rep.dim).scale(c)
    return [y - c * x for x, y in zip(vec, rep.apply_e(j, vec))]


class ModuleRep:
    """A module with its generators e_0 .. e_N, each a Matrix."""

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        self.point = spec.point
        self.dim = spec.dim
        self.n_sites = spec.n_sites

    def apply_e(self, i: int, vec: list) -> list:
        return self.e_matrix(i).apply(vec)

    def e_matrix(self, i: int) -> Matrix:
        return self.spec.generators[i]

    def fundamental_vector(self) -> list:
        return self.idempotent[0]

    @cached_property
    def idempotent(self) -> tuple[list, Matrix]:
        """``idempotent_image`` of this module, formed once: the basis growth
        and ``idempotent_identities`` both read it."""
        return idempotent_image(self)

    # operators -------------------------------------------------------------

    def apply_r(self, i: int, u: HalfExponent, vec: list) -> list:
        return _shift(self, i, r_coeff(u, self.point), vec)

    def apply_k(self, u: HalfExponent, vec: list) -> list:
        return _shift(self, self.n_sites, k_coeff(u, self.point), vec)

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
    return _shift(rep, i, r_coeff(u, rep.point))


def matrix_k(rep: ModuleRep, u: HalfExponent) -> Matrix:
    return _shift(rep, rep.n_sites, k_coeff(u, rep.point))


def matrix_kbar(rep: ModuleRep, u: HalfExponent) -> Matrix:
    return _shift(rep, 0, kbar_coeff(u, rep.point))


# ---------------------------------------------------------------------------
# the nested idempotents


def _nesting_scale(point, i: int):
    """s1^((-1)^i), the scale of E_i = s1^((-1)^i) E_{i-1} e_{i-1} E_{i-1},
    from E_0 = 1."""
    return point.s1 if i % 2 == 0 else 1 / point.s1


def idempotent_matrix(rep: ModuleRep, level: int | None = None) -> Matrix:
    """E_level (E_N by default) as a Matrix, by the nesting rule."""
    level = rep.n_sites if level is None else level
    out = Matrix.identity(rep.dim)
    for i in range(1, level + 1):
        out = (out @ rep.e_matrix(i - 1) @ out).scale(
            _nesting_scale(rep.point, i))
    return out


def apply_idempotent(rep: ModuleRep, level: int, vec: list,
                     fixed_below: bool = False) -> list:
    """E_level vec by the nesting rule: 2^level - 1 generator applications,
    each a product of e_i with ``vec`` as a one-column Matrix, so that the
    vector stays integer numerators over one denominator.

    With ``fixed_below``, the caller knows E_{level-1} vec = vec, so E_level
    vec = s1^((-1)^level) E_{level-1} e_{level-1} vec: 2^(level-1)
    applications."""
    col = Matrix.from_columns([vec])
    if not fixed_below or level == 0:
        return _idempotent_column(rep, level, col).column(0)
    out = _idempotent_column(rep, level - 1, rep.e_matrix(level - 1) @ col)
    return out.scale(_nesting_scale(rep.point, level)).column(0)


def _idempotent_column(rep: ModuleRep, level: int, col: Matrix) -> Matrix:
    if level == 0:
        return col
    inner = _idempotent_column(rep, level - 1, col)
    out = _idempotent_column(rep, level - 1, rep.e_matrix(level - 1) @ inner)
    return out.scale(_nesting_scale(rep.point, level))


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


class TileEvent(NamedTuple):
    """One tile: the generator it acts through (N for the right-wall
    half-tile), its shoulder height and whether it is the half-tile.

    Tiles sort by (position, shoulder, boundary)."""

    position: int
    shoulder: int
    boundary: bool

    @property
    def from_above(self) -> bool:
        """Whether the tile raises a minimum: its shoulder is nonnegative."""
        return self.shoulder >= 0

    @property
    def tag(self) -> str:
        return "K" if self.boundary else f"e{self.position}"


def _tiles(path: Path, step: int) -> list[TileEvent]:
    """Tiles on the local extrema of ``path``, by position (the wall last):
    step +1 gives those that can be added (a minimum on a nonnegative
    shoulder, a maximum on a negative one), step -1 those that can be
    removed."""
    n = len(path) - 1
    out = []
    for i in range(1, n + 1):
        h = path[i - 1]
        if i < n and path[i + 1] != h:
            continue
        if path[i] == h - (step if h >= 0 else -step):
            out.append(TileEvent(i, h, i == n))
    return out


def _move(path: Path, tile: TileEvent, step: int) -> Path:
    """``path`` with the tile added (step +1) or removed (step -1)."""
    lst = list(path)
    lst[tile.position] += 2 * step if tile.from_above else -2 * step
    return tuple(lst)


def addable_tiles(path: Path) -> list[TileEvent]:
    return _tiles(path, 1)


def apply_tile(path: Path, tile: TileEvent) -> Path:
    return _move(path, tile, 1)


def removable_tiles(path: Path) -> list[TileEvent]:
    """Inverse moves; the fundamental path is the unique sink."""
    return _tiles(path, -1)


def unapply_tile(path: Path, tile: TileEvent) -> Path:
    return _move(path, tile, -1)


@lru_cache(maxsize=None)
def tile_multiset(path: Path) -> tuple[TileEvent, ...]:
    """The tiles between a path and the fundamental one, sorted, with
    multiplicity; order-independent."""
    tiles = removable_tiles(path)
    if not tiles:
        return ()
    t = tiles[0]
    return tuple(sorted(tile_multiset(unapply_tile(path, t)) + (t,)))


@lru_cache(maxsize=None)
def _tile_coeffs(point, boundary: bool, shoulder: int) -> tuple:
    """(c(u), c(-u)) of a tile on shoulder h, c = k for the half-tile and
    r for a square tile, with u = w1 - h when h >= 0 and u = h - w1 when
    h < 0; evaluated once per point."""
    u = OMEGA1 + HalfExponent.integer(-shoulder)
    if shoulder < 0:
        u = -u
    coeff = k_coeff if boundary else r_coeff
    return coeff(u, point), coeff(-u, point)


def path_weight(path: Path) -> int:
    return len(tile_multiset(path))


def path_order(n_sites: int) -> list[Path]:
    return sorted(all_paths(n_sites), key=lambda p: (path_weight(p), p))


# ---------------------------------------------------------------------------
# the basis


@dataclass
class BasisB1:
    """The tile-built basis on a 2^N-dimensional representation: column k
    of ``change_of_basis`` is b_p for p = ``paths[k]``, stored only there."""

    rep: ModuleRep
    paths: list[Path]
    change_of_basis: Matrix
    _inverse: Matrix | None = field(default=None, repr=False)
    _tile_action: tuple | None = field(default=None, repr=False)

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
        """Transport a canonical-coordinate operator into path coordinates.

        B^-1 (E B), not (B^-1 E) B: the common denominator of B^-1 is much
        longer than its entries (1554 against at most 944 bits at N = 6),
        so the product that carries it should be the last one."""
        return self.inverse() @ (mat @ self.change_of_basis)

    def generator_in_coordinates(self, i: int) -> Matrix:
        return self.in_coordinates(self.rep.e_matrix(i))

    def tile_action(self) -> tuple[list[Matrix], dict[tuple[int, Path], bool]]:
        """``tile_generators`` of this basis, and for each (i, path) whether
        E_i b_p = sum_q (M_i)_qp b_q holds exactly, that is whether column p
        of E_i B - B M_i is zero; computed once, and B is not converted
        (``linalg.intertwiner_differences``)."""
        if self._tile_action is None:
            gens = tile_generators(self.paths, self.point)
            diffs = intertwiner_differences(
                self.change_of_basis,
                ((self.rep.e_matrix(i), gen) for i, gen in enumerate(gens)))
            held = {}
            for i, diff in enumerate(diffs):
                for k, path in enumerate(self.paths):
                    held[i, path] = not any(diff.column(k))
            self._tile_action = (gens, held)
        return self._tile_action


def tile_generators(paths: list[Path], point) -> list[Matrix]:
    """M_0 .. M_N, the generators in the coordinates of the path basis on
    ``paths`` (columns in that order), from the tile rule alone.

    M_0 is s1 on the paths with h_1 = -1 and 0 on the others.  At a bulk
    position a path on a slope is sent to 0; every other path is the low or
    the high end of a tile pair (p, p + t), and at position N every path is,
    with the half-tile.  The block of a pair sends p to c_lo p + (p + t) and
    p + t to c_lo c_hi p + c_hi (p + t), with (c_lo, c_hi) the tile's
    (c(u), c(-u)).
    """
    dim, n = len(paths), len(paths[0]) - 1
    index = {p: k for k, p in enumerate(paths)}
    cols = [[[0] * dim for _ in paths] for _ in range(n + 1)]
    for lo, path in enumerate(paths):
        if path[1] == -1:
            cols[0][lo][lo] = point.s1
        for tile in addable_tiles(path):
            hi = index[apply_tile(path, tile)]
            c_lo, c_hi = _tile_coeffs(point, tile.boundary, tile.shoulder)
            col_lo, col_hi = cols[tile.position][lo], cols[tile.position][hi]
            col_lo[lo], col_lo[hi] = c_lo, 1
            col_hi[lo], col_hi[hi] = c_lo * c_hi, c_hi
    return [Matrix.from_columns(c) for c in cols]


def build_b1(rep: ModuleRep) -> BasisB1:
    """Grow all 2^N vectors from the fundamental one by tile addition.

    At a rational point each b_p is held as integer numerators over its own
    denominator (``_grow``); a symbolic point grows the values as they
    are.  Either way each step applies e_i by ``rep.apply_e``."""
    n = rep.n_sites
    if rep.dim != 1 << n:
        raise ValueError("the path basis lives on a 2^N-dimensional module")
    paths = path_order(n)
    fund = rep.fundamental_vector()
    integer = is_rational(rep.point.one) and all(map(is_rational, fund))
    if integer:
        den = lcm(*(x.denominator for x in fund))
        fund = (den, [x.numerator * (den // x.denominator) for x in fund])
    vectors: dict[Path, object] = {fundamental_path(n): fund}
    for path in paths:
        if path in vectors:
            continue
        for tile in removable_tiles(path):
            prev = unapply_tile(path, tile)
            if prev not in vectors:
                continue
            c_lo, _ = _tile_coeffs(rep.point, tile.boundary, tile.shoulder)
            vectors[path] = (_grow(rep, tile.position, c_lo, vectors[prev])
                             if integer else
                             _shift(rep, tile.position, c_lo, vectors[prev]))
            break
        else:
            raise AssertionError(f"no built predecessor for path {path}")
    if integer:
        vectors = {p: [RAT(x, den) if x else 0 for x in nums]
                   for p, (den, nums) in vectors.items()}
    cob = Matrix.from_columns([vectors[p] for p in paths])
    return BasisB1(rep, paths, cob)


def _grow(rep: ModuleRep, j: int, c, col: tuple[int, list[int]]):
    """(e_j - c) b for b = nums / den, as (den', nums') in lowest terms:
    e_j is applied to the numerators by ``rep.apply_e``, and the difference
    is taken in integers over the lcm of the denominators of the image and
    of c, then divided by one gcd."""
    den, nums = col
    image = rep.apply_e(j, nums)
    d = c.denominator
    for y in image:
        if y and y.denominator != 1:
            d = lcm(d, y.denominator)
    cn = c.numerator * (d // c.denominator)
    out = [y.numerator * (d // y.denominator) - cn * x
           for x, y in zip(nums, image)]
    g = gcd(den * d, *out)
    return den * d // g, [x // g for x in out]


def tile_order_independence(basis: BasisB1) -> bool:
    """Every removable tile of every path yields the same vector.

    Column p of M_i at a tile pair (p, p + t) stores only c_lo at p and 1
    at p + t, so column p of E_i B = B M_i holds exactly when
    b_{p+t} = (E_i - c_lo) b_p: the verdicts of ``BasisB1.tile_action``
    decide it."""
    _, held = basis.tile_action()
    return all(held[t.position, p] for p in basis.paths
               for t in addable_tiles(p))


# ---------------------------------------------------------------------------
# audits of the action in path coordinates


def action_audit_b1(basis: BasisB1) -> list[dict]:
    """Eigenvalue of the left boundary, vanishing on slopes, and the exact
    two-by-two blocks on tile pairs: each record reads the verdicts of
    ``BasisB1.tile_action`` for its columns of ``tile_generators``."""
    _, held = basis.tile_action()
    n = basis.n_sites
    out = []
    for path in basis.paths:
        out.append(audit(f"b1.e0.{_pname(path)}", held[0, path]))
        for i in range(1, n):
            if path[i - 1] != path[i + 1]:
                out.append(audit(f"b1.slope.e{i}.{_pname(path)}",
                                 held[i, path]))
    for path in basis.paths:
        for tile in addable_tiles(path):
            ok = held[tile.position, path] and held[tile.position,
                                                    apply_tile(path, tile)]
            out.append(audit(f"b1.block.{tile.tag}.{_pname(path)}"
                             f".h{tile.shoulder}", ok))
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
    closed central eigenvalue.

    When every column of every M_i held in ``BasisB1.tile_action``, J_m is
    built in path coordinates from the M_i (J'_m, with J_m B = B J'_m), and
    a column of J'_m equal to lambda e_p passes ``b1.murphy.{m}.{path}``.
    Every other such record is decided by ``ModuleRep.apply_murphy_b`` on
    b_p, so a verdict never depends on which way it was reached."""
    rep = basis.rep
    point = rep.point
    n = rep.n_sites
    gens, held = basis.tile_action()
    fam = murphy("B", lift_family(gens, point)) if all(held.values()) else None
    out = []
    spectra = []
    for k, path in enumerate(basis.paths):
        eigs = []
        for m in range(n):
            lam = murphy_eigenvalue(point, m, path)
            eigs.append(lam)
            ok = fam is not None and _is_eigencolumn(fam.j[m], k, lam)
            if not ok:
                vec = basis.change_of_basis.column(k)
                ok = rep.apply_murphy_b(m, vec) == [lam * x for x in vec]
            out.append(audit(f"b1.murphy.{m}.{_pname(path)}", ok))
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


def _is_eigencolumn(mat: Matrix, k: int, lam) -> bool:
    """Whether column k of ``mat`` is lam times the k-th unit vector."""
    col = mat.column(k)
    return col[k] == lam and not any(col[:k]) and not any(col[k + 1:])


# ---------------------------------------------------------------------------
# the Gram form in path coordinates


def _tile_factor(point, boundary: bool, shoulder: int):
    """The Gram factor of a tile on shoulder h: f(h) = r(w1-h) r(-w1+h) in
    the bulk, g(h) = k(w1-h) k(-w1+h) at the boundary."""
    lo, hi = _tile_coeffs(point, boundary, shoulder)
    return lo * hi


def gram_diag_b1(basis: BasisB1) -> dict[Path, object]:
    """Diagonal Gram entries from the tile recursion, with d = 1 at the
    fundamental path."""
    point = basis.point
    out = {}
    for path in basis.paths:
        d = point.one
        for tile in tile_multiset(path):
            d = d * _tile_factor(point, tile.boundary, tile.shoulder)
        out[path] = d
    return out


def critical_labels(n_sites: int) -> list[tuple[int, int, int]]:
    """The labels (m, eps1, eps2) of the critical list, m = 0 first.

    m runs over 1 - N % 2, 3 - N % 2, .. N - 1, and m = 0 (odd N only)
    takes eps1 = +1 alone.  Each label gives two critical twists
    th = sign*(-m + eps1*w1 + eps2*w2), two factors of the closed Gram
    determinant and, unless ``wordrep.through_line_count`` is 0, a module.
    """
    return [(m, e1, e2) for m in range(1 - n_sites % 2, n_sites, 2)
            for e1 in ((1,) if m == 0 else (1, -1)) for e2 in (1, -1)]


def gram_closed_form_report(n_sites: int, point) -> list[dict]:
    """Factors [x]^mult of the closed determinant, plus the prefactor."""
    factors = [{"exponent": HalfExponent(m, e1, e2, e3),
                "mult": irrep_dim(n_sites, m)}
               for m, e1, e2 in critical_labels(n_sites) for e3 in (1, -1)]
    pref_mult = -gram_normalization_exponent(n_sites)
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


def gram_closed_form_halfdiagram(n_sites: int, point):
    """Closed determinant in the half-diagram basis normalisation."""
    return (gram_closed_form(n_sites, point)
            * point.s1 ** gram_normalization_exponent(n_sites))


def exceptional_points(n_sites: int) -> list[tuple[int, int, int, int]]:
    """(sign, m, eps1, eps2) with th = sign*(-m + eps1*w1 + eps2*w2)."""
    return [(sign, m, e1, e2) for m, e1, e2 in critical_labels(n_sites)
            for sign in (1, -1)]


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
    counts: dict[TileEvent, int] = {}
    for p in cls:
        for tile in tile_multiset(p):
            counts[tile] = counts.get(tile, 0) + 1
    base = {tile: len(cls) for tile in tile_multiset(lowest)}
    value = point.one
    for tile, mult in sorted(counts.items()):
        mult -= base.get(tile, 0)
        if not mult:
            continue
        value = value * _tile_factor(point, tile.boundary,
                                     tile.shoulder) ** mult
    return value


# ---------------------------------------------------------------------------
# spectral-equation audit


#: the spectral pairs (u, v) of ``ybe_audit``: u, v, u +- v, 2u and 2v are
#: nonzero in 1, w1, w2 alone, so no [.] of them vanishes at a critical twist
_YBE_BATTERY = ((OMEGA1, ONE), (OMEGA2 + ONE.scale(2), OMEGA1 - ONE),
                (OMEGA1 + OMEGA2, OMEGA2 + ONE.scale(2)))


def ybe_audit(rep: ModuleRep, store: Records | None = None) -> list[dict]:
    """Yang-Baxter, both reflection equations, and the unitarity relations,
    for each pair of ``_YBE_BATTERY``.

    Each record is a polynomial in one generator or two adjacent ones, with
    R_i(u) = e_i - r(u), K(u) = e_N - k(u) and Kbar(u) = e_0 - kbar(u),
    stated once as ``PairWords`` terms and kept in ``store``
    (``audit.Records``) by ``PairWords.record``.  It passes there without a
    product when it reduces to zero by the TL relations of its generators
    and the records of ``wordrep.relation_audit`` on the same e_i passed
    for them: the rewriting replaces factors by equal ones wherever those
    relations hold, so the matrix identity holds.  Every other record is
    formed from its terms by ``wordrep.evaluate``."""
    n = rep.n_sites
    point = rep.point
    store = Records.about(store, (rep.e_matrix(i) for i in range(n + 1)),
                          point)
    values = {}

    def shift(i, coeff, u):
        """e_i - c(u) as a ``PairWords`` element, c = ``coeff``; each c(u)
        is evaluated once."""
        if (coeff, u) not in values:
            values[coeff, u] = coeff(u, point)
        return {(i,): 1, (): -values[coeff, u]}

    # (side, tag, bulk neighbour of the wall, the wall, its coefficient)
    walls = (("left", "kbar", 1, 0, kbar_coeff),
             ("right", "k", n - 1, n, k_coeff))
    out = []
    for idx, (u, v) in enumerate(_YBE_BATTERY):
        for i in range(1, n - 1):
            j = i + 1
            out.append(PairWords.record(
                store, f"ybe.bulk.{idx}.{i}", (i, j),
                (1, *(shift(a, r_coeff, x)
                      for a, x in ((i, u), (j, u + v), (i, v)))),
                (-1, *(shift(a, r_coeff, x)
                       for a, x in ((j, v), (i, u + v), (j, u))))))
        for i in range(1, n):
            lo, hi = shift(i, r_coeff, u), shift(i, r_coeff, -u)
            out.append(PairWords.record(
                store, f"ybe.unitary.r.{idx}.{i}", (i,), (1, lo, hi),
                (-lo[()] * hi[()],)))
        for side, tag, adj, w, coeff in walls:
            if n >= 2:
                rs, rd = (shift(adj, r_coeff, x) for x in (u + v, u - v))
                k2u, k2v = (shift(w, coeff, x)
                            for x in (u.scale(2), v.scale(2)))
                out.append(PairWords.record(
                    store, f"ybe.reflect.{side}.{idx}", (adj, w),
                    (1, k2v, rs, k2u, rd), (-1, rd, k2u, rs, k2v)))
            lo, hi = shift(w, coeff, u), shift(w, coeff, -u)
            out.append(PairWords.record(
                store, f"ybe.unitary.{tag}.{idx}", (w,), (1, lo, hi),
                (-lo[()] * hi[()],)))
    return out


# ---------------------------------------------------------------------------
# boundary and slope identities for the nested idempotent


#: by the parity of a level m: the spectral argument of a tile on the
#: fundamental path's height there (0 for even m, -1 for odd m), and its
#: label.  The nested idempotent E_N is killed by e_m R_{m+-1}(u_m), by
#: e_{N-1} K(u_{N+1}) and by e_{N-1} K(u_N - 1) R_{N-1}(u_N).
_LEVEL_ARGUMENTS = ((OMEGA1, "w1"), (-(OMEGA1 + ONE), "-w1-1"))


def idempotent_identities(rep: ModuleRep) -> list[dict]:
    """Slope annihilation, the two boundary identities per parity (which
    need the horizontal-line quotient), and the idempotent chain
    evaluations, all against the full E_N matrix."""
    n = rep.n_sites
    _, e_full = rep.idempotent
    out = []
    for m in range(1, n):
        u, label = _LEVEL_ARGUMENTS[m % 2]
        for target in (m - 1, m + 1):
            if 1 <= target <= n - 1:
                diff = rep.e_matrix(m) @ matrix_r(rep, target, u) @ e_full
                out.append(audit(f"en.slope.e{m}.R{target}({label})", diff))
    u = _LEVEL_ARGUMENTS[(n + 1) % 2][0]
    v = _LEVEL_ARGUMENTS[n % 2][0]
    diff = rep.e_matrix(n - 1) @ matrix_k(rep, u) @ e_full
    out.append(audit("en.boundary.first", diff))
    diff = (rep.e_matrix(n - 1) @ matrix_k(rep, v - ONE)
            @ matrix_r(rep, n - 1, v) @ e_full)
    out.append(audit("en.boundary.second", diff))

    gens = [rep.e_matrix(i) for i in range(n + 1)]
    i1, i2 = (word_product(gens, w) for w in idempotent_words(n))
    s1 = rep.point.s1
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
                     rep.e_matrix(0) @ e_full - e_full.scale(s1)))
    if n > 1:
        out.append(audit("en.e0.kill",
                         rep.e_matrix(0) @ matrix_r(rep, 1, OMEGA1) @ e_full))
    return out


__all__ = [
    "BasisB1", "ModuleRep", "Path", "TileEvent", "action_audit_b1",
    "addable_tiles", "all_paths", "apply_idempotent", "apply_tile",
    "build_b1", "critical_labels", "exceptional_points",
    "fixed_height_gram", "fundamental_path", "gram_closed_form",
    "gram_closed_form_halfdiagram", "gram_closed_form_report", "gram_diag_b1",
    "gram_normalization_exponent", "idempotent_identities",
    "idempotent_image", "idempotent_matrix",
    "k_coeff", "kbar_coeff",
    "matrix_k", "matrix_kbar", "matrix_r", "murphy_audit_b1",
    "murphy_eigenvalue", "path_order", "path_weight", "r_coeff",
    "removable_tiles", "tile_generators", "tile_multiset",
    "tile_order_independence", "unapply_tile", "ybe_audit",
]
