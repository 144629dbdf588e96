"""Tensor-space representation on 2^N spin states, and its identification.

States are indexed by integers whose bit (N - i) gives the spin at site i
(1 = up).  Generators act through site-local kernels, so applying one to a
vector costs O(2^N); ``e_matrix`` builds the Matrix from them.  The
equivalence with the 2^N half-diagram module is established constructively:
the same tile operators grow a parallel path basis B_s from the product
vector ebar, and every spin generator E_s intertwines it with the
half-diagram generator M_d in path coordinates, E_s B_s = B_s M_d, exactly.
A prime p with det(B_s) != 0 mod p proves B_s invertible, which makes the
intertwiner identity equivalent to B_s^-1 E_s B_s = M_d without inverting
B_s; only when no prime certifies is B_s inverted exactly.
"""

from __future__ import annotations

from functools import cached_property

from .audit import audit
from ._ratback import RAT
from .hecke import (central_element, central_scalar_expected, lift_family,
                    murphy)
from .linalg import Matrix, commutator, nonsingular_certificate
from .scalars import ONE, OMEGA1, OMEGA2, THETA
from .pathbasis import _LEVEL_ARGUMENTS, ModuleRep, build_b1
from .wordrep import ModuleSpec, check_relations


class SpinRep(ModuleRep):
    """The spin chain as a module: site-local e_i kernels on 2^N states."""

    def __init__(self, n_sites: int, point, params=None):
        self.n_sites = n_sites
        self.point = point
        self.params = params
        self.dim = 1 << n_sites
        qp = point.q_power
        d1 = qp(ONE + OMEGA1) - qp(-(ONE + OMEGA1))
        d2 = qp(ONE + OMEGA2) - qp(-(ONE + OMEGA2))
        if not d1 or not d2:
            raise ZeroDivisionError("boundary denominators vanish")
        # site-local kernels: amplitude contributions per local spin state
        self._left_up = (-qp(-OMEGA1) / d1, -1 / d1)     # on up: (up, down)
        self._left_down = (qp(OMEGA1) / d1, 1 / d1)      # on down: (down, up)
        self._right_up = (qp(OMEGA2) / d2, qp(-THETA) / d2)
        self._right_down = (-qp(-OMEGA2) / d2, -qp(THETA) / d2)
        self._q = qp(ONE)
        self._qinv = qp(-ONE)

    def apply_e(self, i: int, vec: list) -> list:
        n = self.n_sites
        out = [0] * self.dim
        if i in (0, n):
            if i == 0:
                mask, up, down = 1 << (n - 1), self._left_up, self._left_down
            else:
                mask, up, down = 1, self._right_up, self._right_down
            for s, c in enumerate(vec):
                if not c:
                    continue
                diag, flip = up if s & mask else down
                out[s] = out[s] + diag * c
                out[s ^ mask] = out[s ^ mask] + flip * c
            return out
        # standard two-site projector: on (up,down) -> q^-1 (u,d) - (d,u),
        # on (down,up) -> q (d,u) - (u,d); kills aligned pairs
        hi = 1 << (n - i)
        lo = 1 << (n - i - 1)
        both = hi | lo
        for s, c in enumerate(vec):
            if not c:
                continue
            bits = s & both
            if bits == hi:        # up, down
                out[s] = out[s] + self._qinv * c
                out[s ^ both] = out[s ^ both] - c
            elif bits == lo:      # down, up
                out[s] = out[s] + self._q * c
                out[s ^ both] = out[s ^ both] - c
        return out

    @cached_property
    def generators(self) -> tuple[Matrix, ...]:
        """e_0 .. e_N as matrices, each built once from ``apply_e``."""
        units = Matrix.identity(self.dim)
        return tuple(Matrix.from_columns([self.apply_e(i, units.column(j))
                                          for j in range(self.dim)])
                     for i in range(self.n_sites + 1))

    def e_matrix(self, i: int) -> Matrix:
        return self.generators[i]

    def fundamental_vector(self) -> list:
        return ebar(self.n_sites, self.point)


def spin_generator(i: int, n_sites: int, point) -> Matrix:
    return SpinRep(n_sites, point).e_matrix(i)


def ebar(n_sites: int, point) -> list:
    """Alternating product vector: odd sites carry (q^-w1 up + down), even
    sites (q^(w1+1) up + down); bit value 1 is spin up."""
    qp = point.q_power
    odd_up = qp(-OMEGA1)
    even_up = qp(ONE + OMEGA1)
    vec = [point.one]
    for site in range(1, n_sites + 1):
        up = odd_up if site % 2 else even_up
        vec = [c * amp for c in vec for amp in (point.one, up)]
    return vec


def spin_vector_to_json(vec: list, n_sites: int) -> dict:
    out = {}
    for state, c in enumerate(vec):
        if c:
            out[format(state, f"0{n_sites}b")] = str(c)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# audits


def spin_relation_audit(n_sites: int, point, params) -> list[dict]:
    """All defining relations, as operator identities on the spin chain."""
    rep = SpinRep(n_sites, point, params)
    gens = [rep.e_matrix(i) for i in range(n_sites + 1)]
    return sorted(check_relations(gens, params, "spin."),
                  key=lambda r: r["identity_id"])


def twist_symmetry_audit(n_sites: int, point, alphas=(2, 3)) -> list[dict]:
    """Bulk generators commute with the diagonal twist, exactly."""
    rep = SpinRep(n_sites, point)
    states = range(rep.dim)
    out = []
    for alpha in alphas:
        alpha = RAT(alpha)
        twist = Matrix([[alpha ** (2 * bin(r).count("1") - n_sites)
                         if r == c else 0 for c in states] for r in states])
        for i in range(1, n_sites):
            out.append(audit(f"spin.twist.alpha{alpha}.e{i}",
                             commutator(twist, rep.e_matrix(i))))
    return sorted(out, key=lambda r: r["identity_id"])


def _apply_idempotent(rep: ModuleRep, level: int, vec: list) -> list:
    """E_level vec, from E_0 = 1 and E_i = s1^((-1)^i) E_{i-1} e_{i-1} E_{i-1},
    by 2^level - 1 generator applications and no matrix."""
    if level == 0:
        return vec
    s1 = rep.params.s1
    inner = _apply_idempotent(rep, level - 1, vec)
    out = _apply_idempotent(rep, level - 1, rep.apply_e(level - 1, inner))
    c = s1 if level % 2 == 0 else 1 / s1
    return [c * x for x in out]


def ebar_identities(n_sites: int, point, params) -> list[dict]:
    """E_i ebar = ebar, the left eigenvalue, and the boundary identities,
    each evaluated on the vector ebar."""
    rep = SpinRep(n_sites, point, params)
    vec = ebar(n_sites, point)
    out = []
    for level in range(n_sites + 1):
        out.append(audit(f"spin.ebar.fix.E{level}",
                         _apply_idempotent(rep, level, vec) == vec))
    image = rep.apply_e(0, vec)
    out.append(audit("spin.ebar.e0",
                     all(x == params.s1 * y for x, y in zip(image, vec))))
    # the boundary identities of pathbasis.idempotent_identities
    u = _LEVEL_ARGUMENTS[(n_sites + 1) % 2][0]
    v = _LEVEL_ARGUMENTS[n_sites % 2][0]
    image = rep.apply_e(n_sites - 1, rep.apply_k(u, vec))
    out.append(audit("spin.ebar.boundary.first", not any(image)))
    image = rep.apply_e(n_sites - 1, rep.apply_k(
        v - ONE, rep.apply_r(n_sites - 1, v, vec)))
    out.append(audit("spin.ebar.boundary.second", not any(image)))
    return sorted(out, key=lambda r: r["identity_id"])


def equivalence_audit(n_sites: int, point, params) -> list[dict]:
    """Grow the parallel path basis from ebar and check that it intertwines
    the two models; check the central element acts by the expected scalar
    on the spin side.

    For each generator, ``spin.equiv.e{i}`` checks E_s B_s = B_s M_d, where
    B_s is the spin path basis (columns) and M_d the half-diagram generator
    in its own path coordinates.  ``nonsingular_certificate`` proves
    det(B_s) != 0 by a nonzero residue modulo a prime; failing that, B_s is
    inverted exactly, which raises ZeroDivisionError when it is singular.
    With B_s invertible the identity is B_s^-1 E_s B_s = M_d: the generator
    matrices agree entry by entry in the two path coordinate systems.  A
    failing record names an entry of E_s B_s - B_s M_d.
    """
    out = ebar_identities(n_sites, point, params)
    spec = ModuleSpec.big(n_sites, params)
    diagram_rep = ModuleRep(spec)
    spin_rep = SpinRep(n_sites, point, params)
    spin_gens = [spin_rep.e_matrix(i) for i in range(n_sites + 1)]
    basis_d = build_b1(diagram_rep)
    basis_s = build_b1(spin_rep, fundamental=ebar(n_sites, point))
    cob = basis_s.change_of_basis
    if nonsingular_certificate(cob) is None:
        basis_s.inverse()  # exact; raises ZeroDivisionError when singular
    for i in range(n_sites + 1):
        md = basis_d.generator_in_coordinates(i)
        out.append(audit(f"spin.equiv.e{i}", spin_gens[i] @ cob - cob @ md))
    # centre: the sum of the affine Murphy elements and their inverses
    z = central_element(murphy("C", lift_family(spin_gens, point)))
    lam = central_scalar_expected(point, n_sites)
    out.append(audit("spin.centre.scalar",
                     z - Matrix.identity(spin_rep.dim).scale(lam)))
    return sorted(out, key=lambda r: r["identity_id"])


__all__ = [
    "SpinRep", "ebar", "ebar_identities", "equivalence_audit",
    "spin_generator", "spin_relation_audit", "spin_vector_to_json",
    "twist_symmetry_audit",
]
