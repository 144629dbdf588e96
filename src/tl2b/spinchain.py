"""Tensor-space representation on 2^N spin states, and its identification.

States are indexed by integers whose bit (N - i) gives the spin at site i
(1 = up).  Each generator acts through one table from the spins at the
sites it touches to the terms of the image, so applying it to a vector
costs O(2^N); ``e_matrix`` builds the Matrix from the tables.  The
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
from .hecke import centre_offset, lift_family, murphy
from .linalg import (Matrix, commutator, intertwiner_differences,
                     nonsingular_certificate)
from .scalars import ONE, OMEGA1, OMEGA2, THETA
from .pathbasis import _LEVEL_ARGUMENTS, ModuleRep, apply_idempotent, build_b1
from .wordrep import ModuleSpec, check_relations


class SpinRep(ModuleRep):
    """The spin chain as a module.  ``_tables[i]`` is e_i's ``(mask, local)``:
    ``local`` sends the spins under ``mask`` to the terms ``(flip, amp)`` of
    the image, diagonal first, each adding amp * c at state s ^ flip; an amp
    of None stands for -1 and subtracts c.  The tables are the left wall,
    the two-site projectors, then the right wall."""

    def __init__(self, n_sites: int, point):
        self.n_sites = n_sites
        self.point = point
        self.dim = 1 << n_sites
        qp = point.q_power
        d1 = qp(ONE + OMEGA1) - qp(-(ONE + OMEGA1))
        d2 = qp(ONE + OMEGA2) - qp(-(ONE + OMEGA2))
        if not d1 or not d2:
            raise ZeroDivisionError("boundary denominators vanish")
        wall = 1 << (n_sites - 1)  # site 1: the terms on up, then on down
        tables = [(wall, {wall: ((0, -qp(-OMEGA1) / d1), (wall, -1 / d1)),
                          0: ((0, qp(OMEGA1) / d1), (wall, 1 / d1))})]
        # (up, down) -> q^-1 (u,d) - (d,u), (down, up) -> q (d,u) - (u,d)
        for i in range(1, n_sites):
            hi, lo = 1 << (n_sites - i), 1 << (n_sites - i - 1)
            tables.append((hi | lo, {hi: ((0, qp(-ONE)), (hi | lo, None)),
                                     lo: ((0, qp(ONE)), (hi | lo, None))}))
        tables.append((1, {1: ((0, qp(OMEGA2) / d2), (1, qp(-THETA) / d2)),
                           0: ((0, -qp(-OMEGA2) / d2), (1, -qp(THETA) / d2))}))
        self._tables = tables

    def apply_e(self, i: int, vec: list) -> list:
        mask, local = self._tables[i]
        out = [0] * self.dim
        for s, c in enumerate(vec):
            if c:
                for flip, amp in local.get(s & mask, ()):
                    t = s ^ flip
                    out[t] = out[t] - c if amp is None else out[t] + amp * c
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


def spin_relation_audit(rep: SpinRep) -> list[dict]:
    """All defining relations, as operator identities on the spin chain."""
    return check_relations([rep.e_matrix(i) for i in range(rep.n_sites + 1)],
                           rep.point, "spin.")


def twist_symmetry_audit(rep: SpinRep) -> list[dict]:
    """Bulk generators commute with the diagonal twists of alpha = 2 and 3,
    exactly."""
    n_sites = rep.n_sites
    states = range(rep.dim)
    out = []
    for alpha in (2, 3):
        alpha = RAT(alpha)
        twist = Matrix([[alpha ** (2 * bin(r).count("1") - n_sites)
                         if r == c else 0 for c in states] for r in states])
        for i in range(1, n_sites):
            out.append(audit(f"spin.twist.alpha{alpha}.e{i}",
                             commutator(twist, rep.e_matrix(i))))
    return out


def ebar_identities(rep: SpinRep) -> list[dict]:
    """E_i ebar = ebar, the left eigenvalue, and the boundary identities,
    each evaluated on the vector ebar.

    E_l = s1^((-1)^l) E_{l-1} e_{l-1} E_{l-1}, so when ``spin.ebar.fix.E{l-1}``
    passed, E_l ebar = s1^((-1)^l) E_{l-1} (e_{l-1} ebar); after a failed
    level, the next is formed from scratch."""
    n_sites = rep.n_sites
    vec = rep.fundamental_vector()
    out = []
    fixed = False
    for level in range(n_sites + 1):
        fixed = apply_idempotent(rep, level, vec, fixed) == vec
        out.append(audit(f"spin.ebar.fix.E{level}", fixed))
    image = rep.apply_e(0, vec)
    out.append(audit("spin.ebar.e0",
                     all(x == rep.point.s1 * y for x, y in zip(image, vec))))
    # the boundary identities of pathbasis.idempotent_identities
    u = _LEVEL_ARGUMENTS[(n_sites + 1) % 2][0]
    v = _LEVEL_ARGUMENTS[n_sites % 2][0]
    image = rep.apply_e(n_sites - 1, rep.apply_k(u, vec))
    out.append(audit("spin.ebar.boundary.first", not any(image)))
    image = rep.apply_e(n_sites - 1, rep.apply_k(
        v - ONE, rep.apply_r(n_sites - 1, v, vec)))
    out.append(audit("spin.ebar.boundary.second", not any(image)))
    return out


def equivalence_audit(rep: SpinRep) -> list[dict]:
    """Grow the parallel path basis from ebar and check that it intertwines
    the two models; check the central element acts by the expected scalar
    on the spin side.

    For each generator, ``spin.equiv.e{i}`` checks E_s B_s = B_s M_d, where
    B_s is the spin path basis (columns) and M_d the half-diagram generator
    in its own path coordinates.  ``nonsingular_certificate`` proves
    det(B_s) != 0 by a nonzero residue modulo a prime; failing that, B_s is
    formed and inverted exactly, which raises ZeroDivisionError when it is
    singular.  With B_s invertible the identity is B_s^-1 E_s B_s = M_d: the
    generator matrices agree entry by entry in the two path coordinate
    systems.  A failing record names an entry of E_s B_s - B_s M_d, which
    is formed column by column (``linalg.intertwiner_differences``).  Both
    read the columns B_s was grown in, so at a rational point B_s is never
    formed when the certificate holds.
    """
    out = ebar_identities(rep)
    spin_gens = [rep.e_matrix(i) for i in range(rep.n_sites + 1)]
    basis_d = build_b1(ModuleRep(ModuleSpec.big(rep.n_sites, rep.point)))
    basis_s = build_b1(rep)
    if nonsingular_certificate(basis_s.columns) is None:
        basis_s.inverse()  # exact; raises ZeroDivisionError when singular
    diffs = intertwiner_differences(
        basis_s.columns, ((e_spin, basis_d.generator_in_coordinates(i))
                          for i, e_spin in enumerate(spin_gens)))
    for i, diff in enumerate(diffs):
        out.append(audit(f"spin.equiv.e{i}", diff))
    # centre: the sum of the affine Murphy elements and their inverses
    out.append(audit("spin.centre.scalar", centre_offset(
        murphy("C", lift_family(spin_gens, rep.point)), THETA)))
    return out


__all__ = [
    "SpinRep", "ebar", "ebar_identities", "equivalence_audit",
    "spin_relation_audit", "spin_vector_to_json", "twist_symmetry_audit",
]
