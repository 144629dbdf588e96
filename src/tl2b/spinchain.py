"""Tensor-space representation on 2^N spin states, and its identification.

States are indexed by integers whose bit (N - i) gives the spin at site i
(1 = up).  Generators act through site-local kernels, so applying one to a
vector costs O(2^N); dense matrices are only materialised on request.  The
equivalence with the 2^N half-diagram module is established constructively:
the same tile operators grow a parallel path basis from the product vector
ebar, and every generator matrix agrees entry by entry in the two path
coordinate systems.
"""

from __future__ import annotations

from .audit import audit
from .hecke import central_scalar_expected, inverse_word, murphy_word
from .linalg import Matrix
from .scalars import ONE, OMEGA1, OMEGA2, THETA
from .pathbasis import ModuleRep, _unit, apply_idempotent, build_b1
from .wordrep import ModuleSpec, check_relations


class SpinRep:
    """Module protocol over spin states: apply_e, e_matrix, fundamental."""

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

    def e_matrix(self, i: int) -> Matrix:
        return Matrix.from_columns([self.apply_e(i, _unit(self.dim, j))
                                    for j in range(self.dim)])

    def fundamental_vector(self) -> list:
        return ebar(self.n_sites, self.point)

    # share the operator helpers with the half-diagram rep
    apply_r = ModuleRep.apply_r
    apply_k = ModuleRep.apply_k
    apply_g = ModuleRep.apply_g
    apply_g_word = ModuleRep.apply_g_word
    apply_murphy_b = ModuleRep.apply_murphy_b


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
    """All defining relations, as operator identities on every basis state."""
    rep = SpinRep(n_sites, point, params)

    def word(letters):
        cols = []
        for j in range(rep.dim):
            vec = _unit(rep.dim, j)
            for i in reversed(letters):
                vec = rep.apply_e(i, vec)
            cols.append(vec)
        return Matrix.from_columns(cols)

    return sorted(check_relations(n_sites, params, word, "spin."),
                  key=lambda r: r["identity_id"])


def twist_symmetry_audit(n_sites: int, point, alphas=(2, 3)) -> list[dict]:
    """Bulk generators commute with the diagonal twist, exactly."""
    from ._ratback import RAT

    rep = SpinRep(n_sites, point)
    out = []
    for alpha in alphas:
        alpha = RAT(alpha)
        weights = []
        for state in range(rep.dim):
            ups = bin(state).count("1")
            weights.append(alpha ** (2 * ups - n_sites))
        for i in range(1, n_sites):
            ok = True
            for j in range(rep.dim):
                unit = _unit(rep.dim, j)
                conj = rep.apply_e(i, [w * x for w, x in zip(weights, unit)])
                conj = [c / w for w, c in zip(weights, conj)]
                plain = rep.apply_e(i, unit)
                if any(x != y for x, y in zip(conj, plain)):
                    ok = False
                    break
            out.append(audit(f"spin.twist.alpha{alpha}.e{i}", ok))
    return sorted(out, key=lambda r: r["identity_id"])


def ebar_identities(n_sites: int, point, params) -> list[dict]:
    """E_i ebar = ebar, the left eigenvalue, and the boundary identities."""
    rep = SpinRep(n_sites, point, params)
    vec = ebar(n_sites, point)
    out = []
    for level in range(n_sites + 1):
        image = apply_idempotent(rep, level, vec)
        out.append(audit(f"spin.ebar.fix.E{level}",
                         all(x == y for x, y in zip(image, vec))))
    image = rep.apply_e(0, vec)
    out.append(audit("spin.ebar.e0",
                     all(x == params.s1 * y for x, y in zip(image, vec))))
    u = -(OMEGA1 + ONE) if n_sites % 2 == 0 else OMEGA1
    image = rep.apply_e(n_sites - 1, rep.apply_k(u, vec))
    out.append(audit("spin.ebar.boundary.first", not any(image)))
    if n_sites % 2 == 0:
        v2 = rep.apply_r(n_sites - 1, OMEGA1, vec)
        image = rep.apply_e(n_sites - 1, rep.apply_k(OMEGA1 - ONE, v2))
    else:
        v2 = rep.apply_r(n_sites - 1, -(OMEGA1 + ONE), vec)
        image = rep.apply_e(n_sites - 1,
                            rep.apply_k(-(OMEGA1 + ONE.scale(2)), v2))
    out.append(audit("spin.ebar.boundary.second", not any(image)))
    return sorted(out, key=lambda r: r["identity_id"])


def equivalence_audit(n_sites: int, point, params) -> list[dict]:
    """Grow the parallel path basis from ebar and compare every generator's
    matrix, entry by entry, with the half-diagram path coordinates; check
    the central element acts by the expected scalar on the spin side."""
    out = ebar_identities(n_sites, point, params)
    spec = ModuleSpec.big(n_sites, params)
    diagram_rep = ModuleRep(spec)
    spin_rep = SpinRep(n_sites, point, params)
    basis_d = build_b1(diagram_rep)
    basis_s = build_b1(spin_rep, fundamental=ebar(n_sites, point))
    for i in range(n_sites + 1):
        md = basis_d.generator_in_coordinates(i)
        ms = basis_s.in_coordinates(spin_rep.e_matrix(i))
        out.append(audit(f"spin.equiv.e{i}", md - ms))
    # centre: sum of affine Murphy elements and inverses, applied spin-side
    lam = central_scalar_expected(point, n_sites)
    words = [w for m in range(n_sites)
             for w in (murphy_word("C", n_sites, m),
                       inverse_word(murphy_word("C", n_sites, m)))]
    ok = True
    for j in range(spin_rep.dim):
        unit = _unit(spin_rep.dim, j)
        acc = [0] * spin_rep.dim
        for w in words:
            acc = [a + x for a, x in zip(acc, spin_rep.apply_g_word(w, unit))]
        if any(x != lam * u for x, u in zip(acc, unit)):
            ok = False
            break
    out.append(audit("spin.centre.scalar", ok))
    return sorted(out, key=lambda r: r["identity_id"])


__all__ = [
    "SpinRep", "ebar", "ebar_identities", "equivalence_audit",
    "spin_generator", "spin_relation_audit", "spin_vector_to_json",
    "twist_symmetry_audit",
]
