"""Hecke generators, Murphy families and the centre, inside a chosen module.

Every object here is a matrix acting on a fixed module: the surjection onto
the diagram algebra sends

    g_i^(+-1) = e_i - q^(-+1),
    g_0^(+-1) = q^(+-w1) - (q^(+-(1+w1)) - q^(-+(1+w1))) e_0,
    g_N^(+-1) = q^(+-w2) - (q^(+-(1+w2)) - q^(-+(1+w2))) e_N,

and all commutation statements, the equivalent presentation of the affine
family, the central element Z_N = sum(J_i + J_i^-1), and the two-sided
horizontal-line evaluations are verified as exact matrix identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .audit import audit
from .linalg import Matrix, commutator
from .scalars import ONE, OMEGA1, OMEGA2, THETA, HalfExponent
# ``generator_matrix`` is unused here but stays bound: perfbench/tracer.py
# rebinds it
from .wordrep import (ModuleSpec, generator_matrix,  # noqa: F401
                      idempotent_words, word_product)


@dataclass(frozen=True)
class HeckeGenSet:
    """The lifted generators g_0 .. g_N and their inverses over an e-family."""

    point: object
    e: tuple[Matrix, ...]
    g: tuple[Matrix, ...]
    ginv: tuple[Matrix, ...]

    @property
    def n_sites(self) -> int:
        return len(self.e) - 1

    @property
    def dim(self) -> int:
        return self.e[0].nrows

    def word(self, letters) -> Matrix:
        """Product of g letters; negative index -i-1 means g_i^-1."""
        out = Matrix.identity(self.dim)
        for ell in letters:
            out = out @ (self.g[ell] if ell >= 0 else self.ginv[-ell - 1])
        return out


def g_coefficients(point, n_sites: int, i: int, sign: int):
    """(lead, coeff) with g_i^sign = lead + coeff * e_i."""
    if 0 < i < n_sites:
        return -point.q_power(ONE.scale(-sign)), 1
    exp = OMEGA1 if i == 0 else OMEGA2
    return (point.q_power(exp.scale(sign)),
            point.q_power((ONE + exp).scale(-sign))
            - point.q_power((ONE + exp).scale(sign)))


def lift_family(family, point) -> HeckeGenSet:
    """The Hecke generators over e_0 .. e_N (``family[0]`` .. ``family[N]``)."""
    e = tuple(family[i] for i in range(len(family)))
    ident = Matrix.identity(e[0].nrows)

    def lift(i, sign):
        lead, coeff = g_coefficients(point, len(e) - 1, i, sign)
        return ident.scale(lead) + e[i].scale(coeff)

    return HeckeGenSet(point, e, tuple(lift(i, 1) for i in range(len(e))),
                       tuple(lift(i, -1) for i in range(len(e))))


def lift_to_hecke(spec: ModuleSpec) -> HeckeGenSet:
    return lift_family(spec.generators, spec.params.point)


# ---------------------------------------------------------------------------
# Murphy families


def inverse_word(letters) -> tuple[int, ...]:
    """Letters of the inverse element: reversed, each letter inverted."""
    return tuple(-ell - 1 for ell in reversed(letters))


def _murphy_start(kind: str, n_sites: int) -> tuple[int, tuple[int, ...]]:
    if kind == "A":
        return 1, (1, 1)
    if kind == "B":
        return 0, (0,)
    if kind == "C":
        bulk = range(1, n_sites)
        return 0, (tuple(-i - 1 for i in bulk) + (n_sites,)
                   + tuple(reversed(bulk)) + (0,))
    raise ValueError(f"unknown Murphy kind {kind!r}")


def murphy_word(kind: str, n_sites: int, m: int) -> tuple[int, ...]:
    """Letters of J_m, as in ``HeckeGenSet.word``.

    The first element of each family is A: J_1 = g_1 g_1, B: J_0 = g_0, and
    C: J_0 = g_1^-1 .. g_{N-1}^-1 g_N g_{N-1} .. g_1 g_0; above it
    J_m = g_m J_{m-1} g_m.
    """
    start, first = _murphy_start(kind, n_sites)
    up = tuple(range(start + 1, m + 1))
    return up[::-1] + first + up


@dataclass(frozen=True)
class MurphyFamily:
    """Pairwise-commuting family J_0 .. J_{N-1} (J_1 .. J_{N-1} for A)."""

    kind: str  # "A", "B" or "C"
    gens: HeckeGenSet
    j: tuple[Matrix, ...]
    jinv: tuple[Matrix, ...]


def murphy(kind: str, gens: HeckeGenSet) -> MurphyFamily:
    """The family of ``murphy_word``, built by J_m = g_m J_{m-1} g_m."""
    start, first = _murphy_start(kind, gens.n_sites)
    js, jinvs = [gens.word(first)], [gens.word(inverse_word(first))]
    for i in range(start + 1, gens.n_sites):
        js.append(gens.g[i] @ js[-1] @ gens.g[i])
        jinvs.append(gens.ginv[i] @ jinvs[-1] @ gens.ginv[i])
    return MurphyFamily(kind, gens, tuple(js), tuple(jinvs))


# ---------------------------------------------------------------------------
# audits


def hecke_relation_audit(gens: HeckeGenSet) -> list[dict]:
    """Quadratic, braid and commutation relations plus the kernel relations
    of the surjection onto the diagram algebra."""
    point = gens.point
    n = gens.n_sites
    ident = Matrix.identity(gens.dim)
    q = lambda k: point.q_power(ONE.scale(k))
    qe = point.q_power
    out = []
    for i in range(n + 1):
        out.append(audit(f"hecke.inverse.{i}", gens.g[i] @ gens.ginv[i] - ident))
    for i in range(1, n):
        quad = ((gens.g[i] - ident.scale(q(1)))
                @ (gens.g[i] + ident.scale(q(-1))))
        out.append(audit(f"hecke.quadratic.bulk.{i}", quad))
    quad0 = ((gens.g[0] - ident.scale(qe(OMEGA1)))
             @ (gens.g[0] - ident.scale(qe(-OMEGA1))))
    out.append(audit("hecke.quadratic.left", quad0))
    quadn = ((gens.g[n] - ident.scale(qe(OMEGA2)))
             @ (gens.g[n] - ident.scale(qe(-OMEGA2))))
    out.append(audit("hecke.quadratic.right", quadn))
    for i in range(1, n - 1):
        out.append(audit(f"hecke.braid.{i}",
                         gens.word((i, i + 1, i)) - gens.word((i + 1, i, i + 1))))
    if n >= 2:
        out.append(audit("hecke.braid.left",
                         gens.word((0, 1, 0, 1)) - gens.word((1, 0, 1, 0))))
        out.append(audit("hecke.braid.right",
                         gens.word((n, n - 1, n, n - 1))
                         - gens.word((n - 1, n, n - 1, n))))
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out.append(audit(f"hecke.comm.{i}.{j}",
                             commutator(gens.g[i], gens.g[j])))
    # kernel of the surjection: the cubic reductions
    for i in range(1, n - 1):
        mat = (gens.word((i, i + 1, i))
               + gens.word((i, i + 1)).scale(q(-1))
               + gens.word((i + 1, i)).scale(q(-1))
               + gens.g[i].scale(q(-2)) + gens.g[i + 1].scale(q(-2))
               + ident.scale(q(-3)))
        out.append(audit(f"hecke.kernel.bulk.{i}", mat))
    if n >= 1:
        c1 = qe(OMEGA1) + qe(-OMEGA1)
        mat = (gens.word((1, 0, 1))
               + gens.word((0, 1)).scale(q(-1)) + gens.word((1, 0)).scale(q(-1))
               - gens.g[1].scale(q(-1) * c1) + gens.g[0].scale(q(-2))
               - ident.scale(q(-2) * c1))
        out.append(audit("hecke.kernel.left", mat))
        c2 = qe(OMEGA2) + qe(-OMEGA2)
        mat = (gens.word((n - 1, n, n - 1))
               + gens.word((n, n - 1)).scale(q(-1))
               + gens.word((n - 1, n)).scale(q(-1))
               - gens.g[n - 1].scale(q(-1) * c2) + gens.g[n].scale(q(-2))
               - ident.scale(q(-2) * c2))
        out.append(audit("hecke.kernel.right", mat))
    return sorted(out, key=lambda r: r["identity_id"])


def murphy_commutation_audit(fam: MurphyFamily) -> list[dict]:
    """Pairwise commutation and the mixed g/J commutation statements."""
    gens = fam.gens
    n = gens.n_sites
    js = fam.j
    out = []
    idx = list(range(len(js)))
    for x in idx:
        for y in idx:
            if x < y:
                out.append(audit(f"murphy.comm.{fam.kind}.{x}.{y}",
                                 commutator(js[x], js[y])))
    offset = 1 if fam.kind == "A" else 0
    for gi in range(1, n):
        for jj in idx:
            label = jj + offset
            if label in (gi - 1, gi):
                continue
            out.append(audit(f"murphy.gj.{fam.kind}.{gi}.{label}",
                             commutator(gens.g[gi], js[jj])))
    for gi in range(1, n):
        lo, hi = gi - 1 - offset, gi - offset
        if 0 <= lo and hi < len(js):
            out.append(audit(f"murphy.gprod.{fam.kind}.{gi}",
                             commutator(gens.g[gi], js[lo] @ js[hi])))
            out.append(audit(f"murphy.gsum.{fam.kind}.{gi}",
                             commutator(gens.g[gi], js[lo] + js[hi])))
    if fam.kind == "C":
        for jj in idx[1:]:
            out.append(audit(f"murphy.g0j.C.{jj}", commutator(gens.g[0], js[jj])))
    if fam.kind in ("B", "C"):
        out.append(audit(f"murphy.g0j0pair.{fam.kind}",
                         commutator(gens.g[0], js[0] + fam.jinv[0])))
    return sorted(out, key=lambda r: r["identity_id"])


def equivalent_presentation_audit(fam: MurphyFamily) -> list[dict]:
    """The alternative affine presentation through J_0, and the rebuild of g_N."""
    if fam.kind != "C":
        raise ValueError("the equivalent presentation concerns the affine family")
    gens = fam.gens
    point = gens.point
    n = gens.n_sites
    j0 = fam.j[0]
    g = gens.g
    out = []
    for i in range(2, n):
        out.append(audit(f"equiv.comm.{i}", commutator(g[i], j0)))
    out.append(audit("equiv.j0g1j0g1",
                     j0 @ g[1] @ j0 @ g[1] - g[1] @ j0 @ g[1] @ j0))
    out.append(audit("equiv.g0g1j0g1",
                     g[0] @ g[1] @ j0 @ g[1] - g[1] @ j0 @ g[1] @ g[0]))
    ident = Matrix.identity(gens.dim)
    x = j0 @ gens.ginv[0]
    quad = ((x - ident.scale(point.q_power(OMEGA2)))
            @ (x - ident.scale(point.q_power(-OMEGA2))))
    out.append(audit("equiv.quadratic", quad))
    rebuild = ident
    for i in reversed(range(1, n)):
        rebuild = rebuild @ g[i]
    rebuild = rebuild @ j0 @ gens.ginv[0]
    for i in range(1, n):
        rebuild = rebuild @ gens.ginv[i]
    out.append(audit("equiv.gn_rebuild", rebuild - g[n]))
    return sorted(out, key=lambda r: r["identity_id"])


def central_element(fam: MurphyFamily) -> Matrix:
    """Z_N = sum over the affine Murphy family of J_i + J_i^-1."""
    if fam.kind != "C":
        raise ValueError("the centre is built from the affine family")
    dim = fam.j[0].nrows
    out = Matrix.zeros(dim, dim)
    for j, jinv in zip(fam.j, fam.jinv):
        out = out + j + jinv
    return out


def central_scalar_expected(point, n_sites: int):
    """[N] * [2*th] / [th]."""
    return (point.qnum(HalfExponent.integer(n_sites))
            * point.qnum(THETA.scale(2)) / point.qnum_nonzero(THETA))


def centre_audit(spec: ModuleSpec, fam: MurphyFamily) -> list[dict]:
    """Z_N of the affine family ``fam`` on ``spec`` commutes with every
    generator; on the 2^N module it is the expected scalar."""
    z = central_element(fam)
    out = [audit(f"centre.comm.e{i}", commutator(z, e_mat))
           for i, e_mat in enumerate(fam.gens.e)]
    if spec.kind == "big":
        lam = central_scalar_expected(fam.gens.point, spec.n_sites)
        out.append(audit("centre.scalar",
                         z - Matrix.identity(z.nrows).scale(lam)))
    return sorted(out, key=lambda r: r["identity_id"])


# ---------------------------------------------------------------------------
# the horizontal-line evaluations behind the quotient


def _iji_sandwich_identities(spec: ModuleSpec, sign: int):
    """Expected right-hand sides for I J_0^(sign) I, as (id, lhs, rhs) pairs.

    ``sign`` +1 gives the Murphy identities, -1 the inverse-Murphy ones:
    the two differ exactly by q -> 1/q in every explicit power.
    """
    point = spec.params.point
    n = spec.n_sites
    qn = point.qnum
    qe = lambda x: point.q_power(x.scale(sign))
    two = qn(HalfExponent.integer(2))
    dq = point.q_power(ONE) - point.q_power(-ONE)  # q - 1/q
    dqs = sign * dq
    w1p1, w2p1 = qn(OMEGA1 + ONE), qn(OMEGA2 + ONE)
    w1_, w2_ = qn(OMEGA1), qn(OMEGA2)
    if n % 2 == 0:
        idents = [
            ("iji.j0.11", ("I1", 0, "I1"),
             lambda i1, i121: (i1.scale(qn((OMEGA1 + OMEGA2 + ONE).scale(2)) / qn(OMEGA1 + OMEGA2 + ONE))
                               - i121.scale(dq * dq * w1p1 * w2p1)
                               ).scale(qe(ONE.scale(-2)) * two ** ((n - 2) // 2))),
            ("iji.j0.22", ("I2", 0, "I2"),
             lambda i2, i212: (i2.scale(qe(-OMEGA2) * w1_ * w2_ / (w1p1 * w2p1))
                               + i212.scale(dqs * qn(OMEGA2 - ONE))
                               ).scale(qe(-OMEGA1) * two ** ((n - 2) // 2))),
            ("iji.jlast.22", ("I2", n - 1, "I2"),
             lambda i2, i212: (i2.scale(qe(-(ONE + OMEGA1)) * w1_ * w2_ / (w1p1 * w2p1))
                               + i212.scale(dqs * w1_)
                               ).scale(qe(-(OMEGA2 + ONE.scale(n - 1))) * two ** ((n - 2) // 2))),
        ]
        if n >= 4:
            # J_1 sits next to the right boundary when N = 2, where the
            # jlast evaluation applies instead
            idents.append(
                ("iji.j1.22", ("I2", 1, "I2"),
                 lambda i2, i212: (i2.scale(w1_ * w2_ * qn((OMEGA1 + OMEGA2).scale(2))
                                            / (w1p1 * w2p1 * qn(OMEGA1 + OMEGA2)))
                                   - i212.scale(dq * dq * w1_ * qn(OMEGA2 - ONE))
                                   ).scale(qe(ONE.scale(-3)) * two ** ((n - 4) // 2))))
        return idents
    return [
        ("iji.j0.11", ("I1", 0, "I1"),
         lambda i1, i121: (i1.scale(w2_ * qn((ONE + OMEGA1 - OMEGA2).scale(2))
                                    / (w2p1 * qn(ONE + OMEGA1 - OMEGA2)))
                           - i121.scale(dq * dq * w1p1 * qn(ONE - OMEGA2))
                           ).scale(qe(ONE.scale(-2)) * two ** ((n - 3) // 2))),
        ("iji.jlast.11", ("I1", n - 1, "I1"),
         lambda i1, i121: (i1.scale(qe(OMEGA1) * w2_ / w2p1)
                           - i121.scale(dqs * w1p1)
                           ).scale(qe(-(OMEGA2 + ONE.scale(n - 1))) * two ** ((n - 1) // 2))),
        ("iji.j0.22", ("I2", 0, "I2"),
         lambda i2, i212: (i2.scale(qe(OMEGA2) * w1_ / w1p1)
                           - i212.scale(dqs * qn(ONE + OMEGA2))
                           ).scale(qe(-OMEGA1) * two ** ((n - 1) // 2))),
        ("iji.j1.22", ("I2", 1, "I2"),
         lambda i2, i212: (i2.scale(w1_ * qn((OMEGA1 - OMEGA2).scale(2))
                                    / (w1p1 * qn(OMEGA1 - OMEGA2)))
                           + i212.scale(dq * dq * w1_ * w2p1)
                           ).scale(qe(ONE.scale(-3)) * two ** ((n - 3) // 2))),
    ]


def iji_audit(spec: ModuleSpec, fam: MurphyFamily) -> list[dict]:
    """All horizontal-line evaluations, as exact matrix identities.

    Covers (a) the two-step recursions of I J_i I in i, (b) the explicit
    I J_0 I / I J_1 I / I J_{N-1} I evaluations and their inverse-Murphy
    mirror images, (c) the normalisations of I1^2 and I2^2, and (d) the
    assembled quotient identities I1 I2 I1 = b I1, I2 I1 I2 = b I2, all
    with the affine family ``fam`` on the 2^N module ``spec``.
    """
    if spec.kind != "big":
        raise ValueError("the audit runs on the 2^N module")
    point = spec.params.point
    n = spec.n_sites
    i1, i2 = (word_product(fam.gens.e, w) for w in idempotent_words(n))
    qsq = point.q_power(ONE.scale(2))
    out = []
    # (a) recursions
    for name, imat in (("I1", i1), ("I2", i2)):
        parity = 0 if name == "I1" else 1
        # the two-step chain stops before the index tied to the far boundary
        stop2 = n - 2 if parity == n % 2 else n - 4
        for sign, tag in ((1, "j"), (-1, "jinv")):
            fam_j = fam.j if sign == 1 else fam.jinv
            step = qsq if sign == 1 else 1 / qsq
            for lo in range(parity, n - 1, 2):
                hi = lo + 1
                out.append(audit(f"iji.recur.{name}.{tag}.{hi}vs{lo}",
                                 imat @ fam_j[hi] @ imat
                                 - (imat @ fam_j[lo] @ imat).scale(step)))
            for lo in range(parity, stop2, 2):
                hi = lo + 2
                out.append(audit(f"iji.recur.{name}.{tag}.{hi}vs{lo}",
                                 imat @ fam_j[hi] @ imat
                                 - (imat @ fam_j[lo] @ imat).scale(1 / step)))
    # (b) explicit evaluations, Murphy and inverse-Murphy
    mats = {"I1": i1, "I2": i2}
    for sign, tag in ((1, ""), (-1, ".inv")):
        fam_j = fam.j if sign == 1 else fam.jinv
        for ident, (left, jidx, _right), rhs in _iji_sandwich_identities(spec, sign):
            if jidx >= n:
                continue
            imat = mats[left]
            sandwich = imat @ mats["I2" if left == "I1" else "I1"] @ imat
            lhs = imat @ fam_j[jidx] @ imat
            out.append(audit(ident + tag, lhs - rhs(imat, sandwich)))
    # (c) idempotent normalisations
    qn = point.qnum
    two = qn(HalfExponent.integer(2))
    if n % 2 == 0:
        norm1 = two ** (n // 2)
        norm2 = (two ** ((n - 2) // 2) * qn(OMEGA1) * qn(OMEGA2)
                 / (qn(OMEGA1 + ONE) * qn(OMEGA2 + ONE)))
    else:
        norm1 = two ** ((n - 1) // 2) * qn(OMEGA2) / qn(OMEGA2 + ONE)
        norm2 = two ** ((n - 1) // 2) * qn(OMEGA1) / qn(OMEGA1 + ONE)
    out.append(audit("iji.sq.I1", i1 @ i1 - i1.scale(norm1)))
    out.append(audit("iji.sq.I2", i2 @ i2 - i2.scale(norm2)))
    # (d) the assembled quotient
    b = spec.b
    out.append(audit("iji.assembled.121", i1 @ i2 @ i1 - i1.scale(b)))
    out.append(audit("iji.assembled.212", i2 @ i1 @ i2 - i2.scale(b)))
    return sorted(out, key=lambda r: r["identity_id"])


__all__ = [
    "HeckeGenSet", "MurphyFamily", "central_element", "central_scalar_expected",
    "centre_audit", "equivalent_presentation_audit", "g_coefficients",
    "hecke_relation_audit", "iji_audit", "inverse_word", "lift_family",
    "lift_to_hecke", "murphy", "murphy_commutation_audit", "murphy_word",
]
