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
from functools import cached_property

from .audit import audit
from .linalg import Matrix, commutator, product_difference
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
        return word_product(self.g + self.ginv[::-1], letters)

    @cached_property
    def g_comm(self) -> tuple[Matrix, ...]:
        """For each i, e_i when g_i = lead + coeff e_i with coeff != 0, else
        g_i.  [g_i, X] = coeff [e_i, X], so a commutator with ``g_comm[i]``
        vanishes at the same entries as [g_i, X]: a record, which names only
        the first of them, is the same either way, and e_i is the sparser
        factor."""
        n = self.n_sites
        return tuple(e if g_coefficients(self.point, n, i, 1)[1] else g
                     for i, (e, g) in enumerate(zip(self.e, self.g)))


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
    return lift_family(spec.generators, spec.point)


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
    g = gens.g
    ident = Matrix.identity(gens.dim)
    q = lambda k: point.q_power(ONE.scale(k))

    def quadratic(i, root, other):
        return (g[i] - ident.scale(root)) @ (g[i] - ident.scale(other))

    def kernel(a, w, c):
        """The cubic reduction of g_a g_w g_a: c is q^w + q^-w at a wall
        with parameter w, and -1/q in the bulk."""
        return (gens.word((a, w, a))
                + (gens.word((w, a)) + gens.word((a, w))).scale(q(-1))
                - g[a].scale(q(-1) * c) + g[w].scale(q(-2))
                - ident.scale(q(-2) * c))

    out = [audit(f"hecke.inverse.{i}", g[i] @ gens.ginv[i] - ident)
           for i in range(n + 1)]
    for i in range(1, n):
        out.append(audit(f"hecke.quadratic.bulk.{i}",
                         quadratic(i, q(1), -q(-1))))
    for i in range(1, n - 1):
        out.append(audit(f"hecke.braid.{i}",
                         gens.word((i, i + 1, i)) - gens.word((i + 1, i, i + 1))))
        out.append(audit(f"hecke.kernel.bulk.{i}", kernel(i, i + 1, -q(-1))))
    # [g_i, g_j] = coeff_i coeff_j [e_i, e_j]: see ``HeckeGenSet.g_comm``
    gc = gens.g_comm
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out.append(audit(f"hecke.comm.{i}.{j}", commutator(gc[i], gc[j])))
    # (side, wall generator, its bulk neighbour, wall parameter)
    for side, w, a, omega in (("left", 0, 1, OMEGA1),
                              ("right", n, n - 1, OMEGA2)):
        root, other = point.q_power(omega), point.q_power(-omega)
        out.append(audit(f"hecke.quadratic.{side}", quadratic(w, root, other)))
        if n >= 2:
            out.append(audit(f"hecke.braid.{side}", gens.word((w, a, w, a))
                             - gens.word((a, w, a, w))))
        out.append(audit(f"hecke.kernel.{side}", kernel(a, w, root + other)))
    return out


def _passed(record: dict) -> bool:
    return record["status"] == "pass"


def murphy_commutation_audit(fam: MurphyFamily) -> list[dict]:
    """Pairwise commutation and the mixed g/J commutation statements.

    ``fam`` is built by ``murphy``, so J_y = g J_{y-1} g with g = g_{y+off}
    (off = 1 for family A, whose J_0 is absent, else 0).  Every commutator
    with a g is taken with ``HeckeGenSet.g_comm``.  Two kinds of record are
    derived from others instead of formed:

    - ``murphy.comm.K.x.y`` for y >= x + 2: J_x commutes with J_y when it
      commutes with g_{y+off} (``murphy.gj.K.(y+off).(x+off)``) and with
      J_{y-1} (``murphy.comm.K.x.(y-1)``, formed or derived in turn);
    - ``murphy.gprod.K.i``: with J_hi = g_i J_lo g_i, [g_i, J_lo J_hi] =
      [J_hi, J_lo] g_i, which vanishes when the adjacent
      ``murphy.comm.K.lo.hi`` passes (and, g_i being invertible, only then).

    A derived record passes.  When a premise fails the commutator is formed,
    so that the record names its first nonzero entry, as a formed one does.
    """
    gens = fam.gens
    n = gens.n_sites
    kind = fam.kind
    js = fam.j
    gc = gens.g_comm
    idx = range(len(js))
    offset = 1 if kind == "A" else 0
    gj = {}
    for gi in range(1, n):
        for jj in idx:
            label = jj + offset
            if label in (gi - 1, gi):
                continue
            gj[gi, label] = audit(f"murphy.gj.{kind}.{gi}.{label}",
                                  commutator(gc[gi], js[jj]))
    comm = {}
    for x in idx:
        for y in idx[x + 1:]:
            derived = (y >= x + 2 and _passed(comm[x, y - 1])
                       and _passed(gj[y + offset, x + offset]))
            comm[x, y] = audit(f"murphy.comm.{kind}.{x}.{y}", True if derived
                               else commutator(js[x], js[y]))
    out = list(comm.values()) + list(gj.values())
    for gi in range(1, n):
        lo, hi = gi - 1 - offset, gi - offset
        if 0 <= lo and hi < len(js):
            out.append(audit(f"murphy.gprod.{kind}.{gi}",
                             True if _passed(comm[lo, hi])
                             else commutator(gc[gi], js[lo] @ js[hi])))
            out.append(audit(f"murphy.gsum.{kind}.{gi}",
                             commutator(gc[gi], js[lo] + js[hi])))
    if kind == "C":
        for jj in idx[1:]:
            out.append(audit(f"murphy.g0j.C.{jj}", commutator(gc[0], js[jj])))
    if kind in ("B", "C"):
        out.append(audit(f"murphy.g0j0pair.{kind}",
                         commutator(gc[0], js[0] + fam.jinv[0])))
    return out


def equivalent_presentation_audit(fam: MurphyFamily) -> list[dict]:
    """The alternative affine presentation through J_0, and the rebuild of g_N.

    ``fam`` is the affine family of ``murphy``, so J_1 = g_1 J_0 g_1 and
    ``equiv.g0g1j0g1``, g_0 g_1 J_0 g_1 - g_1 J_0 g_1 g_0, is [g_0, J_1];
    ``equiv.j0g1j0g1`` is x x - y y with x = J_0 g_1 and y = g_1 J_0.
    Commutators with a g are taken with ``HeckeGenSet.g_comm``.
    """
    if fam.kind != "C":
        raise ValueError("the equivalent presentation concerns the affine family")
    gens = fam.gens
    point = gens.point
    n = gens.n_sites
    j0 = fam.j[0]
    g = gens.g
    gc = gens.g_comm
    out = []
    for i in range(2, n):
        out.append(audit(f"equiv.comm.{i}", commutator(gc[i], j0)))
    x, y = j0 @ g[1], g[1] @ j0
    out.append(audit("equiv.j0g1j0g1", product_difference(x, x, y, y)))
    out.append(audit("equiv.g0g1j0g1", commutator(gc[0], fam.j[1])))
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
    return out


def central_element(fam: MurphyFamily) -> Matrix:
    """Z_N = sum over the affine Murphy family of J_i + J_i^-1."""
    if fam.kind != "C":
        raise ValueError("the centre is built from the affine family")
    dim = fam.j[0].nrows
    out = Matrix.zeros(dim, dim)
    for j, jinv in zip(fam.j, fam.jinv):
        out = out + j + jinv
    return out


def central_scalar(point, n_sites: int, x: HalfExponent):
    """[N] (q^x + q^-x), the scalar of Z_N at twist x, written pole-free:
    it equals [N] [2x] / [x] wherever [x] != 0."""
    return (point.qnum(HalfExponent.integer(n_sites))
            * (point.q_power(x) + point.q_power(-x)))


def centre_offset(fam: MurphyFamily, x: HalfExponent) -> Matrix:
    """Z_N - [N] (q^x + q^-x) 1 for the affine family ``fam``: zero exactly
    when the centre acts by the scalar of twist x, and otherwise nonzero
    first where Z_N differs from that scalar."""
    z = central_element(fam)
    lam = central_scalar(fam.gens.point, fam.gens.n_sites, x)
    return z - Matrix.identity(z.nrows).scale(lam)


def centre_audit(spec: ModuleSpec, fam: MurphyFamily) -> list[dict]:
    """Z_N of the affine family ``fam`` on ``spec`` commutes with every
    generator; on the 2^N module it is the expected scalar.  The offset
    Z_N - lambda 1 has the same commutators as Z_N."""
    offset = centre_offset(fam, THETA)
    out = [audit(f"centre.comm.e{i}", commutator(offset, e_mat))
           for i, e_mat in enumerate(fam.gens.e)]
    if spec.kind == "big":
        out.append(audit("centre.scalar", offset))
    return out


# ---------------------------------------------------------------------------
# the horizontal-line evaluations behind the quotient


def _iji_sandwich_identities(spec: ModuleSpec, sign: int):
    """Rows (id, I, j, x, y) with I J_j^(sign) I = x I + y S, where S is the
    sandwich of I (I1 I2 I1 for I1, I2 I1 I2 for I2).

    ``sign`` +1 gives the Murphy identities, -1 the inverse-Murphy ones:
    the two differ exactly by q -> 1/q in every explicit power.  The
    coefficients are written in the point's loop weights delta = [2],
    s1 = [w1]/[w1+1] and s2 = [w2]/[w2+1].
    """
    point = spec.point
    n = spec.n_sites
    qn = point.qnum
    delta, s1, s2 = point.delta, point.s1, point.s2
    dq = point.q_power(ONE) - point.q_power(-ONE)  # q - 1/q
    dq2, dqs = dq * dq, sign * dq
    w1, w1p1, w2p1 = qn(OMEGA1), qn(OMEGA1 + ONE), qn(OMEGA2 + ONE)

    def qe(x: HalfExponent):
        return point.q_power(x.scale(sign))

    # the overall factors: a power of q times a power of delta
    k = delta ** ((n - 1) // 2)
    cw, clast = qe(-OMEGA1) * k, qe(-(OMEGA2 + ONE.scale(n - 1))) * k
    c2 = qe(ONE.scale(-2)) * (k if n % 2 == 0 else k / delta)
    c3 = qe(ONE.scale(-3)) * k / delta
    if n % 2 == 0:
        w = OMEGA1 + OMEGA2
        rows = [
            ("iji.j0.11", "I1", 0, c2 * qn((w + ONE).scale(2)) / qn(w + ONE),
             -c2 * dq2 * w1p1 * w2p1),
            ("iji.j0.22", "I2", 0, cw * qe(-OMEGA2) * s1 * s2,
             cw * dqs * qn(OMEGA2 - ONE)),
            ("iji.jlast.22", "I2", n - 1,
             clast * qe(-(ONE + OMEGA1)) * s1 * s2, clast * dqs * w1),
        ]
        if n >= 4:
            # J_1 sits next to the right boundary when N = 2, where the
            # jlast evaluation applies instead
            rows.append(("iji.j1.22", "I2", 1,
                         c3 * s1 * s2 * qn(w.scale(2)) / qn(w),
                         -c3 * dq2 * w1 * qn(OMEGA2 - ONE)))
        return rows
    w = OMEGA1 - OMEGA2
    return [
        ("iji.j0.11", "I1", 0, c2 * s2 * qn((ONE + w).scale(2)) / qn(ONE + w),
         -c2 * dq2 * w1p1 * qn(ONE - OMEGA2)),
        ("iji.jlast.11", "I1", n - 1, clast * qe(OMEGA1) * s2,
         -clast * dqs * w1p1),
        ("iji.j0.22", "I2", 0, cw * qe(OMEGA2) * s1,
         -cw * dqs * qn(ONE + OMEGA2)),
        ("iji.j1.22", "I2", 1, c3 * s1 * qn(w.scale(2)) / qn(w),
         c3 * dq2 * w1 * w2p1),
    ]


def iji_audit(spec: ModuleSpec, fam: MurphyFamily) -> list[dict]:
    """All horizontal-line evaluations, as exact matrix identities.

    Covers (a) the two-step recursions of I J_i I in i, (b) the explicit
    I J_0 I / I J_1 I / I J_{N-1} I evaluations and their inverse-Murphy
    mirror images, each row of ``_iji_sandwich_identities`` checked as
    I J_j I - x I - y S, (c) the normalisations I^2 = delta^k s1^a s2^b I
    (I1^2 = delta^(N/2) I1 and I2^2 = delta^(N/2-1) s1 s2 I2 for even N,
    I1^2 = delta^((N-1)/2) s2 I1 and I2^2 = delta^((N-1)/2) s1 I2 for odd
    N), and (d) the assembled quotient identities I1 I2 I1 = b I1,
    I2 I1 I2 = b I2, all with the affine family ``fam`` on the 2^N module
    ``spec``.
    """
    if spec.kind != "big":
        raise ValueError("the audit runs on the 2^N module")
    point = spec.point
    n = spec.n_sites
    i1, i2 = (word_product(fam.gens.e, w) for w in idempotent_words(n))
    mats = {"I1": i1, "I2": i2}
    formed = {}

    def iji(name: str, sign: int, k: int) -> Matrix:
        """I J_k^sign I, formed once per idempotent, sign and k."""
        if (name, sign, k) not in formed:
            imat = mats[name]
            fam_j = fam.j if sign == 1 else fam.jinv
            formed[name, sign, k] = imat @ fam_j[k] @ imat
        return formed[name, sign, k]

    qsq = point.q_power(ONE.scale(2))
    out = []
    # (a) recursions
    for name in mats:
        parity = 0 if name == "I1" else 1
        # the two-step chain stops before the index tied to the far boundary
        stop2 = n - 2 if parity == n % 2 else n - 4
        for sign, tag in ((1, "j"), (-1, "jinv")):
            step = qsq if sign == 1 else 1 / qsq
            for gap, stop, ratio in ((1, n - 1, step), (2, stop2, 1 / step)):
                for lo in range(parity, stop, 2):
                    out.append(audit(
                        f"iji.recur.{name}.{tag}.{lo + gap}vs{lo}",
                        iji(name, sign, lo + gap)
                        - iji(name, sign, lo).scale(ratio)))
    # (b) explicit evaluations, Murphy and inverse-Murphy
    sandwiches = {"I1": i1 @ i2 @ i1, "I2": i2 @ i1 @ i2}
    for sign, tag in ((1, ""), (-1, ".inv")):
        for ident, name, j, x, y in _iji_sandwich_identities(spec, sign):
            if j < n:
                out.append(audit(ident + tag, iji(name, sign, j)
                                 - mats[name].scale(x)
                                 - sandwiches[name].scale(y)))
    # (c) idempotent normalisations
    k = point.delta ** ((n - 1) // 2)
    norms = ({"I1": k * point.delta, "I2": k * point.s1 * point.s2}
             if n % 2 == 0 else {"I1": k * point.s2, "I2": k * point.s1})
    for name, imat in mats.items():
        out.append(audit(f"iji.sq.{name}",
                         imat @ imat - imat.scale(norms[name])))
    # (d) the assembled quotient
    for name, tag in (("I1", "121"), ("I2", "212")):
        out.append(audit(f"iji.assembled.{tag}",
                         sandwiches[name] - mats[name].scale(spec.b)))
    return out


__all__ = [
    "HeckeGenSet", "MurphyFamily", "central_element", "central_scalar",
    "centre_audit", "centre_offset", "equivalent_presentation_audit",
    "g_coefficients", "hecke_relation_audit", "iji_audit", "inverse_word",
    "lift_family", "lift_to_hecke", "murphy", "murphy_commutation_audit",
    "murphy_word",
]
