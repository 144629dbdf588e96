"""Hecke generators, Murphy families and the centre, inside a chosen module.

Every object here is a matrix acting on a fixed module: the surjection onto
the diagram algebra sends

    g_i^(+-1) = e_i - q^(-+1),
    g_0^(+-1) = q^(+-w1) - (q^(+-(1+w1)) - q^(-+(1+w1))) e_0,
    g_N^(+-1) = q^(+-w2) - (q^(+-(1+w2)) - q^(-+(1+w2))) e_N,

and all commutation statements, the equivalent presentation of the affine
family, the central element Z_N = sum(J_i + J_i^-1), and the two-sided
horizontal-line evaluations are verified as exact matrix identities.  A
record that follows from other passing records about the same generators
is derived from them instead (``Records.derive``), and one whose matrix is
another record's up to a nonzero factor is read from it
(``Records.read``); each proof stands beside the premises it names.  An
identity in one generator or two adjacent ones is written once, as
``wordrep.PairWords`` terms, which decide it by normal form and give its
matrix (``PairWords.record``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .audit import Records, audit
from .linalg import Matrix, commutator
from .scalars import ONE, OMEGA1, OMEGA2, THETA, HalfExponent
# ``generator_matrix`` is unused here but stays bound: perfbench/tracer.py
# rebinds it
from .wordrep import (ModuleSpec, PairWords,  # noqa: F401
                      generator_matrix, idempotent_words, word_product)


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
    """Pairwise-commuting family J_0 .. J_{N-1} (J_1 .. J_{N-1} for A).

    Each chain is built on first use, by J_m = g_m J_{m-1} g_m from the
    first element: the elements ``j``, the first inverse alone
    (``first_inverse``) or the whole inverse chain ``jinv``."""

    kind: str  # "A", "B" or "C"
    gens: HeckeGenSet

    def _chain(self, first: Matrix, g: tuple[Matrix, ...]):
        start, _ = _murphy_start(self.kind, self.gens.n_sites)
        out = [first]
        for i in range(start + 1, self.gens.n_sites):
            out.append(g[i] @ out[-1] @ g[i])
        return tuple(out)

    @property
    def size(self) -> int:
        """The number of elements, known without building them."""
        start, _ = _murphy_start(self.kind, self.gens.n_sites)
        return 1 + len(range(start + 1, self.gens.n_sites))

    @cached_property
    def j(self) -> tuple[Matrix, ...]:
        _, first = _murphy_start(self.kind, self.gens.n_sites)
        return self._chain(self.gens.word(first), self.gens.g)

    @cached_property
    def first_inverse(self) -> Matrix:
        """J_0^-1 (J_1^-1 for A), from the inverse word."""
        _, first = _murphy_start(self.kind, self.gens.n_sites)
        return self.gens.word(inverse_word(first))

    @cached_property
    def jinv(self) -> tuple[Matrix, ...]:
        """Each J_m^-1, by J_m^-1 = g_m^-1 J_{m-1}^-1 g_m^-1."""
        return self._chain(self.first_inverse, self.gens.ginv)


def murphy(kind: str, gens: HeckeGenSet) -> MurphyFamily:
    """The family of ``murphy_word``; its elements are built on first use."""
    _murphy_start(kind, gens.n_sites)  # an unknown kind raises here
    return MurphyFamily(kind, gens)


# ---------------------------------------------------------------------------
# audits


def hecke_relation_audit(gens: HeckeGenSet, store: Records | None = None
                         ) -> list[dict]:
    """Quadratic, braid and commutation relations plus the kernel relations
    of the surjection onto the diagram algebra.

    Each record is kept in ``store`` (``audit.Records``) and derived there
    from the records of ``wordrep.relation_audit`` on the same e_i where
    they prove it; every other record is formed, so that a failure names
    the first nonzero entry of its matrix.  Each identity but a
    commutation is written once, as ``PairWords`` terms, and
    ``wordrep.evaluate`` forms its matrix from them.
    """
    point = gens.point
    n = gens.n_sites
    store = Records.about(store, gens.e, point)
    q = lambda k: point.q_power(ONE.scale(k))

    def el(i, sign=1):
        """g_i^sign = lead + coeff e_i as a ``PairWords`` element."""
        lead, coeff = g_coefficients(point, n, i, sign)
        return {(): lead, (i,): coeff}

    # hecke.inverse, .quadratic, .braid and .kernel are polynomials in one
    # generator or two adjacent ones, with g = lead + coeff e
    # (``g_coefficients``): each passes when it reduces to zero by the TL
    # relations of its generators and their records passed, since the
    # rewriting replaces factors by equal ones wherever those relations hold
    def quadratic(name, i, root, other):
        return PairWords.record(store, name, (i,), (1, el(i), el(i)),
                                (-(root + other), el(i)), (root * other,))

    def kernel(name, a, w, c):
        """The cubic reduction of g_a g_w g_a: c is q^w + q^-w at a wall
        with parameter w, and -1/q in the bulk."""
        return PairWords.record(
            store, name, (a, w), (1, el(a), el(w), el(a)),
            (q(-1), el(w), el(a)), (q(-1), el(a), el(w)),
            (-q(-1) * c, el(a)), (q(-2), el(w)), (-q(-2) * c,))

    def braid(name, word, other):
        return PairWords.record(store, name, set(word),
                                (1, *(el(i) for i in word)),
                                (-1, *(el(i) for i in other)))

    out = [PairWords.record(store, f"hecke.inverse.{i}", (i,),
                            (1, el(i), el(i, -1)), (-1,))
           for i in range(n + 1)]
    for i in range(1, n):
        out.append(quadratic(f"hecke.quadratic.bulk.{i}", i, q(1), -q(-1)))
    for i in range(1, n - 1):
        out.append(braid(f"hecke.braid.{i}", (i, i + 1, i),
                         (i + 1, i, i + 1)))
        out.append(kernel(f"hecke.kernel.bulk.{i}", i, i + 1, -q(-1)))
    coeffs = [g_coefficients(point, n, i, 1)[1] for i in range(n + 1)]
    gc = gens.g_comm
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            name = f"hecke.comm.{i}.{j}"
            form = lambda: commutator(gc[i], gc[j])
            # [g_i, g_j] = coeff_i coeff_j [e_i, e_j]: the matrix of
            # comm.i.j times a nonzero factor when both coeffs are nonzero,
            # and zero otherwise, since g_i or g_j is then a scalar
            out.append(store.read(name, f"comm.{i}.{j}", form)
                       if coeffs[i] and coeffs[j]
                       else store.derive(name, (), form))
    # (side, wall generator, its bulk neighbour, wall parameter)
    for side, w, a, omega in (("left", 0, 1, OMEGA1),
                              ("right", n, n - 1, OMEGA2)):
        root, other = point.q_power(omega), point.q_power(-omega)
        out.append(quadratic(f"hecke.quadratic.{side}", w, root, other))
        if n >= 2:
            out.append(braid(f"hecke.braid.{side}", (w, a, w, a),
                             (a, w, a, w)))
        out.append(kernel(f"hecke.kernel.{side}", a, w, root + other))
    return out


def murphy_commutation_audit(fam: MurphyFamily,
                             store: Records | None = None) -> list[dict]:
    """Pairwise commutation and the mixed g/J commutation statements.

    ``fam`` is built by ``murphy``, so J_y = g J_{y-1} g with g = g_{y+off}
    (off = 1 for family A, whose J_0 is absent, else 0).  Every commutator
    with a g is taken with ``HeckeGenSet.g_comm``.  Each record is kept in
    ``store`` and derived there, where its premises passed, from the
    records of this audit and of ``hecke_relation_audit`` on the same e_i;
    the proof of each derivation stands beside its premises.  A record
    whose premise fails is formed, so that it names its first nonzero
    entry, as a formed one does; the elements J are built only for a record
    that is formed.
    """
    gens = fam.gens
    n = gens.n_sites
    kind = fam.kind
    gc = gens.g_comm
    idx = range(fam.size)
    off = 1 if kind == "A" else 0
    store = Records.about(store, gens.e, gens.point)
    gj = lambda i, y: f"murphy.gj.{kind}.{i}.{y}"
    comm = lambda x, y: f"murphy.comm.{kind}.{x}.{y}"

    def gj_premises(i, y):
        """The premises of ``murphy.gj.K.i.y``, [g_i, J_y] = 0."""
        if y == i + 1:
            # with a = g_i, b = g_{i+1} and K = J_{i-1} (K = 1 for A at
            # i = 1), J_{i+1} = baKab, and a baKab = (aba)Kab = (bab)Kab =
            # ba(bK)ab = baK(bab) = baK(aba) = baKab a by aba = bab and
            # Kb = bK
            return (f"hecke.braid.{i}",) + ((gj(i + 1, i - 1),)
                                            if i > off else ())
        # J_y = g_y J_{y-1} g_y, and the first element is g_1 g_1 for A and
        # g_0 for B, so g_i commutes with J_y when it commutes with g_y and
        # with J_{y-1} (nothing for the first element).  C's J_0 is a word
        # in every generator, so gj.C.i.0 is formed
        if y == off:
            return None if kind == "C" else (f"hecke.comm.{y}.{i}",)
        return f"hecke.comm.{min(i, y)}.{max(i, y)}", gj(i, y - 1)

    def comm_premises(x, y):
        """The premises of ``murphy.comm.K.x.y``, [J_x, J_y] = 0, y > x."""
        if y >= x + 2:
            # J_x commutes with J_y = g J_{y-1} g, g = g_{y+off}, when it
            # commutes with g and with J_{y-1}
            return comm(x, y - 1), gj(y + off, x + off)
        if x:
            # with K = J_{x-1}, a = g_{x+off} and b = g_{x+1+off}, J_x = aKa
            # and J_{x+1} = bJ_xb, and the chain aK(aba)Kab = aKbabKab =
            # abKaKbab = abKaKaba = abaKaKba = babKaKba = baKbaKba =
            # baKbabKa = baKabaKa turns J_x J_{x+1} into J_{x+1} J_x using
            # only aba = bab, Kb = bK and K aKa = aKa K
            return (f"hecke.braid.{x + off}", comm(x - 1, x),
                    gj(x + 1 + off, x - 1 + off))
        # the base x = 0: for A the same chain with K = 1; C's J_0 is a
        # word in every generator, so comm.C.0.1 is formed
        return (f"hecke.braid.{x + off}",) if kind == "A" else None

    pairs = [(i, y + off) for i in range(1, n) for y in idx
             if y + off not in (i - 1, i)]
    # those below the diagonal first: gj.K.i.(i+1) reads gj.K.(i+1).(i-1)
    for i, y in sorted(pairs, key=lambda p: p[1] > p[0]):
        store.derive(gj(i, y), gj_premises(i, y),
                     lambda: commutator(gc[i], fam.j[y - off]))
    out = []
    for x in idx:
        for y in idx[x + 1:]:
            form = lambda: commutator(fam.j[x], fam.j[y])
            # for B, [J_0, J_1] = [g_0, g_1 g_0 g_1] is the matrix of
            # hecke.braid.left
            out.append(store.read(comm(x, y), "hecke.braid.left", form)
                       if (kind, y) == ("B", 1)
                       else store.derive(comm(x, y), comm_premises(x, y),
                                         form))
    out += (store[gj(i, y)] for i, y in pairs)
    for gi in range(1, n):
        lo, hi = gi - 1 - off, gi - off
        if 0 <= lo and hi < fam.size:
            # with J_hi = g_i J_lo g_i, [g_i, J_lo J_hi] = [J_hi, J_lo] g_i,
            # which vanishes when the adjacent commutator does (and, g_i
            # being invertible, only then)
            out.append(store.derive(
                f"murphy.gprod.{kind}.{gi}", (comm(lo, hi),),
                lambda: commutator(gc[gi], fam.j[lo] @ fam.j[hi])))
            # g_i^2 = (q - 1/q) g_i + 1 makes g (J + gJg) = gJ +
            # (q - 1/q) gJg + Jg equal (J + gJg) g
            out.append(store.derive(
                f"murphy.gsum.{kind}.{gi}", (f"hecke.quadratic.bulk.{gi}",),
                lambda: commutator(gc[gi], fam.j[lo] + fam.j[hi])))
    if kind == "C":
        for y in idx[1:]:
            # g_0 commutes with J_y = g_y J_{y-1} g_y, y >= 2, when it
            # commutes with g_y and with J_{y-1}
            out.append(store.derive(
                f"murphy.g0j.C.{y}", (f"murphy.g0j.C.{y - 1}",
                                      f"hecke.comm.0.{y}") if y >= 2 else None,
                lambda: commutator(gc[0], fam.j[y])))
        out.append(store.derive("murphy.g0j0pair.C", None, lambda: commutator(
            gc[0], fam.j[0] + fam.first_inverse)))
    if kind == "B":
        # J_0 = g_0 and J_0^-1 = g_0^-1 are both polynomials in e_0, so they
        # commute with it; no premise is needed
        out.append(store.derive("murphy.g0j0pair.B", (), None))
    return out


def equivalent_presentation_audit(fam: MurphyFamily,
                                  store: Records | None = None) -> list[dict]:
    """The alternative affine presentation through J_0, and the rebuild of g_N.

    ``fam`` is the affine family of ``murphy``, so J_1 = g_1 J_0 g_1:
    ``equiv.g0g1j0g1``, g_0 g_1 J_0 g_1 - g_1 J_0 g_1 g_0, is [g_0, J_1],
    and ``equiv.j0g1j0g1``, J_0 g_1 J_0 g_1 - g_1 J_0 g_1 J_0, is
    [J_0, J_1].  Commutators with a g are taken with
    ``HeckeGenSet.g_comm``.  Each record is kept in ``store`` and read or
    derived there from the records of the other audits on the same e_i
    where they prove it; a record whose premise is missing or failed is
    formed.
    """
    if fam.kind != "C":
        raise ValueError("the equivalent presentation concerns the affine family")
    if fam.size < 2:
        raise ValueError("the equivalent presentation needs N >= 2, where "
                         "the affine family has J_1")
    gens = fam.gens
    point = gens.point
    n = gens.n_sites
    g = gens.g
    gc = gens.g_comm
    store = Records.about(store, gens.e, point)
    # equiv.comm.i, equiv.j0g1j0g1 and equiv.g0g1j0g1 are the matrices of
    # murphy.gj.C.i.0, murphy.comm.C.0.1 and murphy.g0j.C.1
    out = [store.read(f"equiv.comm.{i}", f"murphy.gj.C.{i}.0",
                      lambda: commutator(gc[i], fam.j[0]))
           for i in range(2, n)]
    out.append(store.read("equiv.j0g1j0g1", "murphy.comm.C.0.1",
                          lambda: commutator(fam.j[0], fam.j[1])))
    out.append(store.read("equiv.g0g1j0g1", "murphy.g0j.C.1",
                          lambda: commutator(gc[0], fam.j[1])))
    # J_0 = W g_N V g_0 with W = g_1^-1 .. g_{N-1}^-1 and V = g_{N-1} ..
    # g_1, so when each g_i g_i^-1 = 1 (i < N; for square matrices then
    # g_i^-1 g_i = 1 and V W = W V = 1), J_0 g_0^-1 = W g_N W^-1:
    # equiv.gn_rebuild, V J_0 g_0^-1 W = g_N, holds, and so does
    # equiv.quadratic, (J_0 g_0^-1 - q^w2)(J_0 g_0^-1 - q^-w2) =
    # W (g_N - q^w2)(g_N - q^-w2) W^-1, when hecke.quadratic.right passed
    inverses = tuple(f"hecke.inverse.{i}" for i in range(n))
    ident = Matrix.identity(gens.dim)

    def quadratic():
        x = fam.j[0] @ gens.ginv[0]
        return ((x - ident.scale(point.q_power(OMEGA2)))
                @ (x - ident.scale(point.q_power(-OMEGA2))))

    def rebuild():
        prod = ident
        for i in reversed(range(1, n)):
            prod = prod @ g[i]
        prod = prod @ fam.j[0] @ gens.ginv[0]
        for i in range(1, n):
            prod = prod @ gens.ginv[i]
        return prod - g[n]

    out.append(store.derive("equiv.quadratic",
                            inverses + ("hecke.quadratic.right",), quadratic))
    out.append(store.derive("equiv.gn_rebuild", inverses, rebuild))
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
