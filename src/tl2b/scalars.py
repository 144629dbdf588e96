"""Exact coefficient field: q-numbers in four half-integer generators.

All identities in this package are rational-function identities in the four
quantities q^(1/2), q^(w1/2), q^(w2/2), q^(th/2).  A point assigns a nonzero
exact rational to each generator; an exponent is a half-integer combination
(m + c1*w1 + c2*w2 + c3*th)/2 stored as four integers, so every power of q
that ever appears is a Laurent monomial in the four generator values.

Genericity is certified multiplicatively: if the absolute values of the four
rationals are multiplicatively independent, then no q-number [x] with x != 0
vanishes, at any exponent height.  The certificate is computed exactly from a
pairwise-coprime factor basis, so no prime factorisation is needed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ._ratback import BACKEND, RAT, rat_from_str, rat_to_str
from .linalg import _row_reduce


class GenericityError(ValueError):
    """The requested point fails its genericity certificate."""


class SingularArgumentError(ZeroDivisionError):
    """A q-number in a denominator vanishes at the given point."""


# ---------------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class HalfExponent:
    """The exponent (m + c1*w1 + c2*w2 + c3*th)/2 with integer entries.

    >>> HalfExponent(1, 1, 0, 0).halved() is None   # (1 + w1)/4 leaves the lattice
    True
    >>> (ONE + OMEGA1 + OMEGA2 + THETA).halved()
    HalfExponent(m=1, c1=1, c2=1, c3=1)
    """

    m: int = 0
    c1: int = 0
    c2: int = 0
    c3: int = 0

    def __add__(self, other: HalfExponent) -> HalfExponent:
        return HalfExponent(self.m + other.m, self.c1 + other.c1,
                            self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: HalfExponent) -> HalfExponent:
        return self + (-other)

    def __neg__(self) -> HalfExponent:
        return HalfExponent(-self.m, -self.c1, -self.c2, -self.c3)

    def scale(self, k: int) -> HalfExponent:
        return HalfExponent(k * self.m, k * self.c1, k * self.c2, k * self.c3)

    def halved(self) -> HalfExponent | None:
        """Half of this exponent, or None when the entries are not all even."""
        if any(e % 2 for e in self.entries()):
            return None
        return HalfExponent(self.m // 2, self.c1 // 2, self.c2 // 2, self.c3 // 2)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.m, self.c1, self.c2, self.c3)

    def is_zero(self) -> bool:
        return not any(self.entries())

    @staticmethod
    def integer(n: int) -> HalfExponent:
        return HalfExponent(2 * n, 0, 0, 0)


ZERO_EXP = HalfExponent()
ONE = HalfExponent.integer(1)
OMEGA1 = HalfExponent(0, 2, 0, 0)
OMEGA2 = HalfExponent(0, 0, 2, 0)
THETA = HalfExponent(0, 0, 0, 2)


# ---------------------------------------------------------------------------
# multiplicative-independence certificate


def coprime_basis(values: list[int]) -> list[int]:
    """Pairwise-coprime integers > 1 over which every input factors exactly."""
    basis: list[int] = []
    stack = [abs(v) for v in values if abs(v) > 1]
    while stack:
        x = stack.pop()
        if x == 1:
            continue
        for i, b in enumerate(basis):
            g = math.gcd(x, b)
            if g > 1:
                del basis[i]
                stack.extend((g, b // g, x // g))
                break
        else:
            basis.append(x)
    return sorted(basis)


def _valuation(n: int, b: int) -> int:
    v = 0
    while n % b == 0:
        n //= b
        v += 1
    return v


def _valuation_matrix(values) -> list[list[int]]:
    """Rows indexed by the coprime basis, columns by the given rationals."""
    parts: list[int] = []
    for x in values:
        parts.append(abs(int(x.numerator)))
        parts.append(abs(int(x.denominator)))
    basis = coprime_basis(parts)
    rows = []
    for b in basis:
        rows.append([_valuation(abs(int(x.numerator)), b)
                     - _valuation(abs(int(x.denominator)), b) for x in values])
    return rows


def _integer_kernel(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational kernel of the matrix."""
    mat = [[Fraction(e) for e in row] for row in rows]
    pivots = _row_reduce(mat, ncols)
    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        lcm = 1
        for e in vec:
            lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
        ints = [int(e * lcm) for e in vec]
        g = 0
        for e in ints:
            g = math.gcd(g, e)
        kernel.append(tuple(e // g for e in ints))
    return kernel


def multiplicative_kernel(values) -> list[tuple[int, ...]]:
    """Integer vectors (e_i) with prod |values_i|^(e_i) = 1."""
    return _integer_kernel(_valuation_matrix(values), len(values))


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class ParamPoint:
    """Exact rational values of q^(1/2), q^(w1/2), q^(w2/2), q^(th/2).

    ``theta_mode`` records how much genericity was certified:

    * ``generic``      -- (s, a, v, t) multiplicatively independent, so every
      q-number [x] with x != 0 is nonzero, for any exponent height.
    * ``exceptional``  -- (s, a, v) independent and t tied to them by exactly
      one integer relation (the vanishing q-number that defines the point).
    * ``explicit``     -- (s, a, v) independent, t supplied by the caller;
      any relations it satisfies are recorded in ``kernel``.
    """

    s: object
    a: object
    v: object
    t: object
    genericity_bound: int = 40
    theta_mode: str = "generic"
    kernel: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for name in ("s", "a", "v", "t"):
            if not getattr(self, name):
                raise GenericityError(f"{name} must be a nonzero rational")
        kern = multiplicative_kernel([self.s, self.a, self.v, self.t])
        if self.theta_mode == "generic":
            if kern:
                raise GenericityError(
                    "generators are multiplicatively dependent: "
                    f"relations {kern}")
        else:
            if multiplicative_kernel([self.s, self.a, self.v]):
                raise GenericityError("s, a, v are multiplicatively dependent")
            if self.theta_mode == "exceptional" and len(kern) != 1:
                raise GenericityError(
                    "an exceptional point must satisfy exactly one relation")
            object.__setattr__(self, "kernel", tuple(kern))

    # -- q-powers ----------------------------------------------------------

    def q_power(self, x: HalfExponent):
        """q^x as a rational: s^m * a^c1 * v^c2 * t^c3."""
        return self.s ** x.m * self.a ** x.c1 * self.v ** x.c2 * self.t ** x.c3

    def qnum(self, x: HalfExponent):
        """The q-number [x] = (q^x - q^-x) / (q - q^-1)."""
        denom = self.q_power(ONE) - self.q_power(-ONE)
        if not denom:
            raise SingularArgumentError("q - q^-1 vanishes (s^4 = 1)")
        return (self.q_power(x) - self.q_power(-x)) / denom

    def qnum_nonzero(self, x: HalfExponent):
        value = self.qnum(x)
        if not value:
            raise SingularArgumentError(f"[{x}] vanishes at this point")
        return value

    @property
    def zero(self):
        return RAT(0)

    @property
    def one(self):
        return RAT(1)

    backend = "numeric"

    # -- wire format ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"s": rat_to_str(self.s), "a": rat_to_str(self.a),
                "v": rat_to_str(self.v), "t": rat_to_str(self.t),
                "bound": self.genericity_bound}

    @staticmethod
    def from_json(data: dict, theta_mode: str = "generic") -> ParamPoint:
        return ParamPoint(rat_from_str(data["s"]), rat_from_str(data["a"]),
                          rat_from_str(data["v"]), rat_from_str(data["t"]),
                          genericity_bound=int(data["bound"]),
                          theta_mode=theta_mode)

    def scan(self, bound: int | None = None) -> bool:
        """Directly confirm [x] != 0 for all x != 0 with entries up to bound.

        The constructor's certificate already implies this for every bound in
        generic mode; the scan is the slow independent cross-check, and in
        the other modes it skips exactly the multiples of recorded relations.
        """
        bound = self.genericity_bound if bound is None else bound
        allowed = set()
        for g in self.kernel:
            k = 1
            while all(abs(k * e) <= bound for e in g):
                allowed.add(tuple(k * e for e in g))
                allowed.add(tuple(-k * e for e in g))
                k += 1
        rng = range(-bound, bound + 1)
        for m in rng:
            for c1 in rng:
                for c2 in rng:
                    for c3 in rng:
                        x = (m, c1, c2, c3)
                        if x == (0, 0, 0, 0) or x in allowed:
                            continue
                        if not self.qnum(HalfExponent(*x)):
                            return False
        return True


def make_param_point(seed: int, genericity_bound: int = 40,
                     max_retries: int = 200) -> ParamPoint:
    """Deterministic pseudo-random generic point with small rational heights.

    Numerators and denominators are coprime and at most 97, which keeps
    big-integer growth manageable inside exact determinants up to N = 10.
    """
    rng = random.Random(seed)
    for _ in range(max_retries):
        draws = []
        for _ in range(4):
            while True:
                num = rng.randrange(2, 98)
                den = rng.randrange(2, 98)
                if num != den and math.gcd(num, den) == 1:
                    break
            draws.append(RAT(num, den))
        try:
            return ParamPoint(*draws, genericity_bound=genericity_bound)
        except GenericityError:
            continue
    raise GenericityError(f"no generic point found after {max_retries} draws")


# ---------------------------------------------------------------------------
# derived loop parameters


@dataclass(frozen=True)
class DerivedParams:
    """Loop weights and the horizontal-line weights for both chain parities.

    delta = [2], s1 = [w1]/[w1+1], s2 = [w2]/[w2+1];
    b_even =  [(w1+w2+1+th)/2][(w1+w2+1-th)/2] / ([w1+1][w2+1]);
    b_odd  = -[(w1-w2+th)/2][(w1-w2-th)/2]     / ([w1+1][w2+1]).
    """

    point: object
    delta: object
    s1: object
    s2: object
    b_even: object
    b_odd: object

    def b_for(self, n_sites: int):
        return self.b_even if n_sites % 2 == 0 else self.b_odd


def derive_params(point) -> DerivedParams:
    den1 = point.qnum(OMEGA1 + ONE)
    den2 = point.qnum(OMEGA2 + ONE)
    if not den1 or not den2:
        raise SingularArgumentError("[w1+1] or [w2+1] vanishes at this point")
    delta = point.qnum(HalfExponent.integer(2))
    s1 = point.qnum(OMEGA1) / den1
    s2 = point.qnum(OMEGA2) / den2
    half = lambda x: x.halved()
    b_even = (point.qnum(half(OMEGA1 + OMEGA2 + ONE + THETA))
              * point.qnum(half(OMEGA1 + OMEGA2 + ONE - THETA))) / (den1 * den2)
    b_odd = -(point.qnum(half(OMEGA1 - OMEGA2 + THETA))
              * point.qnum(half(OMEGA1 - OMEGA2 - THETA))) / (den1 * den2)
    return DerivedParams(point, delta, s1, s2, b_even, b_odd)


__all__ = [
    "BACKEND", "DerivedParams", "GenericityError", "HalfExponent", "ONE",
    "OMEGA1", "OMEGA2", "ParamPoint", "SingularArgumentError", "THETA",
    "ZERO_EXP", "coprime_basis", "derive_params", "make_param_point",
    "multiplicative_kernel",
]
