"""Symbolic scalar backend: Laurent polynomials with factored denominators.

Four commuting generators s, a, v, t stand for q^(1/2), q^(w1/2), q^(w2/2),
q^(th/2).  A scalar is a Laurent polynomial numerator over a multiset of
canonical polynomial factors; products merge factor multisets and cancel by
exact division, sums use the factor-wise least common denominator.  Zero
tests are free (numerator emptiness), so audit pipelines that compare
against zero stay fast, and any identity verified here is a certificate
valid at every specialisation.  Intended for small chains (N <= 4); the
numeric backend is the workhorse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import ONE, HalfExponent, SingularArgumentError

Mono = tuple[int, int, int, int]

_GEN_NAMES = ("s", "a", "v", "t")
_ZERO_MONO = (0, 0, 0, 0)


def _mono_mul(x: Mono, y: Mono) -> Mono:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _mono_sub(x: Mono, y: Mono) -> Mono:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


class LaurentPoly:
    """Laurent polynomial in (s, a, v, t) with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c) -> LaurentPoly:
        c = Fraction(c)
        return LaurentPoly({_ZERO_MONO: c} if c else {})

    @staticmethod
    def monomial(m: Mono, c=1) -> LaurentPoly:
        return LaurentPoly({m: Fraction(c)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return LaurentPoly(out)

    def scale_term(self, mono: Mono, coeff: Fraction) -> LaurentPoly:
        return LaurentPoly({_mono_mul(m, mono): c * coeff
                            for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("LaurentPoly is unhashable; use key()")

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def divide_exact(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """self / divisor when the division is exact, else None.

        Greedy leading-term division is complete for a single divisor: if
        self = divisor * h, the leading monomial of self factors through the
        divisor's at every step.  Such an h has every exponent of each
        variable in [min(self) - min(divisor), max(self) - max(divisor)], and
        the quotient monomials strictly decrease, so the division ends: it
        gives up as soon as a quotient monomial leaves that finite box.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        box = []
        for k in range(4):
            mine = [m[k] for m in self.terms]
            theirs = [m[k] for m in divisor.terms]
            box.append((min(mine) - min(theirs), max(mine) - max(theirs)))
        rem = dict(self.terms)
        lead_d = max(divisor.terms)
        coeff_d = divisor.terms[lead_d]
        quot: dict[Mono, Fraction] = {}
        while rem:
            lead_r = max(rem)
            mono = _mono_sub(lead_r, lead_d)
            if not all(lo <= e <= hi for e, (lo, hi) in zip(mono, box)):
                return None
            coeff = rem[lead_r] / coeff_d
            quot[mono] = coeff
            for m, c in divisor.terms.items():
                mm = _mono_mul(m, mono)
                s = rem.get(mm, Fraction(0)) - c * coeff
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return LaurentPoly(quot)

    def unit_normal(self) -> tuple[Fraction, Mono, LaurentPoly]:
        """(coeff, monomial, canonical) with self = coeff * monomial * canonical.

        The canonical part has componentwise-minimal exponent zero and its
        smallest monomial carries coefficient one."""
        if not self:
            return Fraction(1), _ZERO_MONO, LaurentPoly()
        monos = list(self.terms)
        shift = tuple(min(m[i] for m in monos) for i in range(4))
        low = min(monos)
        coeff = self.terms[low]
        inv = tuple(-e for e in shift)
        canon = LaurentPoly({_mono_mul(m, inv): c / coeff
                             for m, c in self.terms.items()})
        return coeff, shift, canon

    def evaluate(self, values):
        total = None
        for m, c in self.terms.items():
            term = values[0] ** m[0] * values[1] ** m[1] \
                * values[2] ** m[2] * values[3] ** m[3] * c.numerator
            if c.denominator != 1:
                term = term / c.denominator
            total = term if total is None else total + term
        return 0 if total is None else total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            gens = "*".join(f"{g}^{e}" for g, e in zip(_GEN_NAMES, m) if e)
            bits.append(f"{c}" + (f"*{gens}" if gens else ""))
        return " + ".join(bits)


class LaurentFrac:
    """num / (product of canonical polynomial factors ** exponents)."""

    __slots__ = ("num", "factors")

    def __init__(self, num: LaurentPoly,
                 factors: dict[tuple, int] | None = None):
        self.num = num
        self.factors: dict[tuple, int] = {}
        if num:
            for key, exp in (factors or {}).items():
                if exp:
                    self.factors[key] = exp
            self._cancel()

    # -- plumbing ------------------------------------------------------------

    def _poly(self, key: tuple) -> LaurentPoly:
        poly = _FACTOR_POLYS.get(key)
        if poly is None:
            poly = LaurentPoly(dict(key))
            _FACTOR_POLYS[key] = poly
        return poly

    def _cancel(self) -> None:
        for key in list(self.factors):
            poly = self._poly(key)
            while self.factors.get(key, 0) > 0:
                quot = self.num.divide_exact(poly)
                if quot is None:
                    break
                self.num = quot
                self.factors[key] -= 1
            if not self.factors.get(key, 0):
                self.factors.pop(key, None)

    @staticmethod
    def coerce(value) -> LaurentFrac:
        if isinstance(value, LaurentFrac):
            return value
        if isinstance(value, (int, Fraction)):
            return LaurentFrac(LaurentPoly.const(value))
        raise TypeError(f"cannot coerce {value!r} to LaurentFrac")

    @staticmethod
    def from_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentFrac:
        coeff, shift, canon = den.unit_normal()
        if not canon:
            raise SingularArgumentError("zero denominator")
        inv = tuple(-e for e in shift)
        scaled = num.scale_term(inv, 1 / coeff)
        if len(canon.terms) == 1:
            return LaurentFrac(scaled)
        return LaurentFrac(scaled, {canon.key(): 1})

    def den_poly(self) -> LaurentPoly:
        out = LaurentPoly.const(1)
        for key, exp in self.factors.items():
            poly = self._poly(key)
            for _ in range(exp):
                out = out * poly
        return out

    # -- arithmetic ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        try:
            other = LaurentFrac.coerce(other)
        except TypeError:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        keys = set(self.factors) | set(other.factors)
        lcm = {k: max(self.factors.get(k, 0), other.factors.get(k, 0))
               for k in keys}
        left = self.num
        for k in keys:
            need = lcm[k] - self.factors.get(k, 0)
            poly = self._poly(k)
            for _ in range(need):
                left = left * poly
        right = other.num
        for k in keys:
            need = lcm[k] - other.factors.get(k, 0)
            poly = self._poly(k)
            for _ in range(need):
                right = right * poly
        return LaurentFrac(left + right, lcm)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentFrac(LaurentPoly())
        out.num = -self.num
        out.factors = dict(self.factors)
        return out

    def __sub__(self, other):
        try:
            return self + (-LaurentFrac.coerce(other))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = LaurentFrac.coerce(other)
        except TypeError:
            return NotImplemented
        merged = dict(self.factors)
        for k, e in other.factors.items():
            merged[k] = merged.get(k, 0) + e
        return LaurentFrac(self.num * other.num, merged)

    __rmul__ = __mul__

    def reciprocal(self) -> LaurentFrac:
        if not self.num:
            raise SingularArgumentError("division by symbolic zero")
        coeff, shift, canon = self.num.unit_normal()
        inv = tuple(-e for e in shift)
        num = LaurentPoly.const(1).scale_term(inv, 1 / coeff)
        for key, exp in self.factors.items():
            poly = self._poly(key)
            for _ in range(exp):
                num = num * poly
        if len(canon.terms) == 1:
            return LaurentFrac(num)
        return LaurentFrac(num, {canon.key(): 1})

    def __truediv__(self, other):
        return self * LaurentFrac.coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return LaurentFrac.coerce(other) * self.reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        out = LaurentFrac.coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        try:
            other = LaurentFrac.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.num and not other.num:
            return True
        return self.num * other.den_poly() == other.num * self.den_poly()

    def __hash__(self):
        raise TypeError("LaurentFrac is unhashable")

    def evaluate(self, point):
        """Specialise at a numeric point."""
        values = (point.s, point.a, point.v, point.t)
        den = self.den_poly().evaluate(values)
        if not den:
            raise SingularArgumentError("denominator vanishes at the point")
        return self.num.evaluate(values) / den

    def __repr__(self) -> str:
        if not self.factors:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den_poly()!r})"


_FACTOR_POLYS: dict[tuple, LaurentPoly] = {}


class SymbolicPoint:
    """Drop-in point whose scalars are LaurentFrac certificates."""

    backend = "symbolic"
    theta_mode = "generic"
    genericity_bound = 0

    def q_power(self, x: HalfExponent) -> LaurentFrac:
        return LaurentFrac(LaurentPoly.monomial(x.entries()))

    @lru_cache(maxsize=None)
    def qnum(self, x: HalfExponent) -> LaurentFrac:
        num = (LaurentPoly.monomial(x.entries())
               - LaurentPoly.monomial((-x).entries()))
        den = (LaurentPoly.monomial(ONE.entries())
               - LaurentPoly.monomial((-ONE).entries()))
        return LaurentFrac.from_quotient(num, den)

    def qnum_nonzero(self, x: HalfExponent) -> LaurentFrac:
        value = self.qnum(x)
        if not value:
            raise SingularArgumentError(f"[{x}] is identically zero")
        return value

    @property
    def zero(self) -> LaurentFrac:
        return LaurentFrac.coerce(0)

    @property
    def one(self) -> LaurentFrac:
        return LaurentFrac.coerce(1)

    def to_json(self) -> dict:
        return {"s": "s", "a": "a", "v": "v", "t": "t", "bound": 0}


__all__ = ["LaurentFrac", "LaurentPoly", "SymbolicPoint"]
