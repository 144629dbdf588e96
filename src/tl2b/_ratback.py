"""Rational arithmetic backend, selected once at import.

Every scalar in the numeric pipeline is an exact rational.  When gmpy2 is
installed its compiled ``mpq`` type is used for the hot kernels (matrix
products, fraction-free elimination); otherwise the pure-Python
``fractions.Fraction`` is used.  Both expose ``.numerator``/``.denominator``
and identical arithmetic, so the rest of the package never branches on the
backend.  Set ``TL2B_RATIONAL=fraction`` to force the pure fallback (the
benchmark in ``benchmarks/`` compares the two).
"""

from __future__ import annotations

import os
from fractions import Fraction

_forced = os.environ.get("TL2B_RATIONAL", "").strip().lower()

if _forced in ("fraction", "pure", "python"):
    RAT = Fraction
    BACKEND = "fraction"
else:
    try:
        from gmpy2 import mpq as RAT  # type: ignore[no-redef]

        BACKEND = "gmpy2"
    except ImportError:
        if _forced in ("gmpy2", "mpq"):
            raise
        RAT = Fraction
        BACKEND = "fraction"

#: concrete types a numeric scalar may have (ints are accepted everywhere)
RAT_TYPES: tuple[type, ...] = (type(RAT(1)), Fraction, int)


def rat_from_str(text: str):
    """Parse 'p/q' or 'p' into a backend rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return RAT(int(num), int(den))
    return RAT(int(text))


def rat_to_str(value) -> str:
    """Canonical 'p/q' (or 'p') form, identical for both backends."""
    return str(value)


def is_rational(value) -> bool:
    return isinstance(value, RAT_TYPES)
