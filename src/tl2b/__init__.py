"""Exact-arithmetic kernel for the two-boundary extension of the
Temperley-Lieb algebra: diagram calculus, module matrices, the lifted
generator families with their commuting elements, the orthogonal path basis
with its closed Gram determinant, the tensor-space model, and the
exceptional-twist representation structure."""

from ._ratback import BACKEND, RAT, rat_from_str, rat_to_str
from .scalars import (GenericityError, HalfExponent, ONE, OMEGA1, OMEGA2,
                      ParamPoint, SingularArgumentError, THETA,
                      make_param_point)

__version__ = "1.0.0"

__all__ = [
    "BACKEND", "GenericityError", "HalfExponent", "ONE", "OMEGA1", "OMEGA2",
    "ParamPoint", "RAT", "SingularArgumentError", "THETA", "__version__",
    "make_param_point", "rat_from_str", "rat_to_str",
]
