from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tl2b import scalars
from tl2b._ratback import RAT
from tl2b.irreps import ExceptionalSpec, make_exceptional_point
from tl2b.pathbasis import exceptional_points
from tl2b.scalars import (MAX_DRAWS, GenericityError, HalfExponent, ONE,
                          OMEGA1, OMEGA2, ParamPoint, THETA, coprime_basis,
                          draw_rationals, make_param_point,
                          multiplicative_kernel)

exponents = st.builds(HalfExponent,
                      st.integers(-12, 12), st.integers(-12, 12),
                      st.integers(-12, 12), st.integers(-12, 12))


def test_qnum_basics(point):
    assert point.qnum(HalfExponent()) == 0
    assert point.qnum(ONE) == 1
    q = point.q_power(ONE)
    assert point.qnum(HalfExponent.integer(2)) == q + 1 / q


@given(x=exponents)
@settings(max_examples=60, deadline=None)
def test_qnum_antisymmetric(x):
    point = make_param_point(1)
    assert point.qnum(x) == -point.qnum(-x)


@given(n=st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_qnum_recurrence(n):
    point = make_param_point(2)
    two = point.qnum(HalfExponent.integer(2))
    x = HalfExponent.integer(n)
    assert two * point.qnum(x) == (point.qnum(x + ONE) + point.qnum(x - ONE))


def test_generic_point_nonvanishing_scan():
    point = make_param_point(1, genericity_bound=3)
    assert point.scan(3)


def test_make_param_point_deterministic():
    p1, p2 = make_param_point(7), make_param_point(7)
    assert (p1.s, p1.a, p1.v, p1.t) == (p2.s, p2.a, p2.v, p2.t)


def test_unit_s_rejected():
    with pytest.raises(GenericityError):
        ParamPoint(RAT(1), RAT(2, 3), RAT(3, 5), RAT(5, 7))


def test_dependent_t_rejected():
    s, a, v = RAT(2, 3), RAT(3, 5), RAT(5, 7)
    with pytest.raises(GenericityError):
        ParamPoint(s, a, v, s * a * v)


def test_multiplicative_kernel_detects_relation():
    s, a, v = RAT(2, 3), RAT(3, 5), RAT(5, 7)
    assert multiplicative_kernel([s, a, v, s * a * v]) == [(-1, -1, -1, 1)]


@pytest.mark.parametrize("values, kernel", [
    # two relations: (12/5) * 5/4 = 3, and 2^3 * 3 * |-6/25| = (12/5)^2
    ([RAT(12, 5), RAT(2), RAT(3), RAT(5, 4), RAT(-6, 25)],
     [(1, 0, -1, 1, 0), (-2, 3, 1, 0, 1)]),
    # none: distinct primes
    ([RAT(2), RAT(3), RAT(5)], []),
])
def test_multiplicative_kernel_is_pinned(values, kernel):
    assert multiplicative_kernel(values) == kernel


def test_coprime_basis_factors_exactly():
    basis = coprime_basis([12, 18, 35])
    assert all(b > 1 for b in basis)
    for x in (12, 18, 35):
        for b in basis:
            while x % b == 0:
                x //= b
        assert x == 1


def test_param_point_json_roundtrip(point):
    data = point.to_json()
    back = ParamPoint.from_json(data)
    assert (back.s, back.a, back.v, back.t) == (point.s, point.a, point.v,
                                                point.t)
    assert set(data) == {"s", "a", "v", "t", "bound"}


def test_kernel_is_set_by_the_constructor_alone(point):
    with pytest.raises(TypeError):
        ParamPoint(point.s, point.a, point.v, point.t, kernel=((1, 0, 0, 0),))
    assert point.kernel == ()
    tied = ParamPoint(point.s, point.a, point.v, point.s * point.a * point.v,
                      theta_mode="explicit")
    assert tied.kernel in (((1, 1, 1, -1),), ((-1, -1, -1, 1),))


def test_derived_param_values(point):
    assert point.delta == point.qnum(HalfExponent.integer(2))
    assert point.s1 == point.qnum(OMEGA1) / point.qnum(OMEGA1 + ONE)
    assert point.s2 == point.qnum(OMEGA2) / point.qnum(OMEGA2 + ONE)


def test_b_even_vanishes_at_tied_theta():
    base = make_param_point(1)
    point = ParamPoint(base.s, base.a, base.v, base.s * base.a * base.v,
                       theta_mode="explicit")
    assert not point.b_even


def test_b_odd_vanishes_at_tied_theta():
    base = make_param_point(1)
    point = ParamPoint(base.s, base.a, base.v, base.a / base.v,
                       theta_mode="explicit")
    assert not point.b_odd


def test_b_even_cross_identity(points):
    # re-evaluate both sides of the defining product independently
    for point in points:
        lhs = (point.b_even * point.qnum(OMEGA1 + ONE)
               * point.qnum(OMEGA2 + ONE))
        rhs = (point.qnum((OMEGA1 + OMEGA2 + ONE + THETA).halved())
               * point.qnum((OMEGA1 + OMEGA2 + ONE - THETA).halved()))
        assert lhs == rhs


def test_half_exponent_halving():
    assert HalfExponent(1, 1, 0, 0).halved() is None
    assert (ONE + OMEGA1 + OMEGA2 + THETA).halved() == HalfExponent(1, 1, 1, 1)
    assert HalfExponent.integer(3).scale(2).halved() == HalfExponent.integer(3)


# ---------------------------------------------------------------------------
# the point draws against the two loops that ``_draw_point`` replaced

def old_make_param_point(seed: int, genericity_bound: int = 40) -> ParamPoint:
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        try:
            return ParamPoint(*draw_rationals(rng, 4),
                              genericity_bound=genericity_bound)
        except GenericityError:
            continue
    raise GenericityError(f"no generic point found after {MAX_DRAWS} draws")


def old_make_exceptional_point(seed: int, espec: ExceptionalSpec,
                               genericity_bound: int = 40) -> ParamPoint:
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        s, a, v = draw_rationals(rng, 3)
        try:
            return ParamPoint(s, a, v, espec.tau(s, a, v),
                              genericity_bound=genericity_bound,
                              theta_mode="exceptional")
        except GenericityError:
            continue
    raise GenericityError(
        f"no admissible exceptional point found after {MAX_DRAWS} draws")


def critical_specs():
    return [ExceptionalSpec(n, *twist) for n in (2, 3, 4)
            for twist in exceptional_points(n)]


#: seeds whose first draw fails its certificate, so the second is kept
RETRY_SEEDS = (569, 1044)


def test_generic_draws_match_the_old_loop():
    for seed in (*range(1, 21), *RETRY_SEEDS):
        assert make_param_point(seed) == old_make_param_point(seed), seed
    assert make_param_point(3, 7) == old_make_param_point(3, 7)


def test_critical_draws_match_the_old_loop():
    for espec in critical_specs():
        for seed in (1, 2, 3, *RETRY_SEEDS):
            assert (make_exceptional_point(seed, espec)
                    == old_make_exceptional_point(seed, espec)), (espec, seed)


def test_both_draws_give_up_after_max_draws(monkeypatch):
    monkeypatch.setattr(scalars, "MAX_DRAWS", 0)
    with pytest.raises(GenericityError):
        make_param_point(1)
    with pytest.raises(GenericityError):
        make_exceptional_point(1, critical_specs()[0])
