from __future__ import annotations

import pytest

from tl2b.diagrams import act_on_half
from tl2b.linalg import Matrix
from tl2b.scalars import make_param_point

SEEDS = (1, 2, 3)


@pytest.fixture(scope="session")
def point():
    return make_param_point(1)


@pytest.fixture(scope="session", params=SEEDS)
def any_point(request):
    return make_param_point(request.param)


@pytest.fixture(scope="session")
def points():
    return [make_param_point(seed) for seed in SEEDS]


def assert_all_pass(records):
    bad = [r for r in records if r["status"] != "pass"]
    assert not bad, f"failed identities: {[r['identity_id'] for r in bad]}"


def diagram_matrix(d, spec):
    """The Matrix of the full diagram ``d`` on the module ``spec``, one
    column per basis vector from ``act_on_half``, weighed by the module."""
    row = {h: r for r, h in enumerate(spec.basis)}
    cols = []
    for h in spec.basis:
        col = [0] * spec.dim
        hit = act_on_half(d, h)
        if hit is not None:
            weight, pairs, image = hit
            col[row[image]] = spec.weigh(weight, pairs)
        cols.append(col)
    return Matrix.from_columns(cols)
