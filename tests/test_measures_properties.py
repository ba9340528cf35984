"""Property tests of moments_to_jacobi on random rational atomic measures.

Each example draws a measure with 1-6 atoms at small rationals, takes its
first 2k + 3 moments for k atoms, and perturbs one of them in half of the
examples, so that negative squared norms turn up at every level.  Every
prefix of the list is converted.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_measures import inner_product_jacobi, outcome  # noqa: E402

from freeconv.measures import (  # noqa: E402
    JacobiParams,
    atomic_measure,
    jacobi_to_moments,
    moments_to_jacobi,
)

SMALL = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def atomic_moment_lists(draw):
    """(atom count, moments m1..m(2k+3), whether one moment was perturbed)."""
    locs = draw(st.lists(SMALL, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(locs), max_size=len(locs)))
    mu = atomic_measure((l, F(w, sum(weights))) for l, w in zip(locs, weights))
    m = list(mu.moments(2 * len(locs) + 3))
    perturbed = draw(st.booleans())
    if perturbed:
        delta = draw(st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 9)))
        m[draw(st.integers(0, len(m) - 1))] += delta
    return len(locs), m, perturbed


@settings(max_examples=60, deadline=None)
@given(atomic_moment_lists())
def test_agrees_with_inner_products_at_every_prefix(case):
    _, m, _ = case
    for n in range(len(m) + 1):
        assert outcome(moments_to_jacobi, m[:n]) == outcome(inner_product_jacobi, m[:n]), n


@settings(max_examples=60, deadline=None)
@given(atomic_moment_lists())
def test_finite_result_round_trips(case):
    k, m, perturbed = case
    for n in range(len(m) + 1):
        j = outcome(moments_to_jacobi, m[:n])
        if not isinstance(j, JacobiParams) or not j.finite:
            assert perturbed or n < 2 * k, n
            continue
        # a zero squared norm at level d reads m1..m(2d) and reproduces them
        read = 2 * j.levels
        assert read <= n and jacobi_to_moments(j, read) == tuple(m[:read]), n
        if not perturbed:
            assert j.levels == k and jacobi_to_moments(j, n) == tuple(m[:n]), n
