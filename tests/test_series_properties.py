"""Property tests of composition through the continued fraction.

The power table of ``_add_power_column`` serves any K-series and is the
reference here.  Each example draws a measure that holds a continued fraction
fixing every moment (1-5 atoms, a complete recursion cut off by a zero omega,
or a Wigner tail below 0-3 explicit levels with alpha and omega of unequal
length) and 1-40 coefficients, and checks that ``substitute_into_shifted``
and ``sfree_pair`` give the same series whichever outer the measure is read
as, alone and paired with a structured or a moment-only measure.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from freeconv.convolve import k_outer, k_series  # noqa: E402
from freeconv.measures import MeasureRep, WignerTail, make_jacobi  # noqa: E402
from freeconv.series import ContinuedFraction, sfree_pair, substitute_into_shifted  # noqa: E402

SMALL = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
POSITIVE = st.builds(F, st.integers(1, 6), st.integers(1, 3))


@st.composite
def atomic(draw):
    locs = draw(st.lists(SMALL, min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(locs), max_size=len(locs)))
    return MeasureRep.from_atoms((l, F(w, sum(weights))) for l, w in zip(locs, weights))


@st.composite
def cut_jacobi(draw):
    """A recursion whose omega list ends in a zero: a finite measure."""
    omega = draw(st.lists(POSITIVE, max_size=4)) + [F(0)]
    alpha = draw(st.lists(SMALL, min_size=len(omega), max_size=len(omega) + 1))
    return MeasureRep.from_jacobi(make_jacobi(alpha, omega))


@st.composite
def wigner_tailed(draw):
    alpha = draw(st.lists(SMALL, max_size=3))
    omega = draw(st.lists(POSITIVE, max_size=3))
    return MeasureRep.from_jacobi(make_jacobi(alpha, omega, WignerTail(draw(SMALL), draw(POSITIVE))))


STRUCTURED = st.one_of(atomic(), cut_jacobi(), wigner_tailed())
ORDERS = st.integers(1, 40)


def moments_only(rep, order):
    return MeasureRep.from_moments(rep.moments(order))


def both_outers(rep, order):
    fraction, series = k_outer(rep, order), k_series(rep, order)
    assert isinstance(fraction, ContinuedFraction) and fraction.order == series.order
    return fraction, series


@settings(max_examples=60, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_composition_matches_the_power_table(mu, nu, order):
    fraction, series = both_outers(mu, order)
    inner = k_series(nu, order)
    assert substitute_into_shifted(fraction, inner) == substitute_into_shifted(series, inner)


@settings(max_examples=40, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_sfree_pair_matches_the_power_tables(mu, nu, order):
    f_mu, s_mu = both_outers(mu, order)
    f_nu, s_nu = both_outers(nu, order)
    want = sfree_pair(s_mu, s_nu)
    assert sfree_pair(f_mu, f_nu) == want
    assert sfree_pair(f_mu, s_nu) == want
    assert sfree_pair(s_mu, f_nu) == want


@settings(max_examples=30, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_mixed_structured_and_moment_pairs(mu, nu, order):
    # a moment list keeps the power table even when it comes from a fraction,
    # and even once its recursion coefficients have been derived
    moments = moments_only(nu, order)
    moments.jacobi_or_none()
    assert k_outer(moments, order) == k_series(moments, order)
    f_mu, s_mu = both_outers(mu, order)
    k_moments = k_series(moments, order)
    assert sfree_pair(f_mu, k_moments) == sfree_pair(s_mu, k_moments)
    assert substitute_into_shifted(f_mu, k_moments) == substitute_into_shifted(s_mu, k_moments)
