"""Property tests of the series kernel.

The first group compares the graded integer kernel with the Fraction
references of ``test_series`` (the plain reciprocal loop and Horner's rule),
which never call it: ``reciprocal``, ``moments_to_K``/``K_to_moments``
(against the F - z references, negated), ``substitute_into_shifted`` and
the s-free pair (the solver's two-unknown row) on coefficients with
denominators up to 10**6, zeros, negative and fractional constant terms and
order 0, and on series the kernel made, combined after
``truncate``/``__neg__``/``__add__`` with hand-built series and with series
whose fitted scale does not divide theirs.  ``moments_to_K`` and ``K_to_moments``, the one path between a
measure's moments and its K, invert each other at orders 0..12, and the
moments ``K_to_moments`` reads off a K are those of the measure
``MeasureRep.from_k`` builds on it.

The second group checks composition through the continued fraction.  The
power table of ``_table_steps`` serves any K-series and is the reference
here.  Each example draws a measure that holds a continued fraction
fixing every moment (1-5 atoms, a complete recursion cut off by a zero omega,
or a Wigner tail below 0-3 explicit levels with alpha and omega of unequal
length) and 1-40 coefficients, and checks that ``substitute_into_shifted``
and the s-free pair give the same series whichever outer the measure is read
as, alone and paired with a structured or a moment-only measure.
"""

from fractions import Fraction as F
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from freeconv.errors import OrderExceeded  # noqa: E402
from freeconv.measures import MeasureRep, WignerTail, make_jacobi  # noqa: E402
from freeconv.series import (  # noqa: E402
    ContinuedFraction,
    K_to_moments,
    TailSeries,
    moments_to_K,
    substitute_into_shifted,
)
from test_series import (  # noqa: E402
    fraction_reciprocal,
    horner_substitute,
    reference_F_to_moments,
    reference_moments_to_F,
    sfree_halves,
)

WIDE = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
NONZERO = WIDE.filter(lambda x: x != 0)


def series(max_order=8):
    return st.lists(WIDE, min_size=1, max_size=max_order + 1).map(TailSeries)


@settings(max_examples=80, deadline=None)
@given(NONZERO, st.lists(WIDE, max_size=12))
def test_reciprocal_matches_the_fraction_loop(c0, rest):
    a = TailSeries([c0, *rest])
    assert a.reciprocal().coeffs == tuple(fraction_reciprocal(a.coeffs))


@settings(max_examples=60, deadline=None)
@given(st.lists(WIDE, min_size=1, max_size=12), series(11))
def test_moment_transforms_match_the_references(moments, ks):
    assert moments_to_K(moments) == -reference_moments_to_F(moments)
    assert K_to_moments(ks) == reference_F_to_moments(-ks)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_moments_and_k_invert_each_other(data, order):
    # order + 1 moments give K of that order, and K of that order gives them back
    moments = data.draw(st.lists(WIDE, min_size=order + 1, max_size=order + 1))
    ks = TailSeries(data.draw(st.lists(WIDE, min_size=order + 1, max_size=order + 1)))
    assert moments_to_K(moments).order == order and len(K_to_moments(ks)) == order + 1
    assert K_to_moments(moments_to_K(moments)) == tuple(moments)
    assert moments_to_K(K_to_moments(ks)) == ks


@settings(max_examples=60, deadline=None)
@given(series(12))
def test_moments_read_straight_off_k(ks):
    n = ks.order + 1
    moments = K_to_moments(ks)
    assert moments == reference_F_to_moments(-ks)
    rep = MeasureRep.from_k(ks)
    assert rep.k_series(n) is ks and rep.moments(n) == moments
    with pytest.raises(OrderExceeded):
        rep.moments(n + 1)


@settings(max_examples=60, deadline=None)
@given(series(), series())
def test_composition_matches_horner(outer, inner):
    assert substitute_into_shifted(outer, inner) == horner_substitute(outer, inner)


@settings(max_examples=40, deadline=None)
@given(series(6), series(6))
def test_the_pair_row_solves_the_coupled_equations(a, b):
    u, v = sfree_halves(a, b)
    assert u == horner_substitute(a, v) and v == horner_substitute(b, u)


@settings(max_examples=50, deadline=None)
@given(series(7), series(7), series(7), st.integers(0, 7))
def test_kernel_results_meet_hand_built_series(a, b, hand, cut):
    # u and v come out of one pass, k out of a reciprocal, and hand is built
    # by hand; the kernel fits each one's scale afresh when it reads it
    u, v = sfree_halves(a, b)
    k = moments_to_K(hand.coeffs)
    sums = (
        (u, v), (u.truncate(cut), v), (k, k.truncate(cut)), (u, hand), (k, u), ((-k).truncate(cut), v)
    )
    for x, y in sums:
        assert (x + y).coeffs == tuple(map(add, x.coeffs, y.coeffs))
    for x in [x + y for x, y in sums] + [(-u).truncate(cut), k]:
        for y in (v, hand, k, x):
            assert substitute_into_shifted(x, y) == horner_substitute(x, y)
        assert K_to_moments(x) == reference_F_to_moments(-x)
        assert moments_to_K(K_to_moments(x)) == x
        if x.coeffs[0] != 0:
            assert x.reciprocal().coeffs == tuple(fraction_reciprocal(x.coeffs))
    for x, y in ((u, k), (k.truncate(cut), hand), (-v, u + v)):
        p, q = sfree_halves(x, y)
        assert p == horner_substitute(x, q) and q == horner_substitute(y, p)

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
    alpha = draw(st.lists(SMALL, min_size=len(omega), max_size=len(omega) + 1))[: len(omega)]
    return MeasureRep.from_jacobi(make_jacobi(alpha, omega))


@st.composite
def wigner_tailed(draw):
    alpha = draw(st.lists(SMALL, max_size=3))
    omega = draw(st.lists(POSITIVE, max_size=len(alpha)))  # a given omega needs its alpha
    return MeasureRep.from_jacobi(make_jacobi(alpha, omega, WignerTail(draw(SMALL), draw(POSITIVE))))


STRUCTURED = st.one_of(atomic(), cut_jacobi(), wigner_tailed())
ORDERS = st.integers(1, 40)


def moments_only(rep, order):
    return MeasureRep.from_moments(rep.moments(order))


def both_outers(rep, order):
    fraction, series = rep.k_outer(order), rep.k_series(order)
    assert isinstance(fraction, ContinuedFraction) and fraction.order == series.order
    return fraction, series


@settings(max_examples=60, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_composition_matches_the_power_table(mu, nu, order):
    fraction, series = both_outers(mu, order)
    inner = nu.k_series(order)
    assert substitute_into_shifted(fraction, inner) == substitute_into_shifted(series, inner)


@settings(max_examples=40, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_the_pair_row_matches_the_power_tables(mu, nu, order):
    f_mu, s_mu = both_outers(mu, order)
    f_nu, s_nu = both_outers(nu, order)
    want = sfree_halves(s_mu, s_nu)
    assert sfree_halves(f_mu, f_nu) == want
    assert sfree_halves(f_mu, s_nu) == want
    assert sfree_halves(s_mu, f_nu) == want


@settings(max_examples=30, deadline=None)
@given(STRUCTURED, STRUCTURED, ORDERS)
def test_mixed_structured_and_moment_pairs(mu, nu, order):
    # a moment list keeps the power table even when it comes from a fraction,
    # and even once its recursion coefficients have been derived
    moments = moments_only(nu, order)
    moments.jacobi_or_none()
    assert moments.k_outer(order) == moments.k_series(order)
    f_mu, s_mu = both_outers(mu, order)
    k_moments = moments.k_series(order)
    assert sfree_halves(f_mu, k_moments) == sfree_halves(s_mu, k_moments)
    assert substitute_into_shifted(f_mu, k_moments) == substitute_into_shifted(s_mu, k_moments)
