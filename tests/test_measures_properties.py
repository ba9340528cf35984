"""Property tests of the measure conversions on random rational inputs.

Each atomic example draws a measure with 1-6 atoms at small rationals, takes
its first 2k + 3 moments for k atoms, and perturbs one of them in half of the
examples, so that negative squared norms turn up at every level.  Every
prefix of the list is converted.  The integer-row conversions are also
compared with their Fraction references on atoms and recursion coefficients
whose denominators lie near 10^6, on zero omegas and on constant tails, and
the atoms near 10^6 are recovered from their recursion coefficients.
"""

import re
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_measures import (  # noqa: E402
    fraction_atomic_moments,
    fraction_jacobi_to_moments,
    fraction_moments_to_jacobi,
    inner_product_jacobi,
    outcome,
    uniform_moments,
)

from freeconv.errors import InvalidParameter  # noqa: E402
from freeconv.measures import (  # noqa: E402
    JacobiParams,
    WignerTail,
    atomic_measure,
    jacobi_to_atoms,
    jacobi_to_moments,
    make_jacobi,
    moments_to_jacobi,
)

SMALL = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
NEAR_1E6 = st.builds(F, st.integers(-(10**6), 10**6), st.integers(10**6 - 99, 10**6 + 99))
RATIONAL = st.one_of(SMALL, NEAR_1E6)


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
        # a zero squared norm at level d is accepted only when the finite
        # measure reproduces every given moment, m1..m(2d) and all after them
        assert 2 * len(j.alpha) <= n and jacobi_to_moments(j, n) == tuple(m[:n]), n
        if not perturbed:
            assert len(j.alpha) == k, n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(RATIONAL, min_size=1, max_size=6, unique=True),
    st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
    st.integers(0, 15),
    st.one_of(st.none(), st.tuples(st.integers(0, 14), RATIONAL)),
)
@example([F(1, 999_983), F(-2, 1_000_003)], [1, 2, 1, 1, 1, 1], 0, None)
@example([F(1, 999_983), F(-2, 1_000_003)], [1, 2, 1, 1, 1, 1], 1, None)
@example([F(123_457, 1_000_003), F(-98_765, 1_000_033), F(7, 1_000_037)], [1] * 6, 6, None)
def test_integer_rows_match_fraction_rows_on_atoms(locs, weights, n, perturb):
    mu = atomic_measure((l, F(w, sum(weights[: len(locs)]))) for l, w in zip(locs, weights))
    m = mu.moments(n)
    assert m == fraction_atomic_moments(mu.atoms, n)
    m = list(m)
    if perturb is not None and perturb[0] < n:
        m[perturb[0]] += perturb[1]
    else:  # the atoms come back from the recursion coefficients of 2k moments
        assert jacobi_to_atoms(moments_to_jacobi(mu.moments(2 * len(locs)))) == mu
    assert outcome(moments_to_jacobi, m) == outcome(fraction_moments_to_jacobi, m)


@st.composite
def recursions(draw):
    """Recursion coefficients, truncated, complete or with a constant tail,
    one omega set to zero in about half of the draws."""
    alpha = draw(st.lists(RATIONAL, min_size=1, max_size=6))
    positive = RATIONAL.map(abs).filter(bool)
    omega = draw(st.lists(positive, min_size=len(alpha) - 1, max_size=len(alpha) - 1))
    cut = draw(st.one_of(st.none(), st.integers(0, 4)))
    kind = draw(st.sampled_from(["truncate", "complete", "wigner"]))
    tail = WignerTail(draw(RATIONAL), abs(draw(RATIONAL))) if kind == "wigner" else None
    if cut is not None and cut < len(omega):  # the zero ends the recursion: nothing follows it
        return make_jacobi(alpha[: cut + 1], omega[:cut] + [F(0)])
    return make_jacobi(alpha, omega + [F(0)] * (kind == "complete"), tail)


@settings(max_examples=80, deadline=None)
@given(recursions(), st.integers(0, 16))
@example(make_jacobi([F(1, 999_983)], [0]), 0)
@example(make_jacobi([F(1, 999_983)], [0]), 1)
def test_integer_walk_matches_fraction_walk(j, n):
    if not j.finite and j.tail is None:  # a truncated prefix fixes 2d - 1 moments
        n = min(n, 2 * len(j.alpha) - 1)
    m = jacobi_to_moments(j, n)
    assert m == fraction_jacobi_to_moments(j, n)
    assert outcome(moments_to_jacobi, m) == outcome(fraction_moments_to_jacobi, m)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(RATIONAL, max_size=4),
    st.integers(1, 3),
    st.one_of(st.none(), st.builds(WignerTail, RATIONAL, RATIONAL.map(abs))),
    st.data(),
)
def test_an_omega_without_its_alpha_is_refused(alpha, extra, tail, data):
    # nonzero omegas, of either sign, so that no given zero ends the
    # recursion first; a tail of variance 0 lies below them all
    n = len(alpha) + extra
    omega = data.draw(st.lists(RATIONAL.filter(bool), min_size=n, max_size=n))
    k = len(alpha)
    with pytest.raises(InvalidParameter, match=re.escape(f"omega[{k}] is given without alpha[{k}]")):
        make_jacobi(alpha, omega, tail)


def test_integer_rows_match_fraction_rows_on_uniform_moments():
    uniform = uniform_moments(40)
    for n in range(1, len(uniform) + 1):
        assert moments_to_jacobi(uniform[:n]) == fraction_moments_to_jacobi(uniform[:n]), n
