"""Property tests of the partition routes.

`partitions.inverse_boolean_cumulant` sums over the coarsenings of a
composition by a prefix recursion over its cut points.  The reference of
``test_partitions`` enumerates the 2**(r - 1) coarsenings one by one.  Each
example draws 0-10 rational moments (numerators up to 10**6 in size,
denominators up to 10**3, zeros allowed) and a composition of n <= 10; the two
must agree, and both must raise `OrderExceeded` exactly when the composition
sums past the moments given.

The three oracles run on integers graded at one fitted scale.  The orthogonal
moment is drawn on two independent moment lists of the same kind and a
composition of n <= 8, against the Fraction enumeration of ``test_partitions``;
the two must agree or both raise `OrderExceeded`.  Its all-orders entry,
drawn on the same lists at n <= 10, must equal the single calls on (1,),
..., (n,) and raise `OrderExceeded` exactly when the call on (n,) does.
The free cumulants and
their inverse are drawn against the sum over non-crossing partitions at
n <= 8, and round trip at n <= 12.

The bijection inverses check their arguments and then build their results
by construction; the condition-by-condition validator of ``test_partitions``
stays their reference.  Each draws n <= 9, a composition tau of n and a
composition sigma of n (half the time an odd refinement of tau), or a triple
(m, sigma, j) whose entries are near those of a member of the triple index
(j entries down to -1).  An inverse raises `InvalidParameter` exactly when its
argument lies outside the index; otherwise the public constructor accepts its
result and the forward bijection maps it back.  The public constructor is
drawn on set partitions of n <= 8, crossing or not, with each block marked
outer or inner, and must agree with the validator.

The convolution laws are drawn over atomic measures with 2-4 rational atoms
at orders up to 24: `free` equals the free-cumulant oracle, `free` and
`boolean` commute, the point mass at 0 is an identity, and a point mass on
the left absorbs `orthogonal` and `sfree`.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from freeconv import convolve  # noqa: E402
from freeconv import partitions as P  # noqa: E402
from freeconv.errors import InvalidParameter, OrderExceeded  # noqa: E402
from freeconv.measures import MeasureRep, point_mass  # noqa: E402

from test_partitions import (  # noqa: E402
    decomposable_reference,
    inverse_boolean_cumulant_reference,
    noncrossing_moment_sum,
    orthogonal_moment_reference,
)

rationals = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**3))


def composition_of(n):
    return st.integers(0, 2 ** (n - 1) - 1).map(lambda i: P.compositions(n)[i])


def compositions(n_max):
    return st.integers(1, n_max).flatmap(composition_of)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OrderExceeded:
        return OrderExceeded


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=10), compositions(10))
def test_prefix_recursion_equals_the_coarsening_enumeration(moments, pi):
    got = outcome(P.inverse_boolean_cumulant, moments, pi)
    assert got == outcome(inverse_boolean_cumulant_reference, moments, pi)
    assert (got is OrderExceeded) == (sum(pi) > len(moments))


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=10), st.lists(rationals, max_size=10), compositions(8))
def test_graded_orthogonal_moment_equals_the_fraction_enumeration(mu, nu, pi):
    got = outcome(P.orthogonal_moment_combinatorial, mu, nu, pi)
    assert got == outcome(orthogonal_moment_reference, mu, nu, pi)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=10), st.lists(rationals, max_size=10), st.integers(1, 10))
def test_all_orders_oracle_equals_the_single_order_calls(mu, nu, n):
    got = outcome(P.orthogonal_moments_combinatorial, mu, nu, n)
    if outcome(P.orthogonal_moment_combinatorial, mu, nu, (n,)) is OrderExceeded:
        assert got is OrderExceeded
    else:
        assert got == tuple(P.orthogonal_moment_combinatorial(mu, nu, (k,)) for k in range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8), st.lists(rationals, min_size=8, max_size=8), st.integers(1, 8))
def test_first_block_recursion_equals_the_non_crossing_sum(moments, kappa, n):
    assert noncrossing_moment_sum(P.free_cumulants_from_moments(moments, n), n) == moments[:n]
    assert list(P.moments_from_free_cumulants(kappa, n)) == noncrossing_moment_sum(kappa, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12))
def test_free_cumulants_round_trip(moments):
    n = len(moments)
    assert P.moments_from_free_cumulants(P.free_cumulants_from_moments(moments, n), n) == tuple(moments)


@lru_cache(maxsize=None)
def index(enumerate_, n):
    return frozenset(enumerate_(n))


@st.composite
def fusion_arguments(draw):
    n = draw(st.integers(1, 9))
    tau = draw(composition_of(n))
    return tau, draw(st.one_of(composition_of(n), st.sampled_from(P.odd_refinements(tau))))


@settings(max_examples=300, deadline=None)
@given(fusion_arguments())
def test_fusion_inverse_accepts_exactly_the_pair_index(args):
    tau, sigma = args
    n = sum(tau)
    if args not in index(P.enumerate_C, n):
        with pytest.raises(InvalidParameter):
            P.bijection_f_inverse(tau, sigma)
        return
    pi = P.bijection_f_inverse(tau, sigma)
    assert decomposable_reference(pi.outer, pi.inner, n)
    assert P.decomposable_partition(pi.outer, pi.inner, n) == pi
    assert P.bijection_f(pi) == args


@st.composite
def grouping_arguments(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, n))
    sigma = draw(composition_of(draw(st.sampled_from((m, m, m + 1, max(m - 1, 1))))))
    members = st.sampled_from(P.nonneg_compositions(n - m, m - 1) or ((),))
    near = st.lists(st.integers(-1, n - m), min_size=max(m - 2, 0), max_size=m).map(tuple)
    return m, sigma, draw(st.one_of(members, near)), n


@settings(max_examples=300, deadline=None)
@given(grouping_arguments())
def test_grouping_inverse_accepts_exactly_the_triple_index(args):
    *triple, n = args
    if tuple(triple) not in index(P.enumerate_F, n):
        with pytest.raises(InvalidParameter):
            P.bijection_g_inverse(*args)
        return
    pair = P.bijection_g_inverse(*args)
    pi = pair.pi
    assert decomposable_reference(pi.outer, pi.inner, n)
    assert P.decomposable_partition(pi.outer, pi.inner, n) == pi
    assert pair in index(P.enumerate_DP2, n)
    assert P.bijection_g(pair) == tuple(triple)


@st.composite
def marked_set_partitions(draw):
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[x for x in range(1, n + 1) if labels[x - 1] == label] for label in sorted(set(labels))]
    marks = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    outer = [b for b, is_inner in zip(blocks, marks) if not is_inner]
    inner = [b for b, is_inner in zip(blocks, marks) if is_inner]
    return outer, inner, n


@settings(max_examples=300, deadline=None)
@given(marked_set_partitions())
def test_constructor_agrees_with_the_validator(args):
    if not decomposable_reference(*args):
        with pytest.raises(InvalidParameter):
            P.decomposable_partition(*args)
        return
    assert P.decomposable_partition(*args) in index(P.enumerate_D2, args[2])


locations = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def atomic_measures(draw):
    k = draw(st.integers(2, 4))
    locs = draw(st.lists(locations, min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return MeasureRep.from_atoms([(x, F(w, sum(weights))) for x, w in zip(sorted(locs), weights)])


orders = st.integers(1, 24)
DELTA0 = point_mass(0)


@settings(max_examples=15, deadline=None)
@given(atomic_measures(), atomic_measures(), orders)
def test_free_equals_the_cumulant_oracle(mu, nu, order):
    got = convolve.free(mu, nu, order).moments(order)
    assert got == convolve.free_cumulant_oracle(mu, nu, order).moments(order)


@pytest.mark.parametrize("op", [convolve.free, convolve.boolean], ids=["free", "boolean"])
@settings(max_examples=15, deadline=None)
@given(mu=atomic_measures(), nu=atomic_measures(), order=orders)
def test_commutes(op, mu, nu, order):
    assert op(mu, nu, order).moments(order) == op(nu, mu, order).moments(order)


@settings(max_examples=15, deadline=None)
@given(atomic_measures(), orders)
def test_point_mass_at_zero_is_the_identity(mu, order):
    want = mu.moments(order)
    for op in (convolve.boolean, convolve.monotone, convolve.orthogonal, convolve.sfree, convolve.free):
        assert op(mu, DELTA0, order).moments(order) == want
    for op in (convolve.boolean, convolve.monotone, convolve.free):
        assert op(DELTA0, mu, order).moments(order) == want


@pytest.mark.parametrize("op", [convolve.orthogonal, convolve.sfree], ids=["orthogonal", "sfree"])
@settings(max_examples=15, deadline=None)
@given(a=locations, nu=atomic_measures(), order=orders)
def test_point_mass_on_the_left_absorbs(op, a, nu, order):
    delta = point_mass(a)
    assert op(delta, nu, order).moments(order) == delta.moments(order)
