"""Property test of the inverse boolean cumulant.

`partitions.inverse_boolean_cumulant` sums over the coarsenings of a
composition by a prefix recursion over its cut points.  The reference of
``test_partitions`` enumerates the 2**(r - 1) coarsenings one by one.  Each
example draws 0-10 rational moments (numerators up to 10**6 in size,
denominators up to 10**3, zeros allowed) and a composition of n <= 10; the two
must agree, and both must raise `OrderExceeded` exactly when the composition
sums past the moments given.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from freeconv import partitions as P  # noqa: E402
from freeconv.errors import OrderExceeded  # noqa: E402

from test_partitions import inverse_boolean_cumulant_reference  # noqa: E402

rationals = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**3))


@st.composite
def compositions(draw):
    n = draw(st.integers(1, 10))
    return P.compositions(n)[draw(st.integers(0, 2 ** (n - 1) - 1))]


def outcome(fn, moments, pi):
    try:
        return fn(moments, pi)
    except OrderExceeded:
        return OrderExceeded


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=10), compositions())
def test_prefix_recursion_equals_the_coarsening_enumeration(moments, pi):
    got = outcome(P.inverse_boolean_cumulant, moments, pi)
    assert got == outcome(inverse_boolean_cumulant_reference, moments, pi)
    assert (got is OrderExceeded) == (sum(pi) > len(moments))
