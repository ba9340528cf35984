"""Property tests of the operator model's int store against a dense
`Fraction` reference.

Each example draws two operators of size 1-5 whose entries have
denominators 1, 2, 3, 4 and 6, a third operator `c`, and positive weights.
The second operator is sometimes c - a, so that a + b cancels down to the
denominator of c, smaller than the one it is computed over.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_opmodel import dense, from_dense  # noqa: E402

DENOMINATORS = (1, 2, 3, 4, 6)
ENTRY = st.one_of(st.just(F(0)), st.builds(F, st.integers(-4, 4), st.sampled_from(DENOMINATORS)))


def matrices(n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    ma, mc = draw(matrices(n)), draw(matrices(n))
    if draw(st.booleans()):
        mb = [[c - a for a, c in zip(ra, rc)] for ra, rc in zip(ma, mc)]
    else:
        mb = draw(matrices(n))
    weights = draw(st.lists(st.builds(F, st.integers(1, 5), st.sampled_from(DENOMINATORS)), min_size=n, max_size=n))
    vec = draw(st.dictionaries(st.integers(0, n - 1), ENTRY, max_size=n))
    return ma, mb, mc, weights, vec


def transpose(m):
    return [list(row) for row in zip(*m)]


def int_store(op):
    """No zero entry, no empty column, int entries over a positive den."""
    assert op.den >= 1
    for col in op.entries.values():
        assert col and all(type(v) is int and v != 0 for v in col.values())


@settings(max_examples=100, deadline=None)
@given(cases())
def test_int_store_equals_the_dense_fraction_reference(case):
    ma, mb, mc, weights, vec = case
    n = len(ma)
    a, b, c = from_dense(ma), from_dense(mb), from_dense(mc)
    for op in (a, b, c):
        int_store(op)
    total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]
    for got, want in (
        (a + b, total),
        (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]),
        (a @ b, [[sum(ma[r][k] * mb[k][j] for k in range(n)) for j in range(n)] for r in range(n)]),
    ):
        int_store(got)
        assert dense(got) == want
        assert got.equals(from_dense(want)) and from_dense(want).equals(got)
    # a + b is computed over lcm(a.den, b.den); when b = c - a it is c over that
    if total == mc:
        assert (a + b).equals(c) and c.equals(a + b)
    assert a.equals(b) == (ma == mb)
    assert ((a + b) - b).equals(a)
    image = a.apply(vec)
    want = [sum(ma[r][k] * x for k, x in vec.items()) for r in range(n)]
    assert image == {r: x for r, x in enumerate(want) if x != 0}
    assert all(type(x) is F for x in image.values())
    # W A is symmetric exactly when A is self-adjoint under weights W, and
    # W^-1 S is self-adjoint for S symmetric
    wa = [[weights[r] * x for x in row] for r, row in enumerate(ma)]
    assert a.is_self_adjoint(weights) == (wa == transpose(wa))
    sym = [[x + y for x, y in zip(ra, rt)] for ra, rt in zip(ma, transpose(ma))]
    assert from_dense([[x / weights[r] for x in row] for r, row in enumerate(sym)]).is_self_adjoint(weights)
    assert (a + from_dense(transpose(ma))).is_self_adjoint([1] * n)
