import random
from fractions import Fraction as F

import pytest

from freeconv.errors import ZeroLeadingCoefficient
from freeconv.series import (
    F_to_moments,
    TailSeries,
    moments_to_F,
    sfree_pair,
    substitute_into_shifted,
)


def ts(*coeffs):
    return TailSeries([F(c) for c in coeffs])


class TestAdd:
    def test_additive_identity(self):
        assert ts(1, 1) + ts(0, 0) == ts(1, 1)

    def test_two_point_masses_add_their_transforms(self):
        # both factors contribute 1/z, the sum is 2/z
        assert ts(0, 1, 0) + ts(0, 1, 0) == ts(0, 2, 0)

    def test_additive_inverse(self):
        rng = random.Random(3)
        for _ in range(20):
            c = TailSeries([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)])
            assert (c + (-c)).is_zero()

    def test_common_order_is_minimum(self):
        assert (ts(1, 2, 3) + ts(1, 1)).order == 1


class TestMul:
    def test_difference_of_squares(self):
        assert ts(1, 1, 0, 0) * ts(1, -1, 0, 0) == ts(1, 0, -1, 0)

    def test_monomials(self):
        assert ts(0, 1, 0) * ts(0, 1, 0) == ts(0, 0, 1)

    def test_reciprocal_multiplies_back_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            coeffs = [F(rng.randint(1, 9))] + [
                F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7)
            ]
            a = TailSeries(coeffs)
            assert a * a.reciprocal() == TailSeries.constant(1, a.order)


class TestReciprocal:
    def test_geometric_series(self):
        assert ts(1, 1, 0, 0, 0).reciprocal() == ts(1, -1, 1, -1, 1)

    def test_constant(self):
        assert ts(2, 0, 0).reciprocal() == ts(F(1, 2), 0, 0)

    def test_three_term_inverse(self):
        a = ts(1, 1, 1, 0, 0, 0, 0, 0)
        b = a.reciprocal()
        assert b == ts(1, -1, 0, 1, -1, 0, 1, -1)
        assert a * b == TailSeries.constant(1, 7)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            ts(0, 1).reciprocal()


class TestSubstituteIntoShifted:
    def test_zero_inner_is_identity(self):
        w = ts(0, 1, 0, 0, 0)
        assert substitute_into_shifted(w, TailSeries.zero(4)) == w

    def test_simple_pole_shifted_by_itself(self):
        # 1/(z - 1/z) = z/(z^2 - 1) = w + w^3 + w^5 + ...
        w = ts(0, 1, 0, 0, 0, 0)
        assert substitute_into_shifted(w, w) == ts(0, 1, 0, 1, 0, 1)

    def test_constant_outer_absorbs_everything(self):
        outer = TailSeries.constant(F(5, 3), 5)
        inner = ts(2, -1, 3, 0, 1, 2)
        assert substitute_into_shifted(outer, inner) == outer


def horner_substitute(outer, inner):
    """Reference composition: Horner's rule on dense products of 1/(z - inner)."""
    n = min(outer.order, inner.order)
    outer, inner = outer.truncate(n), inner.truncate(n)
    if n == 0:
        return TailSeries.constant(outer.coeffs[0], 0)
    one = TailSeries.constant(1, n)
    geom = (one - TailSeries((F(0),) + inner.coeffs[:n])).reciprocal()
    t = TailSeries((F(0),) + geom.coeffs[:n])
    acc = TailSeries.constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * t + TailSeries.constant(outer.coeffs[k], n)
    return acc


def random_series(rng, order):
    return TailSeries([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)])


class TestSubstituteAgainstHorner:
    def test_order_zero(self):
        assert substitute_into_shifted(ts(F(7, 2)), ts(3)) == ts(F(7, 2))
        assert substitute_into_shifted(ts(F(7, 2), 1, 1), ts(3)) == ts(F(7, 2))

    def test_unequal_orders_truncate_to_the_common_one(self):
        rng = random.Random(21)
        for p, q in ((3, 9), (9, 3), (1, 6), (6, 1)):
            outer, inner = random_series(rng, p), random_series(rng, q)
            got = substitute_into_shifted(outer, inner)
            assert got.order == min(p, q)
            assert got == horner_substitute(outer, inner)

    def test_zero_inner(self):
        rng = random.Random(22)
        for n in range(6):
            outer = random_series(rng, n)
            assert substitute_into_shifted(outer, TailSeries.zero(n)) == outer
            assert horner_substitute(outer, TailSeries.zero(n)) == outer

    def test_random_series(self):
        rng = random.Random(23)
        for n in range(13):
            outer, inner = random_series(rng, n), random_series(rng, n)
            assert substitute_into_shifted(outer, inner) == horner_substitute(outer, inner)


class TestSFreePair:
    def test_halves_solve_the_coupled_equations(self):
        rng = random.Random(24)
        for n in range(10):
            a, b = random_series(rng, n), random_series(rng, n)
            u, v = sfree_pair(a, b)
            assert u == horner_substitute(a, v)
            assert v == horner_substitute(b, u)

    def test_swapping_the_inputs_swaps_the_halves(self):
        rng = random.Random(25)
        a, b = random_series(rng, 8), random_series(rng, 8)
        u, v = sfree_pair(a, b)
        assert sfree_pair(b, a) == (v, u)

    def test_zero_right_input_leaves_the_left_one(self):
        a = ts(1, 2, F(1, 3), -1, 5)
        u, v = sfree_pair(a, TailSeries.zero(4))
        assert u == a and v.is_zero()


class TestMomentTransforms:
    def test_point_mass(self):
        a = F(3, 2)
        f = moments_to_F([a, a**2, a**3, a**4])
        assert f == TailSeries.constant(-a, 3)
        assert F_to_moments(f) == (a, a**2, a**3, a**4)

    def test_symmetric_two_point(self):
        f = moments_to_F([0, 1, 0, 1, 0, 1])
        assert f == ts(0, -1, 0, 0, 0, 0)
        assert F_to_moments(ts(0, -1, 0, 0, 0, 0)) == (F(0), F(1), F(0), F(1), F(0), F(1))

    def test_round_trip_on_random_sequences(self):
        rng = random.Random(11)
        for _ in range(20):
            m = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9))
            assert F_to_moments(moments_to_F(m)) == m
            f = TailSeries([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)])
            assert moments_to_F(F_to_moments(f)) == f

    def test_coefficients_are_signed_interval_sums(self):
        from freeconv.partitions import signed_interval_moment_sum

        rng = random.Random(13)
        m = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(8)]
        f = moments_to_F(m)
        for n in range(1, 9):
            assert f.coeffs[n - 1] == signed_interval_moment_sum(m, n)
