import random
from fractions import Fraction as F
from math import lcm

import pytest

from freeconv import partitions, series
from freeconv.errors import InvalidParameter
from freeconv.measures import MeasureRep, make_jacobi
from freeconv.opmodel import ModelOperator
from freeconv.series import (
    ContinuedFraction,
    K_to_moments,
    TailSeries,
    moments_to_K,
    substitute_into_shifted,
)


def ts(*coeffs):
    return TailSeries([F(c) for c in coeffs])


def sfree_halves(a, b):
    """The two-unknown row of the solver: u = a(z - v), v = b(z - u)."""
    return tuple(series._coupled([a, b], ((0, 1), (1, 0)), (None, None)))


def test_floats_are_rejected_not_read_as_binary_rationals():
    # 0.1 would otherwise enter as 3602879701896397/36028797018963968
    with pytest.raises(InvalidParameter, match="floats are not accepted"):
        TailSeries([0.1])
    with pytest.raises(InvalidParameter, match="floats are not accepted"):
        partitions.moment_function([0.1], (1,))
    # the graded-integer oracles read x.denominator, which a float lacks
    for read_as_moments in (
        lambda m: partitions.inverse_boolean_cumulant(m, (1,)),
        lambda m: partitions.orthogonal_moment_combinatorial(m, [F(1)], (3,)),
        lambda m: partitions.orthogonal_moment_combinatorial([F(1)] * 3, m, (3,)),
        lambda m: partitions.free_cumulants_from_moments(m, 1),
        lambda m: partitions.moments_from_free_cumulants(m, 1),
    ):
        with pytest.raises(InvalidParameter, match="floats are not accepted"):
            read_as_moments([0.5] * 3)


@pytest.mark.parametrize("value", ["1/2", "1e2", True, None, 1 + 0j], ids=["ratio-string", "exponent-string", "bool", "none", "complex"])
@pytest.mark.parametrize(
    "read",
    [
        lambda x: make_jacobi([x], []),
        lambda x: MeasureRep.from_moments([x]),
        lambda x: TailSeries([x]),
        lambda x: ModelOperator(1, {(0, 0): x}),
    ],
    ids=["make_jacobi", "from_moments", "TailSeries", "ModelOperator"],
)
def test_one_reader_refuses_what_is_no_int_or_fraction(read, value):
    # `_frac` reads every rational outside JSON: a string is not parsed, a
    # bool is not 1, and None or a complex is refused as a package error
    with pytest.raises(InvalidParameter, match="rationals must be ints or Fractions"):
        read(value)


def test_empty_series_is_an_invalid_parameter():
    with pytest.raises(InvalidParameter, match="a series needs at least its constant term"):
        TailSeries(())


def test_empty_moment_list_has_no_K_series():
    with pytest.raises(InvalidParameter, match="need at least one moment"):
        moments_to_K([])


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
            assert c + (-c) == TailSeries.zero(5)

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

    def test_non_unit_constant_terms(self):
        for c0 in (F(-1), F(-3, 7), F(5, 2), F(10**6 + 3, 999_983)):
            a = ts(c0, 1, F(-2, 3), 0, F(7, 10**6))
            assert a.reciprocal().coeffs == tuple(fraction_reciprocal(a.coeffs))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(InvalidParameter, match="zero constant term"):
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


def fraction_reciprocal(a):
    """Coefficients of 1/a, a[0] != 0, by the plain Fraction loop: the
    reference for the graded integer kernel, which it does not call."""
    inv0 = F(1) / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        acc = F(0)
        for k in range(1, n + 1):
            acc += a[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def fraction_product(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


def horner_substitute(outer, inner):
    """Reference composition: Horner's rule on dense Fraction products of
    1/(z - inner), with no call into the kernel."""
    n = min(outer.order, inner.order)
    a, x = outer.coeffs, inner.coeffs
    if n == 0:
        return TailSeries.constant(a[0], 0)
    geom = fraction_reciprocal([F(1)] + [-c for c in x[:n]])  # 1/(1 - x(w)/z)
    t = [F(0)] + geom[:n]  # 1/(z - x)
    acc = [a[n]] + [F(0)] * n
    for k in range(n - 1, -1, -1):
        acc = fraction_product(acc, t)
        acc[0] += a[k]
    return TailSeries(acc)


def reference_moments_to_F(moments):
    return TailSeries(fraction_reciprocal([F(1)] + [F(m) for m in moments])[1:])


def reference_F_to_moments(f):
    return tuple(fraction_reciprocal([F(1)] + list(f.coeffs))[1:])


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
            u, v = sfree_halves(a, b)
            assert u == horner_substitute(a, v)
            assert v == horner_substitute(b, u)

    def test_swapping_the_inputs_swaps_the_halves(self):
        rng = random.Random(25)
        a, b = random_series(rng, 8), random_series(rng, 8)
        u, v = sfree_halves(a, b)
        assert sfree_halves(b, a) == (v, u)

    def test_zero_right_input_leaves_the_left_one(self):
        a = ts(1, 2, F(1, 3), -1, 5)
        u, v = sfree_halves(a, TailSeries.zero(4))
        assert u == a and v == TailSeries.zero(4)


def seeded_outers(rng, count, order):
    """count outers of seeded 2- to 4-atom measures, of order - 1, each read
    as its continued fraction or as its K-series table, as rng draws."""
    out = []
    for _ in range(count):
        locs, q = rng.sample(range(-6, 7), rng.randint(2, 4)), rng.randint(1, 3)
        weights = [rng.randint(1, 4) for _ in locs]
        rep = MeasureRep.from_atoms((F(l, q), F(w, sum(weights))) for l, w in zip(locs, weights))
        out.append(rep.k_outer(order) if rng.random() < 0.5 else rep.k_series(order))
    return out


class TestCoupledRows:
    """Rows of the solver beyond the one- and two-unknown ones the
    operations use, checked against sequential composition."""

    def test_a_three_unknown_chain_equals_nested_composition(self):
        # x0 = A(z - x1), x1 = B(z - x2), x2 = C(z - s): a shift and a mix
        # that is not symmetric, solved in one pass
        rng = random.Random(41)
        kinds = set()
        for order in (1, 2, 3, 6, 10, 17):
            for _ in range(4):
                a, b, c = seeded_outers(rng, 3, order)
                s = random_series(rng, order - 1 + rng.randint(0, 2))
                kinds.add(tuple(type(x).__name__ for x in (a, b, c)))
                got = series._coupled([a, b, c], ((0, 1, 0), (0, 0, 1), (0, 0, 0)), (None, None, s))
                x2 = substitute_into_shifted(c, s)
                x1 = substitute_into_shifted(b, x2)
                assert got == [substitute_into_shifted(a, x1), x1, x2]
        assert len(kinds) > 4  # tables and fractions in every slot

    def test_rows_that_add_their_inners_solve_their_equations(self):
        # a shift beside a mix entry, a weight other than 1, an unknown that
        # reads itself and a row with neither: each inner is summed
        rng = random.Random(42)
        mix = ((0, 2, 0), (-1, 1, 1), (0, 0, 0))
        for order in range(8):
            a, b, c = (random_series(rng, order) for _ in range(3))
            s = random_series(rng, order + 2)
            x = series._coupled([a, b, c], mix, (s, None, None))
            assert x[0] == horner_substitute(a, s.truncate(order) + x[1] * 2)
            assert x[1] == horner_substitute(b, x[2] + x[1] - x[0])
            assert x[2] == c


class TestGradedScale:
    """The scale the kernel fits when it reads a series (``_scaled()``): a
    multiple of the least dilation that clears the weighted values, and a
    divisor of the lcm of their denominators.  A series fits its form on
    its own coefficients, once, when it is first read; a kernel result
    leaves without the scale the call ran at, so it is read at the scale of
    its own coefficients."""

    def test_moments_of_a_point_mass_need_one_dilation(self):
        k = moments_to_K([F(1, 2) ** j for j in range(1, 13)])
        assert k == TailSeries.constant(F(1, 2), 11)
        assert k._scaled()[0] == 2

    def test_k_coefficient_k_weighs_k_plus_one(self):
        k = ts(F(1, 2), F(1, 4), F(-1, 8))
        assert substitute_into_shifted(k, TailSeries.zero(2))._scaled()[0] == 2

    def test_omega_weighs_two(self):
        # alpha = 1/2, omega = 1/4: both are cleared by the dilation 2
        cf = ContinuedFraction(((F(1, 2), F(1, 4)), (F(0), F(0))), None, 6)
        assert cf._scaled() == (2, [(1, 1), (0, 0)])
        u, v = sfree_halves(cf, TailSeries.zero(6))
        assert u._scaled()[0] == 2 and u == ts(F(1, 2), F(1, 4), 0, 0, 0, 0, 0)

    def test_a_square_denominator_multiplies_the_scale_whole(self):
        # the atoms -1/2, 1/2: K = 1/(4z), and 1/4 at weight 2 takes c from
        # 1 to 4, a multiple of 2, the least dilation clearing it
        k = moments_to_K([0, F(1, 4), 0, F(1, 16), 0, F(1, 64)])
        assert k == ts(0, F(1, 4), 0, 0, 0, 0)
        assert k._scaled()[0] == 4
        assert moments_to_K([0, F(1, 4)])._scaled()[0] == 4

    def test_scales_meet_at_their_lcm(self, monkeypatch):
        # inside the call the scales 2 and 3 (or 2 and 6) meet at 6; the
        # results leave as Fractions and are read next at their own scale
        # (the solver builds each unknown from its ints at the scale it ran at)
        met = []
        from_ints = TailSeries._from_ints.__func__

        def watch(cls, c, h, ints):
            met.append(c)
            return from_ints(cls, c, h, ints)

        monkeypatch.setattr(TailSeries, "_from_ints", classmethod(watch))
        u = substitute_into_shifted(ts(F(1, 2), 0, 0), ts(F(1, 3), 0, 0))
        assert u == ts(F(1, 2), 0, 0) and u._scaled()[0] == 2
        u = substitute_into_shifted(ts(F(1, 2), 0, 0), ts(F(1, 6), 0, 0))
        assert u == ts(F(1, 2), 0, 0) and u._scaled()[0] == 2
        u, v = sfree_halves(ts(F(1, 2), 0, 0), ts(F(1, 6), 0, 0))
        assert (u, v) == (ts(F(1, 2), 0, 0), ts(F(1, 6), 0, 0))
        assert u._scaled()[0] == 2 and v._scaled()[0] == 6
        assert met == [6, 6, 6, 6]

    def test_the_form_is_fitted_once_on_its_own_coefficients(self, monkeypatch):
        uniform = MeasureRep.from_moments([F(1, k + 1) for k in range(1, 41)])
        made = substitute_into_shifted(ts(F(1, 2), 0, 0), ts(F(1, 6), 0, 0))
        for s in (made, uniform.k_series(40)):
            form = s._scaled()
            assert s._scaled() is form and form == series._graded(s.coeffs)
        assert made._scaled()[0] == 2
        fits = []
        monkeypatch.setattr(series, "_fit", lambda c, weighted, fit=series._fit: fits.append(c) or fit(c, weighted))
        cf = ContinuedFraction(((F(1, 2), F(1, 4)), (F(0), F(0))), None, 6)
        assert cf.at_order(3)._scaled() is cf._scaled() and cf.at_order(6) is cf
        assert len(fits) == 1


class TestWhereTheScalesPart:
    """The 4-atom and 3-atom pair of ``TestEmissionSpeed`` at N = 80, where
    u + v fits a scale far below the one the s-free pass ran at."""

    N = 80

    def halves(self):
        mu = MeasureRep.from_atoms([(-2, F(1, 6)), (F(-3, 2), F(1, 12)), (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 4))])
        nu = MeasureRep.from_atoms([(-3, F(5, 12)), (-1, F(1, 3)), (1, F(1, 4))])
        outer_mu, outer_nu = mu.k_outer(self.N), nu.k_outer(self.N)
        return mu, outer_mu, outer_nu, sfree_halves(outer_mu, outer_nu)

    def test_moments_of_u_plus_v_match_the_fraction_loop(self):
        _, outer_mu, outer_nu, (u, v) = self.halves()
        assert (u + v)._scaled()[0] < lcm(outer_mu._scaled()[0], outer_nu._scaled()[0])
        assert K_to_moments(u + v) == reference_F_to_moments(-(u + v))

    def test_the_sum_holds_its_own_form(self):
        _, outer_mu, outer_nu, (u, v) = self.halves()
        w = u + v
        form = w._scaled()
        assert w._scaled() is form and form == series._graded(w.coeffs)
        assert form[0] < lcm(outer_mu._scaled()[0], outer_nu._scaled()[0])

    def test_both_outers_of_mu_give_u_back(self):
        mu, outer_mu, _, (u, v) = self.halves()
        assert isinstance(outer_mu, ContinuedFraction)
        assert substitute_into_shifted(outer_mu, v) == u
        assert substitute_into_shifted(mu.k_series(self.N), v) == u


class TestMomentTransforms:
    def test_point_mass(self):
        a = F(3, 2)
        k = moments_to_K([a, a**2, a**3, a**4])
        assert k == TailSeries.constant(a, 3)
        assert K_to_moments(k) == (a, a**2, a**3, a**4)

    def test_symmetric_two_point(self):
        k = moments_to_K([0, 1, 0, 1, 0, 1])
        assert k == ts(0, 1, 0, 0, 0, 0)
        assert K_to_moments(ts(0, 1, 0, 0, 0, 0)) == (F(0), F(1), F(0), F(1), F(0), F(1))

    def test_round_trip_on_random_sequences(self):
        rng = random.Random(11)
        for _ in range(20):
            m = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9))
            assert K_to_moments(moments_to_K(m)) == m
            k = TailSeries([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)])
            assert moments_to_K(K_to_moments(k)) == k

    def test_coefficients_are_signed_interval_sums(self):
        from freeconv.partitions import signed_interval_moment_sum

        rng = random.Random(13)
        m = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(8)]
        k = moments_to_K(m)
        for n in range(1, 9):
            assert -k.coeffs[n - 1] == signed_interval_moment_sum(m, n)
