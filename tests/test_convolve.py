import json
import random
import time
from fractions import Fraction as F

import pytest

from freeconv import convolve, measures, series, verify
from freeconv.cli import main
from freeconv.errors import InvalidParameter, NoConvergence, OrderExceeded
from freeconv.measures import (
    MeasureRep,
    bernoulli_symmetric,
    eval_F,
    make_jacobi,
    point_mass,
    two_point,
    wigner,
    WignerTail,
)
from freeconv.partitions import orthogonal_moment_combinatorial
from freeconv.series import ContinuedFraction, TailSeries, moments_to_K


def random_rep(rng, spread=6):
    k = rng.randint(2, 4)
    locs = set()
    while len(locs) < k:
        locs.add(F(rng.randint(-spread, spread), rng.randint(1, 3)))
    weights = [rng.randint(1, 5) for _ in range(k)]
    tot = sum(weights)
    return MeasureRep.from_atoms([(l, F(w, tot)) for l, w in zip(sorted(locs), weights)])


DELTA0 = point_mass(0)
BERN = bernoulli_symmetric()


class TestBoolean:
    def test_right_identity(self):
        rng = random.Random(1)
        mu = random_rep(rng)
        assert convolve.boolean(mu, DELTA0, 8).moments(8) == mu.moments(8)

    def test_symmetric_two_point_pair(self):
        res = convolve.boolean(BERN, BERN, 4)
        assert res.moments(4) == (F(0), F(2), F(0), F(4))
        j = res.jacobi()
        assert j.alpha == (F(0), F(0)) and j.omega == (F(2),)

    def test_commutative(self):
        rng = random.Random(2)
        for _ in range(20):
            mu, nu = random_rep(rng), random_rep(rng)
            assert (
                convolve.boolean(mu, nu, 8).moments(8)
                == convolve.boolean(nu, mu, 8).moments(8)
            )


class TestMonotone:
    def test_identities(self):
        rng = random.Random(3)
        mu = random_rep(rng)
        assert convolve.monotone(mu, DELTA0, 8).moments(8) == mu.moments(8)
        assert convolve.monotone(DELTA0, mu, 8).moments(8) == mu.moments(8)

    def test_left_point_mass_shifts_first_coefficient(self):
        rng = random.Random(4)
        nu = random_rep(rng)
        a = F(3, 2)
        res = convolve.monotone(point_mass(a), nu, 10).jacobi()
        jn = nu.jacobi()
        assert res.alpha == (jn.alpha[0] + a,) + jn.alpha[1:]
        assert res.omega == jn.omega

    def test_splits_into_orthogonal_then_boolean(self):
        rng = random.Random(5)
        for _ in range(20):
            mu, nu = random_rep(rng), random_rep(rng)
            lhs = convolve.monotone(mu, nu, 10)
            rhs = convolve.boolean(convolve.orthogonal(mu, nu, 10), nu, 10)
            assert lhs.moments(10) == rhs.moments(10)


class TestOrthogonal:
    def test_right_identity_and_left_absorption(self):
        rng = random.Random(6)
        mu = random_rep(rng)
        a = F(5, 2)
        assert convolve.orthogonal(mu, DELTA0, 8).moments(8) == mu.moments(8)
        da = point_mass(a)
        assert convolve.orthogonal(da, mu, 8).moments(8) == da.moments(8)

    def test_right_point_mass_shifts_later_diagonal(self):
        rng = random.Random(7)
        mu = random_rep(rng)
        a = F(2, 3)
        res = convolve.orthogonal(mu, point_mass(a), 10).jacobi()
        jm = mu.jacobi()
        assert res.alpha == (jm.alpha[0],) + tuple(x + a for x in jm.alpha[1:])
        assert res.omega == jm.omega

    def test_two_point_left_factor_prepends_one_level(self):
        rng = random.Random(8)
        nu = random_rep(rng, spread=4)
        jn = nu.jacobi()
        p, l1, l2 = F(1, 4), F(1), F(-2)
        q = 1 - p
        res = convolve.orthogonal(two_point(p, l1, l2), nu, 10).jacobi()
        assert res.alpha[0] == l1 * p + l2 * q
        assert res.alpha[1] == jn.alpha[0] + l1 * q + l2 * p
        assert res.alpha[2:] == jn.alpha[1:]
        assert res.omega[0] == p * q * (l1 - l2) ** 2
        assert res.omega[1:] == jn.omega

    def test_matches_partition_oracle(self):
        rng = random.Random(9)
        for _ in range(10):
            mu, nu = random_rep(rng), random_rep(rng)
            conv = convolve.orthogonal(mu, nu, 10).moments(10)
            mm, nm = mu.moments(10), nu.moments(10)
            for n in range(1, 11):
                assert conv[n - 1] == orthogonal_moment_combinatorial(mm, nm, (n,))


class TestIteratedOrthogonal:
    def test_one_fold_is_plain(self):
        rng = random.Random(10)
        mu, nu = random_rep(rng), random_rep(rng)
        assert (
            convolve.orthogonal_iterated(mu, nu, 1, 8).moments(8)
            == convolve.orthogonal(mu, nu, 8).moments(8)
        )

    def test_stabilization(self):
        rng = random.Random(11)
        for _ in range(5):
            mu, nu = random_rep(rng), random_rep(rng)
            for m in range(1, 6):
                a = convolve.orthogonal_iterated(mu, nu, m, 12)
                b = convolve.orthogonal_iterated(mu, nu, m + 1, 12)
                upto = min(2 * m, 12)
                assert a.moments(upto) == b.moments(upto)

    def test_left_point_mass_absorbs_at_any_depth(self):
        rng = random.Random(12)
        nu = random_rep(rng)
        da = point_mass(F(3, 2))
        for m in range(1, 6):
            assert convolve.orthogonal_iterated(da, nu, m, 8).moments(8) == da.moments(8)

    def test_needs_positive_count(self):
        with pytest.raises(InvalidParameter):
            convolve.orthogonal_iterated(BERN, BERN, 0, 4)

    def test_a_billion_iterations_compose_at_most_order_links(self):
        # every m >= order / 2 gives the same order moments
        rng = random.Random(14)
        mu, nu = random_rep(rng), random_rep(rng)
        start = time.perf_counter()
        got = convolve.orthogonal_iterated(mu, nu, 10**9, 10).moments(10)
        assert time.perf_counter() - start < 1.0
        assert got == convolve.sfree(mu, nu, 10).moments(10)


class TestSFree:
    def test_point_mass_rules(self):
        rng = random.Random(13)
        nu = random_rep(rng)
        a = F(1, 2)
        da = point_mass(a)
        assert convolve.sfree(da, nu, 8).moments(8) == da.moments(8)
        assert (
            convolve.sfree(nu, da, 8).moments(8)
            == convolve.orthogonal(nu, da, 8).moments(8)
        )

    def test_constant_tail_doubling(self):
        a, b = F(1, 3), F(5, 4)
        res = convolve.sfree(wigner(a, b), wigner(a, b), 10).jacobi()
        assert res.alpha == (a, 2 * a, 2 * a, 2 * a, 2 * a)
        assert res.omega == (b, 2 * b, 2 * b, 2 * b)

    def test_one_level_transforms_give_two_periodic_coefficients(self):
        al, om, be, ga = F(1, 2), F(2), F(-1, 3), F(1)
        mu = MeasureRep.from_jacobi(make_jacobi((al, 0), (om, 0)))
        nu = MeasureRep.from_jacobi(make_jacobi((be, 0), (ga, 0)))
        j = convolve.sfree(mu, nu, 10).jacobi()
        assert j.alpha == (al, be, al, be, al)
        assert j.omega == (om, ga, om, ga)

    def test_two_point_pair_gives_semicircle(self):
        assert convolve.sfree(BERN, BERN, 6).moments(6) == (
            F(0), F(1), F(0), F(2), F(0), F(5),
        )


def oracle_inputs():
    """Seeded pairs over the three input forms: atoms, exact moments, and
    recursion coefficients continued by a constant tail."""
    rng = random.Random(30)
    atomic = [random_rep(rng) for _ in range(3)]
    moments = MeasureRep.from_moments(random_rep(rng).moments(24))
    tail = MeasureRep.from_jacobi(
        make_jacobi((F(1, 2), F(-1, 3)), (F(2),), WignerTail(F(1, 4), F(3, 2)))
    )
    return [(atomic[0], atomic[1]), (atomic[2], moments), (tail, atomic[0])]


class TestSFreeAgainstIteratedChain:
    @pytest.mark.parametrize("pair", range(3))
    def test_halves_equal_the_stabilized_chain(self, pair):
        mu, nu = oracle_inputs()[pair]
        for order in range(1, 25):
            # the iteration count at which the chain pins every moment up to order
            m = -(-order // 2) + 1
            for a, b in ((mu, nu), (nu, mu)):
                assert (
                    convolve.sfree(a, b, order).moments(order)
                    == convolve.orthogonal_iterated(a, b, m, order).moments(order)
                )


    def test_m_iterations_fix_exactly_2m_plus_2_moments(self):
        # coefficient k of K_mu(z - inner) reads inner only up to index k - 2,
        # so each iteration pins two more moments of the s-free half: the least
        # count for N moments is max(1, ceil(N/2) - 1)
        rng = random.Random(40)
        pairs = [(random_rep(rng), random_rep(rng)) for _ in range(8)]
        for m in range(1, 8):
            order = 2 * m + 3
            differs = False
            for mu, nu in pairs:
                got = convolve.orthogonal_iterated(mu, nu, m, order).moments(order)
                want = convolve.sfree(mu, nu, order).moments(order)
                assert got[: 2 * m + 2] == want[: 2 * m + 2], m
                differs = differs or got[2 * m + 2] != want[2 * m + 2]
            assert differs, f"every pair agrees at moment {2 * m + 3} after {m} iterations"


# (order, index into oracle_inputs()): every pair at 24, the atomic and tail pairs at 40
HIGH_ORDER_CASES = [(24, 0), (24, 1), (24, 2), (40, 0), (40, 2)]
PAIR_NAMES = ("atoms", "moments", "wigner-tail")


class TestFreeAboveThePartitionOracle:
    @pytest.mark.parametrize(
        "order,pair", HIGH_ORDER_CASES, ids=[f"{order}-{PAIR_NAMES[pair]}" for order, pair in HIGH_ORDER_CASES]
    )
    def test_matches_additive_free_cumulants(self, order, pair):
        mu, nu = oracle_inputs()[pair]
        assert (
            convolve.free(mu, nu, order).moments(order)
            == convolve.free_cumulant_oracle(mu, nu, order).moments(order)
        )

    def test_order_80_on_the_emission_pair_within_bound(self):
        # the pair of test_cli.py::TestEmissionSpeed: on a 2-core machine under
        # Python 3.11 the oracle takes about 0.1 s on graded integers, where
        # its Fraction loops took about 2 s
        mu = MeasureRep.from_atoms(
            [(F(-2), F(1, 6)), (F(-3, 2), F(1, 12)), (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 4))]
        )
        nu = MeasureRep.from_atoms([(F(-3), F(5, 12)), (F(-1), F(1, 3)), (F(1), F(1, 4))])
        want = convolve.free(mu, nu, 80).moments(80)
        start = time.perf_counter()
        oracle = convolve.free_cumulant_oracle(mu, nu, 80)
        elapsed = time.perf_counter() - start
        assert oracle.moments(80) == want
        assert elapsed < 1.0, elapsed


class TestFree:
    def test_two_point_pair_gives_arcsine(self):
        res = convolve.free(BERN, BERN, 6)
        assert res.moments(6) == (F(0), F(2), F(0), F(6), F(0), F(20))

    def test_point_mass_shifts_diagonal(self):
        rng = random.Random(14)
        mu = random_rep(rng)
        jm = mu.jacobi()
        a = F(3, 4)
        res = convolve.free(mu, point_mass(a), 10).jacobi()
        assert res.alpha == tuple(x + a for x in jm.alpha)
        assert res.omega == jm.omega
        sym = convolve.free(point_mass(a), mu, 10)
        assert sym.moments(10) == convolve.free(mu, point_mass(a), 10).moments(10)

    def test_constant_tail_doubling(self):
        a, b = F(1, 3), F(5, 4)
        res = convolve.free(wigner(a, b), wigner(a, b), 10).jacobi()
        assert res.alpha == (2 * a,) * 5 and res.omega == (2 * b,) * 4

    def test_agrees_with_cumulant_oracle(self):
        rng = random.Random(15)
        for _ in range(10):
            mu, nu = random_rep(rng), random_rep(rng)
            assert (
                convolve.free(mu, nu, 10).moments(10)
                == convolve.free_cumulant_oracle(mu, nu, 10).moments(10)
            )

    def test_oracle_identity_and_commutativity(self):
        rng = random.Random(16)
        mu, nu = random_rep(rng), random_rep(rng)
        assert convolve.free_cumulant_oracle(mu, DELTA0, 8).moments(8) == mu.moments(8)
        assert (
            convolve.free_cumulant_oracle(mu, nu, 8).moments(8)
            == convolve.free_cumulant_oracle(nu, mu, 8).moments(8)
        )

    @pytest.mark.parametrize("order", [0, -1])
    def test_oracle_order_guard(self, order):
        with pytest.raises(InvalidParameter, match="order must be >= 1"):
            convolve.free_cumulant_oracle(BERN, BERN, order)

    def test_route_mismatch_guard_fires(self, monkeypatch):
        from freeconv.errors import RouteMismatch

        monkeypatch.setattr(
            convolve, "substitute_into_shifted", lambda outer, inner: TailSeries.zero(inner.order)
        )
        with pytest.raises(RouteMismatch):
            convolve.free(BERN, BERN, 4)


class TestSubordination:
    def test_point_mass_right_factor_converges_immediately(self):
        mu = two_point(F(1, 3), -1, 2)
        z = 1 + 2j
        u, v = convolve.subordination_eval(mu, DELTA0, z)
        assert abs(v) < 1e-12
        from freeconv.measures import eval_K

        assert abs(u - eval_K(mu, z)) < 1e-12

    def test_symmetric_pair_reaches_doubled_tail(self):
        w1, w2 = wigner(0, 1), wigner(0, 2)
        for z in (3j, 1 + 2j, -2 + 1.5j):
            u, v = convolve.subordination_eval(w1, w1, z)
            assert abs(u - v) < 1e-11
            assert abs((z - 2 * u) - eval_F(w2, z)) < 1e-9

    def test_subordination_system(self):
        mu = two_point(F(1, 3), -1, 2)
        nu = bernoulli_symmetric()
        z = 0.5 + 2j
        u, v = convolve.subordination_eval(mu, nu, z)
        f1, f2 = z - v, z - u
        lhs = eval_F(mu, f1)
        assert abs(lhs - eval_F(nu, f2)) < 10 * convolve.SUBORDINATION_TOL
        assert abs(lhs - (f1 + f2 - z)) < 10 * convolve.SUBORDINATION_TOL

    def test_no_convergence_is_reported(self, monkeypatch):
        monkeypatch.setattr(convolve, "SUBORDINATION_TOL", 1e-30)
        monkeypatch.setattr(convolve, "SUBORDINATION_MAX_ITER", 5)
        with pytest.raises(NoConvergence) as err:
            convolve.subordination_eval(BERN, BERN, 1j)
        assert err.value.gap is not None


class TestChainDecomposition:
    def test_first_link_transform(self):
        j = wigner(0, 1).jacobi()
        (link,) = convolve.jacobi_chain_decomposition(j, 1)
        jl = link.jacobi()
        assert jl.alpha == (F(0), F(0)) and jl.omega == (F(1),) and jl.finite

    def test_chain_reproduces_prefix_moments(self):
        j = wigner(0, 1).jacobi()
        full = wigner(0, 1)
        for m in range(1, 6):
            order = max(2 * m - 1, 1)
            assert verify._nested_chain(j, m, order).moments(order) == full.moments(order)

    def test_depth_guard(self):
        j = make_jacobi([0, 0], [1])
        with pytest.raises(OrderExceeded, match="2 truncated recursion levels"):
            convolve.jacobi_chain_decomposition(j, 2)

    def test_links_past_a_zero_omega_are_point_masses(self):
        # the first link of a finite chain past its zero omega is the point
        # mass at alpha0, every later one the point mass at 0
        links = convolve.jacobi_chain_decomposition(point_mass(3).jacobi(), 3)
        assert [link.jacobi() for link in links] == [
            make_jacobi([3], [0]),
            make_jacobi([0], [0]),
            make_jacobi([0], [0]),
        ]
        j = two_point(F(1, 3), -1, 2).jacobi()
        for m in range(1, 5):
            assert verify._nested_chain(j, m, 8).moments(8) == two_point(F(1, 3), -1, 2).moments(8), m


class TestKView:
    """A measure derives its K-series once, and a convolution result's K
    view is the series it was built from."""

    N = 10

    @pytest.fixture
    def calls(self, monkeypatch):
        """Lengths of the moment lists `moments_to_K` is run on."""
        seen = []
        real = measures.moments_to_K
        monkeypatch.setattr(measures, "moments_to_K", lambda m: seen.append(len(m)) or real(m))
        return seen

    def reps(self):
        rng = random.Random(37)
        return [random_rep(rng), wigner(1, 2), MeasureRep.from_moments(random_rep(rng).moments(self.N))]

    @pytest.mark.parametrize("orders", [range(1, 11), range(10, 0, -1), (4, 10, 2, 7, 10)])
    def test_view_equals_the_series_of_the_moments(self, orders):
        for rep in self.reps():
            for n in orders:
                assert rep.k_series(n) == moments_to_K(rep.moments(n)), (rep, n)

    def test_a_second_convolution_derives_no_k(self, calls):
        mu, nu, rho = self.reps()
        ops = [*convolve.OPERATIONS.values(), lambda a, b, n: convolve.orthogonal_iterated(a, b, 3, n)]
        for op in ops:
            op(rho, nu, self.N)
            op(mu, rho, self.N)
        first = len(calls)
        assert first > 0
        for op in ops:
            op(rho, nu, self.N)
            op(mu, rho, self.N - 3)
            op(nu, rho, self.N)
        assert len(calls) == first

    @pytest.mark.parametrize("op", convolve.OPERATIONS)
    def test_a_result_holds_the_k_it_was_built_from(self, op, calls, monkeypatch):
        built = []
        from_k = MeasureRep.from_k.__func__
        monkeypatch.setattr(MeasureRep, "from_k", classmethod(lambda cls, ks: built.append(ks) or from_k(cls, ks)))
        mu, nu, rho = self.reps()
        for a, b in ((mu, nu), (rho, mu), (nu, rho)):
            result = convolve.OPERATIONS[op](a, b, self.N)
            before = len(calls)
            assert result.k_series(self.N) is built[-1]
            assert result.k_series(3) == built[-1].truncate(2)
            assert len(calls) == before
            assert built[-1] == moments_to_K(result.moments(self.N))

    def test_free_fits_each_factor_outer_once(self, monkeypatch):
        # the recomposition K_mu(z - v) used to fit mu's outer again
        fitted = []

        def fit(c, weighted, real=series._fit):
            weighted = list(weighted)
            fitted.append(tuple(x for x, _ in weighted))
            return real(c, weighted)

        monkeypatch.setattr(series, "_fit", fit)
        mu = two_point(F(1, 3), -1, F(5, 2))
        nu = MeasureRep.from_atoms([(0, F(1, 2)), (F(1, 2), F(1, 4)), (3, F(1, 4))])
        convolve.free(mu, nu, 24)
        for rep in (mu, nu):
            outer = rep.k_outer(24)
            assert isinstance(outer, ContinuedFraction) and outer.tail is None
            assert fitted.count(tuple(x for level in outer.levels for x in level)) == 1
        assert len(fitted) == 4  # the two outers, the inner v and the result u + v

    def test_order_exceeded_holds_after_the_cache_is_filled(self):
        mu, nu, rho = self.reps()
        result = convolve.free(mu, nu, self.N)
        for rep in (rho, result):
            rep.k_series(self.N)
            with pytest.raises(OrderExceeded):
                rep.k_series(self.N + 1)
            with pytest.raises(OrderExceeded):
                convolve.boolean(rep, nu, self.N + 1)
            with pytest.raises(InvalidParameter, match="order must be >= 1"):
                rep.k_series(0)
        # a measure given by atoms or a tail has every moment, and a longer
        # K replaces the shorter one it repeats
        for rep in (mu, nu):
            short = rep.k_series(4)
            assert rep.k_series(2 * self.N).truncate(3) == short


class TestCliDispatch:
    """`freeconv convolve` calls the function `convolve.OPERATIONS` names,
    or `orthogonal_iterated`; argparse refuses any other name."""

    @pytest.fixture
    def bern(self, tmp_path):
        path = tmp_path / "bern.json"
        path.write_text(json.dumps({"type": "atoms", "atoms": [["-1", "1/2"], ["1", "1/2"]]}))
        return str(path)

    def test_dispatch(self, bern, capsys):
        for op, fn in convolve.OPERATIONS.items():
            assert main(["convolve", op, bern, bern, "--order", "6"]) == 0
            got = json.loads(capsys.readouterr().out)["m"]
            assert got == [str(x) for x in fn(BERN, BERN, 6).moments(6)], op

    def test_iterated_needs_count(self, bern, capsys):
        assert main(["convolve", "orthogonal-iter", bern, bern, "--order", "6"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "orthogonal-iter needs an iteration count" in out.err

    def test_unknown_operation(self, bern, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convolve", "classical", bern, bern, "--order", "6"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and "invalid choice: 'classical'" in out.err
