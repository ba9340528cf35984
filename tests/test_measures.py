import cmath
import json
import math
import random
import re
import time
from fractions import Fraction as F

import pytest

from freeconv import measures
from freeconv.convolve import free, subordination_eval
from freeconv.errors import (
    DomainError,
    InvalidParameter,
    NotAMomentSequence,
    OrderExceeded,
)
from freeconv.measures import (
    JacobiParams,
    MeasureRep,
    WignerTail,
    approximant_G,
    atomic_measure,
    bernoulli_symmetric,
    eval_F,
    eval_G,
    eval_K,
    jacobi_to_atoms,
    jacobi_to_moments,
    make_jacobi,
    measure_to_json,
    moments_to_jacobi,
    fraction_to_str,
    parse_fraction,
    parse_measure,
    point_mass,
    stieltjes_density,
    two_point,
    wigner,
)
from freeconv.series import moments_to_K, poly_mul, poly_scale, poly_sub, poly_trim


class TestMomentsToJacobi:
    def test_point_mass(self):
        a = F(3, 2)
        j = moments_to_jacobi([a, a**2, a**3])
        assert j.alpha == (a,) and j.omega == () and j.finite

    def test_semicircle_prefix(self):
        j = moments_to_jacobi([0, 1, 0, 2, 0, 5])
        assert j.alpha == (F(0), F(0), F(0))
        assert j.omega == (F(1), F(1))
        assert not j.finite

    def test_symmetric_two_point_terminates(self):
        j = moments_to_jacobi([0, 1, 0, 1])
        assert j.alpha == (F(0), F(0)) and j.omega == (F(1),) and j.finite

    def test_rejects_non_moment_sequence(self):
        with pytest.raises(NotAMomentSequence):
            moments_to_jacobi([0, -1])

    def test_rejects_an_empty_list(self):
        with pytest.raises(InvalidParameter, match="at least one moment"):
            moments_to_jacobi(())


def inner_product_jacobi(moments):
    """Reference: the orthogonal-polynomial recursion with the moment inner
    product, a separate algorithm for the coefficients moments_to_jacobi
    computes from mixed moments."""
    m = [F(1)] + [F(x) for x in moments]
    N = len(moments)

    def inner(p, q):
        return sum((c * m[i] for i, c in enumerate(poly_mul(p, q))), F(0))

    alpha, omega = [], []
    p_prev, p_cur, s_cur = None, [F(1)], F(1)
    finite = False
    while 2 * len(alpha) + 1 <= N:
        k = len(alpha)
        xp = [F(0)] + list(p_cur)
        alpha.append(inner(xp, p_cur) / s_cur)
        p_next = poly_sub(xp, poly_scale(p_cur, alpha[-1]))
        if p_prev is not None:
            p_next = poly_sub(p_next, poly_scale(p_prev, omega[-1]))
        if 2 * k + 2 > N:
            break
        s_next = inner(p_next, p_next)
        if s_next < 0:
            raise NotAMomentSequence(f"negative squared norm at level {k + 1}")
        if s_next == 0:
            # p_next vanishes on the support, so <p_next, x^l> = 0 for every
            # l the moments reach
            if any(inner(p_next, [F(0)] * l + [F(1)]) for l in range(k + 2, N - k)):
                raise NotAMomentSequence(f"moments disagree past the zero norm at level {k + 1}")
            finite = True
            break
        if 2 * k + 3 > N:
            break
        omega.append(s_next / s_cur)
        p_prev, p_cur = p_cur, poly_trim(p_next)
        s_cur = s_next
    return JacobiParams(tuple(alpha), tuple(omega), None, finite)


def fraction_moments_to_jacobi(moments):
    """Reference: the Chebyshev algorithm of moments_to_jacobi run on
    Fraction rows, each entry reduced on its own."""
    m = [F(1)] + [F(x) for x in moments]
    n = len(m) - 1
    alpha, omega, finite = m[1:2], [], False
    prev, cur = [F(0)] * (n + 1), m
    for k in range(n // 2):
        w = omega[-1] if omega else 0
        nxt = [F(0)] * (k + 1) + [
            cur[l + 1] - alpha[k] * cur[l] - w * prev[l] for l in range(k + 1, n - k)
        ]
        if nxt[k + 1] < 0:
            raise NotAMomentSequence(f"negative squared norm at level {len(alpha)}")
        finite = nxt[k + 1] == 0
        if finite and any(nxt[k + 2 :]):
            raise NotAMomentSequence(f"moments disagree past the zero norm at level {len(alpha)}")
        if finite or 2 * k + 3 > n:
            break
        omega.append(nxt[k + 1] / cur[k])
        alpha.append(nxt[k + 2] / nxt[k + 1] - cur[k + 1] / cur[k])
        prev, cur = cur, nxt
    return JacobiParams(tuple(alpha), tuple(omega), None, finite)


def fraction_jacobi_to_moments(j, n):
    """Reference: the weighted-walk transfer of jacobi_to_moments on Fraction
    entries at all n // 2 + 2 levels, skipping the empty ones."""
    levels = n // 2 + 1
    alphas, omegas = j.prefix(levels)
    v = [F(0)] * (levels + 1)
    v[0] = F(1)
    out = []
    for _ in range(n):
        nxt = [F(0)] * (levels + 1)
        for l in range(levels):
            if v[l] == 0:
                continue
            nxt[l] += alphas[l] * v[l]
            nxt[l + 1] += v[l]
        for l in range(1, levels):
            if v[l]:
                nxt[l - 1] += omegas[l - 1] * v[l]
        v = nxt
        out.append(v[0])
    return tuple(out)


def fraction_atomic_moments(atoms, n):
    """Reference: m_1..m_n of weighted atoms, summed in Fractions."""
    out = []
    powers = {loc: F(1) for loc, _ in atoms}
    for _ in range(n):
        total = F(0)
        for loc, wt in atoms:
            powers[loc] *= loc
            total += wt * powers[loc]
        out.append(total)
    return tuple(out)


def outcome(fn, moments):
    """fn(moments), or its refusal as text.  The empty list is left out:
    the references build the empty recursion for it, which
    `moments_to_jacobi` refuses (`test_rejects_an_empty_list`)."""
    if not len(moments):
        return "no moments"
    try:
        return fn(moments)
    except NotAMomentSequence as exc:
        return f"NotAMomentSequence: {exc}"


def random_atomic(rng, k):
    locs = set()
    while len(locs) < k:
        locs.add(F(rng.randint(-6, 6), rng.randint(1, 3)))
    weights = [rng.randint(1, 4) for _ in range(k)]
    return MeasureRep.from_atoms([(l, F(w, sum(weights))) for l, w in zip(sorted(locs), weights)])


class TestMomentsToJacobiAgainstInnerProducts:
    def test_random_rational_lists(self):
        # every other list is a perturbed moment sequence, so that the
        # negative norm also turns up past the first levels
        rng = random.Random(35)
        for i in range(300):
            n = rng.randint(0, 14)
            if i % 2 or n == 0:
                m = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            else:
                m = list(random_atomic(rng, 8).moments(n))
                m[rng.randrange(n)] += F(rng.randint(-3, 3), rng.randint(1, 9))
            assert outcome(moments_to_jacobi, m) == outcome(inner_product_jacobi, m), m

    def test_atomic_measures_at_every_length(self):
        rng = random.Random(36)
        for k in range(1, 6):
            m = random_atomic(rng, k).moments(2 * k + 3)
            for n in range(1, len(m) + 1):
                got = moments_to_jacobi(m[:n])
                assert got == inner_product_jacobi(m[:n]), (k, n)
                assert got.finite == (n >= 2 * k)

    def test_free_outputs_at_order_24(self):
        rng = random.Random(37)
        for k, l in ((2, 3), (3, 1)):
            m = free(random_atomic(rng, k), random_atomic(rng, l), 24).moments(24)
            assert moments_to_jacobi(m) == inner_product_jacobi(m)


def kseries_peel_jacobi(moments):
    """Reference: read the coefficients off the K-series level by level.

    K(z) = alpha0 + omega0 * G_mu'(z), where mu' is mu with its first
    recursion level removed, so K's coefficients in 1/z are alpha0, omega0
    and omega0 times the moments of mu'; each step reads alpha and omega off
    K = z - F and divides the rest by omega to get the next level's moments.
    """
    m = [F(x) for x in moments]
    alpha, omega = [], []
    finite = False
    while m:
        K = moments_to_K(m).coeffs
        alpha.append(K[0])
        if len(K) < 2:
            break
        if K[1] < 0:
            raise NotAMomentSequence(f"negative squared norm at level {len(alpha)}")
        if K[1] == 0:
            # the rest of the measure is a point mass, whose K is constant
            if any(K[2:]):
                raise NotAMomentSequence(f"moments disagree past the zero norm at level {len(alpha)}")
            finite = True
            break
        if len(K) < 3:
            break
        omega.append(K[1])
        m = [c / K[1] for c in K[2:]]
    return JacobiParams(tuple(alpha), tuple(omega), None, finite)


def seeded_moment_lists():
    """The lists of TestMomentsToJacobiAgainstInnerProducts: 300 seeded
    rational lists, half of them perturbed moment sequences, then every
    prefix of random atomic moment sequences."""
    rng = random.Random(35)
    for i in range(300):
        n = rng.randint(0, 14)
        if i % 2 or n == 0:
            yield [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        else:
            m = list(random_atomic(rng, 8).moments(n))
            m[rng.randrange(n)] += F(rng.randint(-3, 3), rng.randint(1, 9))
            yield m
    rng = random.Random(36)
    for k in range(1, 6):
        m = random_atomic(rng, k).moments(2 * k + 3)
        for n in range(len(m) + 1):
            yield list(m[:n])


class TestMomentsToJacobiAgainstKSeriesPeel:
    def test_three_algorithms_agree(self):
        for m in seeded_moment_lists():
            got = outcome(moments_to_jacobi, m)
            assert got == outcome(inner_product_jacobi, m) == outcome(kseries_peel_jacobi, m), m


class TestJacobiToMoments:
    def test_point_mass(self):
        j = make_jacobi([F(3, 2)], [0])
        a = F(3, 2)
        assert jacobi_to_moments(j, 4) == (a, a**2, a**3, a**4)

    def test_catalan_numbers(self):
        j = make_jacobi([0, 0, 0, 0], [1, 1, 1])
        assert jacobi_to_moments(j, 7) == (F(0), F(1), F(0), F(2), F(0), F(5), F(0))

    def test_depth_guard(self):
        j = make_jacobi([0, 0], [1])
        with pytest.raises(OrderExceeded, match="2 truncated recursion levels"):
            jacobi_to_moments(j, 4)  # only 2d - 1 = 3 moments are pinned

    def test_terminated_coefficients_have_all_moments(self):
        j = make_jacobi([0, 0], [1, 0])
        assert jacobi_to_moments(j, 6) == (F(0), F(1), F(0), F(1), F(0), F(1))

    def test_round_trip_on_random_measures(self):
        rng = random.Random(31)
        for _ in range(20):
            k = rng.randint(2, 4)
            locs = set()
            while len(locs) < k:
                locs.add(F(rng.randint(-6, 6), rng.randint(1, 3)))
            weights = [rng.randint(1, 4) for _ in range(k)]
            tot = sum(weights)
            rep = MeasureRep.from_atoms(
                [(l, F(w, tot)) for l, w in zip(sorted(locs), weights)]
            )
            m = rep.moments(9)
            j = moments_to_jacobi(m)
            assert jacobi_to_moments(j, 9) == m


def uniform_moments(n):
    """m_1..m_n of the uniform measure on [0, 1], 1/(k + 1)."""
    return [F(1, k + 1) for k in range(1, n + 1)]


def legendre_jacobi(levels):
    """The uniform measure on [-1, 1]: alpha_k = 0, omega_k = (k+1)^2 / (4(k+1)^2 - 1)."""
    return make_jacobi([0] * levels, [F(k * k, 4 * k * k - 1) for k in range(1, levels)])


class TestGrowingDenominators:
    def test_closed_forms(self):
        # the shifted Legendre recursion, and the even moments 1/(2k + 1)
        j = moments_to_jacobi(uniform_moments(40))
        assert j.alpha == (F(1, 2),) * 20
        assert j.omega == tuple(F(k * k, 4 * (4 * k * k - 1)) for k in range(1, 20))
        m = jacobi_to_moments(legendre_jacobi(21), 40)
        assert m == tuple(F(1 - k % 2, k + 1) for k in range(1, 41))

    def test_order_120_within_bound(self):
        # uniform moments 1/(k + 1) and the Legendre recursion at N = 120:
        # on a 2-core machine under Python 3.11 both calls take about 0.01 s
        # on reduced integer rows, where Fraction rows took 0.07-0.1 s; a
        # scale carried through the Hankel determinants would grow as
        # c^(k(k-1)) at level k
        moments, legendre = uniform_moments(120), legendre_jacobi(61)
        start = time.perf_counter()
        j = moments_to_jacobi(moments)
        m = jacobi_to_moments(legendre, 120)
        elapsed = time.perf_counter() - start
        assert len(j.alpha) == 60 and len(m) == 120 and m[-1] == F(1, 121)
        assert elapsed < 1.0, elapsed


class TestRowsStayReduced:
    """Every Fraction the conversions build is made of entries of rows that
    are reduced once per step; unreduced rows would give the same values
    from ints ten to two hundred times wider, which this guards against."""

    @pytest.fixture
    def widest(self, monkeypatch):
        bits = [0]

        class Recording(F):
            def __new__(cls, numerator=0, denominator=None):
                for x in (numerator, denominator):
                    if isinstance(x, int):
                        bits[0] = max(bits[0], abs(x).bit_length())
                return F(numerator, denominator)

        monkeypatch.setattr(measures, "Fraction", Recording)
        return bits

    def test_chebyshev_rows(self, widest):
        # 2336 bits on reduced rows, 25579 on unreduced ones
        mu = MeasureRep.from_atoms([(-2, F(1, 6)), (F(-3, 2), F(1, 12)), (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 4))])
        nu = MeasureRep.from_atoms([(-3, F(5, 12)), (-1, F(1, 3)), (1, F(1, 4))])
        m = free(mu, nu, 40).moments(40)
        widest[0] = 0
        moments_to_jacobi(m)
        assert widest[0] < 5000, widest[0]

    def test_walk_rows(self, widest):
        # 114 bits on reduced rows, 20018 on unreduced ones
        jacobi_to_moments(legendre_jacobi(61), 120)
        assert widest[0] < 1000, widest[0]


class TestJacobiShapes:
    def test_zero_omega_truncates(self):
        # the first zero omega ends the recursion, and a level after it is refused, not dropped
        assert make_jacobi([1, 2], [4, 0]) == JacobiParams((F(1), F(2)), (F(4),), None, True)
        with pytest.raises(InvalidParameter, match=re.escape("omega[1] is zero and ends the recursion, but alpha[2] follows it")):
            make_jacobi([1, 2, 3], [4, 0], tail=None)

    def test_wigner_zero_variance_collapses(self):
        j = make_jacobi([5], [2], tail=WignerTail(F(3), F(0)))
        assert j.finite and j.alpha == (F(5), F(3)) and j.omega == (F(2),)
        # a zero-variance tail is one more zero omega, at index len(omega):
        # it supplies the level (a, 0) when alpha[len(omega)] is not given,
        # and a level after it, or an omega without its alpha, is refused
        table = [
            ((), (), (3, 0), ((3,), ())),
            ((1, 2, 3, 4), (2,), (3, 0), "the 'wigner' tail of variance 0 ends the recursion, but alpha[2] follows it"),
            ((1, 2), (), (3, 0), "the 'wigner' tail of variance 0 ends the recursion, but alpha[1] follows it"),
            ((), (4, 9), (F(1, 2), 0), "omega[0] is given without alpha[0]"),  # fewer alphas than omegas
            ((1, 2, 3), (0, 5), (3, 0), "omega[0] is zero and ends the recursion, but alpha[1] follows it"),
            ((), (1, 0), (7, 0), "omega[1] is zero and ends the recursion, but a 'wigner' tail follows it"),
        ]
        for alpha, omega, tail, want in table:
            if isinstance(want, str):
                with pytest.raises(InvalidParameter, match=re.escape(want)):
                    make_jacobi(alpha, omega, WignerTail(*tail))
            else:
                want_alpha, want_omega = want
                assert make_jacobi(alpha, omega, WignerTail(*tail)) == JacobiParams(
                    tuple(map(F, want_alpha)), tuple(map(F, want_omega)), None, True
                )

    @pytest.mark.parametrize(
        "alpha, omega",
        [
            ([F(3, 2)], []),
            ([5], []),
            ([0, 0], [1]),
            ([0, 0], [2]),
            ([1, 2], [F(1, 3)]),
            ([F(1, 2), 0], [F(3)]),
            ([F(-1, 3), 0], [1]),
            ([F(1, 3), 1], [4]),
            ([0, F(1, 2)], [2]),
            ([1, 2, 3], [4, 5]),
            ([F(1, 999_983), F(-2, 1_000_003)], [F(3, 1_000_033)]),
            ([F(1, 2), F(-1, 3)] * 200, [F(2), F(1)] * 199 + [F(2)]),
        ],
    )
    def test_trailing_zero_gives_what_complete_gave(self, alpha, omega):
        # `complete=True` declared a prefix the whole measure; that prefix
        # ending in its zero omega now says the same
        want = JacobiParams(tuple(map(F, alpha)), tuple(map(F, omega)), None, True)
        assert make_jacobi(alpha, omega + [0]) == want

    def test_negative_omega_rejected(self):
        with pytest.raises(InvalidParameter):
            make_jacobi([0, 0], [-1])

    def test_shift(self):
        j = make_jacobi([F(1), F(2)], [F(3), 0])
        s = j.shift()
        assert s.alpha == (F(2),) and s.omega == ()

    def test_shift_of_constant_tail_is_fixed_point(self):
        j = wigner(1, 2).jacobi()
        assert j.shift() == j

    def test_shift_needs_a_level(self):
        with pytest.raises(InvalidParameter, match="no levels left to shift"):
            JacobiParams((), (), None, True).shift()

    def test_shift_needs_two_levels_without_a_tail(self):
        # one truncated level fixes only m1, and a point mass has no level
        # below its terminating omega: neither shifts to a measure
        for j in (make_jacobi([1], []), make_jacobi([1], [0])):
            with pytest.raises(InvalidParameter, match="no levels left to shift"):
                j.shift()

    @pytest.mark.parametrize(
        "alpha, omega, tail",
        [
            ([1], [2, 3, 4], WignerTail(5, 1)),  # alpha_1 and alpha_2 used to come from the tail
            ([1], [4, 0], None),  # a zero omega needs its alpha too
        ],
        ids=["wigner-tail", "zero-omega"],
    )
    def test_omega_without_its_alpha_is_refused(self, alpha, omega, tail):
        with pytest.raises(InvalidParameter, match=re.escape("omega[1] is given without alpha[1]")):
            make_jacobi(alpha, omega, tail)

    def test_shift_above_a_tail_drops_an_omega_deeper_than_the_alphas(self):
        j = make_jacobi([0], [3], WignerTail(1, 2))
        assert j.shift() == make_jacobi([], [], WignerTail(1, 2))

    def test_no_alpha_and_no_tail_is_rejected(self):
        with pytest.raises(InvalidParameter, match="need an alpha entry or a tail"):
            make_jacobi([], [])

    def test_empty_moment_list_is_rejected(self):
        with pytest.raises(InvalidParameter, match="needs at least one"):
            MeasureRep.from_moments([])


class TestOneForm:
    @pytest.mark.parametrize(
        "forms",
        [
            {"moments": [F(0), F(1)], "atoms": atomic_measure([(5, 1)])},
            {"moments": [F(5)], "jacobi": make_jacobi([5], [0])},
            {"jacobi": make_jacobi([5], [0]), "atoms": atomic_measure([(5, 1)])},
            {"moments": [F(5)], "jacobi": make_jacobi([5], [0]), "atoms": atomic_measure([(5, 1)])},
        ],
        ids=["moments+atoms", "moments+jacobi", "jacobi+atoms", "all-three"],
    )
    def test_two_or_more_forms_are_rejected(self, forms):
        # moments (0, 1) beside the atom at 5 used to read as two measures
        with pytest.raises(InvalidParameter, match="exactly one of moments, jacobi and atoms"):
            MeasureRep(**forms)

    def test_no_form_is_rejected(self):
        with pytest.raises(InvalidParameter, match="exactly one of moments, jacobi and atoms"):
            MeasureRep()

    @pytest.mark.parametrize(
        "form, match",
        [
            ({"moments": []}, "needs at least one"),
            ({"moments": [0.5]}, "floats are not accepted"),
            ({"jacobi": (1,)}, "JacobiParams expected, got tuple"),
            ({"atoms": [(5, 1)]}, "AtomicMeasure expected, got list"),
        ],
        ids=["no-moments", "float-moment", "tuple-as-jacobi", "list-as-atoms"],
    )
    def test_the_keywords_are_checked(self, form, match):
        # the keywords are as public as the `from_*` constructors
        with pytest.raises(InvalidParameter, match=match):
            MeasureRep(**form)


class TestPrefix:
    def test_wigner_tail_continues_past_the_given_entries(self):
        j = make_jacobi([1, 2], [3], WignerTail(F(1, 2), 5))
        assert j.prefix(4) == ((F(1), F(2), F(1, 2), F(1, 2)), (F(3), F(5), F(5)))
        assert wigner(0, 1).jacobi().prefix(2) == ((F(0), F(0)), (F(1),))

    def test_terminated_fraction_reads_zeros(self):
        j = make_jacobi([1, 2], [F(1, 3), 0])
        assert j.prefix(4) == ((F(1), F(2), F(0), F(0)), (F(1, 3), F(0), F(0)))

    def test_truncated_prefix_ends_at_its_levels(self):
        j = make_jacobi([0, F(1, 2), 0], [1, 2])
        assert j.prefix(3) == ((F(0), F(1, 2), F(0)), (F(1), F(2)))
        assert j.prefix(0) == ((), ())
        with pytest.raises(OrderExceeded, match="3 truncated recursion levels fix only 5 moments"):
            j.prefix(4)


class TestAtoms:
    def test_weights_validated(self):
        with pytest.raises(InvalidParameter):
            atomic_measure([(0, F(1, 2)), (1, F(1, 3))])
        with pytest.raises(InvalidParameter):
            atomic_measure([(0, F(1)), (0, F(0))])

    def test_rational_spectrum_recovered(self):
        rep = two_point(F(1, 3), 2, -1)
        j = rep.jacobi()
        atoms = jacobi_to_atoms(j)
        assert atoms is not None
        assert atoms.atoms == ((F(-1), F(2, 3)), (F(2), F(1, 3)))

    def test_irrational_spectrum_returns_none(self):
        # two symmetric atoms at +-sqrt(2): terminating coefficients but no
        # rational eigenvalues
        j = make_jacobi([0, 0], [2, 0])
        assert jacobi_to_atoms(j) is None

    @pytest.mark.parametrize(
        "j",
        [
            # an irrational pair with denominators near 10^6, where a search
            # over divisor pairs of the coefficients ran for over a minute
            make_jacobi([F(1, 999_983), F(-2, 1_000_003)], [F(3, 1_000_033), 0]),
            # weight 1/3 each at 1, sqrt(2) and -sqrt(2): a rational atom
            # among irrational ones
            moments_to_jacobi([F(1, 3), F(5, 3), F(1, 3), 3, F(1, 3), F(17, 3)]),
            # weight 1/4 each at 0, 10 and 5 -+ sqrt(24), the last two with
            # power sums s_k: P_4 = x (x - 10) (x^2 - 10x + 1), so each
            # irrational zero shares the grid cell of width 1 of a rational one
            moments_to_jacobi(
                [F(10**k + s, 4) for k, s in enumerate((10, 98, 970, 9602, 95050, 940898, 9313930, 92198402), 1)]
            ),
        ],
        ids=["near-1e6", "mixed", "shared-cell"],
    )
    def test_irrational_spectrum_returns_none_quickly(self, j):
        assert j.finite
        start = time.perf_counter()
        assert jacobi_to_atoms(j) is None
        assert time.perf_counter() - start < 1.0

    def test_twelve_atoms_near_1e6_round_trip_quickly(self):
        # atoms -> moments -> recursion coefficients -> atoms at weight 1/12,
        # locations p/q with q near 10^6; about 0.15 s on 2 cores, Python 3.11
        rng = random.Random(12)
        locs = {F(rng.randint(-(10**6), 10**6), 10**6 + rng.randint(1, 100)) for _ in range(12)}
        am = atomic_measure([(x, F(1, 12)) for x in locs])
        assert len(am.atoms) == 12
        start = time.perf_counter()
        assert jacobi_to_atoms(moments_to_jacobi(am.moments(24))) == am
        assert time.perf_counter() - start < 1.0


class TestEvaluation:
    def test_point_mass_at_origin(self):
        assert abs(eval_G(point_mass(0), 1j) - (-1j)) < 1e-15

    def test_pure_constant_tail_value(self):
        g = eval_G(wigner(0, 1), 2j)
        assert abs(g - 1j * (1 - math.sqrt(2))) < 1e-12

    def test_point_mass_transforms(self):
        a = F(3, 2)
        rep = point_mass(a)
        for z in (1j, 2 + 1j, -1 + 3j):
            assert abs(eval_F(rep, z) - (z - float(a))) < 1e-12
            assert abs(eval_K(rep, z) - float(a)) < 1e-12

    def test_half_plane_mappings(self):
        rng = random.Random(37)
        reps = [bernoulli_symmetric(), wigner(F(1, 2), 2), two_point(F(1, 4), -2, 1)]
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 4))
            for rep in reps:
                assert eval_G(rep, z).imag < 0
                assert eval_F(rep, z).imag >= z.imag - 1e-12
                assert eval_K(rep, z).imag <= 1e-12

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            eval_G(point_mass(0), -1j)

    def test_truncated_recursion_refused(self):
        # closing the 4 levels with 1/(z - alpha) would give -2.778 - 0.262i here,
        # where the semicircle has 0.249 - 0.963i
        rep = MeasureRep.from_moments(wigner(0, 1).moments(8))
        z = 0.5 + 0.01j
        for evaluate in (eval_G, eval_F, eval_K, lambda r, z: subordination_eval(r, r, z)):
            with pytest.raises(OrderExceeded, match="4 truncated recursion levels"):
                evaluate(rep, z)

    def test_omega_one_level_deeper_than_alpha_above_a_tail(self):
        # omega_1 = 2 lies below the last given alpha and above the tail
        rep = MeasureRep.from_jacobi(make_jacobi([0, 0], [1, 2], WignerTail(0, 1)))
        m = rep.moments(12)
        z = 10j
        series = 1 / z + sum(float(m[n - 1]) * z ** (-n - 1) for n in range(1, 13))
        assert abs(eval_G(rep, z) - series) < 1e-10

    def test_every_level_and_the_tail_are_used(self):
        # 80 explicit levels equal to the tail: still the semicircle, however deep
        deep = make_jacobi([0] * 80, [1] * 80, WignerTail(0, 1))
        for z in (2j, 0.5 + 0.01j):
            assert abs(eval_G(deep, z) - eval_G(wigner(0, 1), z)) < 1e-12

    def test_moment_series_agreement_at_large_argument(self):
        rep = two_point(F(1, 3), -1, 2)
        m = rep.moments(12)
        rng = random.Random(41)
        for _ in range(20):
            z = 10 * cmath.exp(1j * rng.uniform(0.2, math.pi - 0.2))
            series = 1 / z + sum(float(m[n - 1]) * z ** (-n - 1) for n in range(1, 13))
            assert abs(eval_G(rep, z) - series) < 1e-8


class TestApproximants:
    def test_level_one(self):
        j = make_jacobi([F(1, 2), 0], [F(3), 0])
        n, m = approximant_G(j, 1)[1]
        assert n == [F(1)] and m == [F(-1, 2), F(1)]

    def test_level_two_constant_tail(self):
        n, m = approximant_G(wigner(0, 1).jacobi(), 2)[2]
        assert n == [F(0), F(1)]
        assert m == [F(-1), F(0), F(1)]

    def test_truncated_fraction_matches_prefix_moments(self):
        j = wigner(0, 1).jacobi()
        full = wigner(0, 1)
        for m in range(1, 6):
            alphas, omegas = j.prefix(m)
            prefix = make_jacobi(alphas, omegas + (0,))
            order = 2 * m - 1
            assert jacobi_to_moments(prefix, order) == full.moments(order)

    def test_approximant_series_division_reproduces_moments(self):
        from freeconv.series import TailSeries

        rep = two_point(F(1, 3), -1, 2)
        j = rep.jacobi()
        for m in (1, 2):
            num, den = approximant_G(j, m)[m]
            order = 2 * m + 1
            # divide as series in 1/z: multiply both by z**-deg(den)
            num_w = [F(0)] * (m - len(num) + 1) + list(reversed(num))
            den_w = list(reversed(den))
            quotient = TailSeries(num_w + [F(0)] * (order - m)) * TailSeries(
                den_w + [F(0)] * (order + 1 - len(den_w))
            ).reciprocal()
            # coefficient of w**(n+1) is the n-th moment, exactly up to 2m-1
            assert quotient.coeffs[0] == 0 and quotient.coeffs[1] == 1
            want = rep.moments(2 * m - 1)
            assert quotient.coeffs[2 : 2 * m + 1] == want[: 2 * m - 1]


class TestStieltjes:
    def test_semicircle_peak(self):
        (_, f0), = stieltjes_density(wigner(0, 1), [0.0], epsilon=1e-6)
        assert abs(f0 - 1 / math.pi) < 1e-4

    def test_poisson_kernel_for_point_mass(self):
        rep = point_mass(1)
        eps = 1e-3
        for x in (0.0, 0.5, 2.0):
            (_, f), = stieltjes_density(rep, [x], epsilon=eps)
            want = eps / (math.pi * ((x - 1) ** 2 + eps**2))
            assert abs(f - want) < 1e-9

    def test_vanishes_off_support(self):
        for rep in (wigner(0, 1), bernoulli_symmetric()):
            for x, f in stieltjes_density(rep, [-10.0, 10.0], epsilon=1e-6):
                assert f < 1e-3

    def test_truncated_recursion_refused(self):
        # finitely many moments fix no density: closing the recursion would
        # give a Gauss quadrature's (212206.6 at x = 0 for this one)
        for rep in (
            MeasureRep.from_jacobi(make_jacobi([0, F(1, 2), 0], [1, 2])),
            MeasureRep.from_moments(wigner(0, 1).moments(8)),
        ):
            with pytest.raises(OrderExceeded, match="levels"):
                stieltjes_density(rep, [0.0])


class TestConstructors:
    def test_two_point_recursion_coefficients(self):
        p, l1, l2 = F(1, 2), F(1), F(-1)
        j = two_point(p, l1, l2).jacobi()
        assert j.alpha == (F(0), F(0)) and j.omega == (F(1),)

    def test_two_point_mean_and_variance(self):
        p, l1, l2 = F(1, 3), F(2), F(-1)
        q = 1 - p
        j = two_point(p, l1, l2).jacobi()
        assert j.alpha[0] == l1 * p + l2 * q
        assert j.omega[0] == p * q * (l1 - l2) ** 2
        assert j.alpha[1] == l1 * q + l2 * p

    def test_degenerate_two_point_collapses(self):
        rep = two_point(F(1, 2), 3, 3)
        assert rep.atoms().atoms == ((F(3), F(1)),)

    def test_invalid_weight(self):
        with pytest.raises(InvalidParameter):
            two_point(0, 1, 2)
        with pytest.raises(InvalidParameter):
            two_point(1, 1, 2)

    def test_wigner_moments(self):
        assert wigner(0, 1).moments(8) == (
            F(0), F(1), F(0), F(2), F(0), F(5), F(0), F(14),
        )

    def test_zero_variance_collapses_to_point(self):
        assert wigner(2, 0).moments(3) == (F(2), F(4), F(8))
        for a in (0, 2, F(-3, 7)):
            w, p = wigner(a, 0), point_mass(a)
            assert w.moments(6) == p.moments(6)
            assert w.jacobi() == p.jacobi() == JacobiParams((F(a),), (), None, True)
            assert w.atoms().atoms == p.atoms().atoms == ((F(a), F(1)),)

    def test_negative_variance_is_rejected(self):
        with pytest.raises(InvalidParameter, match="variance must be >= 0"):
            wigner(0, -1)

    def test_moment_list_ends_whatever_the_caches_hold(self):
        # [1, 1] is the point mass at 1, so its recursion coefficients and
        # atoms would extend the list; a rep given by moments must not
        for derive in (lambda r: None, MeasureRep.jacobi, MeasureRep.atoms):
            rep = MeasureRep.from_moments([1, 1])
            derive(rep)
            with pytest.raises(OrderExceeded):
                rep.moments(4)
            assert rep.moments(2) == (F(1), F(1))

    @pytest.mark.parametrize(
        "make",
        [lambda: MeasureRep.from_moments([1, 2, 3]), lambda: two_point(F(1, 3), -1, 2), lambda: wigner(0, 1)],
        ids=["moments", "atoms", "jacobi"],
    )
    def test_negative_moment_count_is_rejected_whatever_the_cache_holds(self, make):
        rep = make()
        for _ in range(2):  # before the cache fills, then after
            with pytest.raises(InvalidParameter, match="n must be >= 0"):
                rep.moments(-1)
            assert len(rep.moments(3)) == 3


class TestJson:
    def test_fraction_parsing(self):
        assert parse_fraction("3/4") == F(3, 4)
        assert parse_fraction(5) == F(5)
        with pytest.raises(InvalidParameter):
            parse_fraction(0.5)
        with pytest.raises(InvalidParameter):
            parse_fraction("x")

    def test_three_measure_kinds(self):
        m = parse_measure({"type": "moments", "m": ["0", "1"]})
        assert m.moments(2) == (F(0), F(1))
        j = parse_measure(
            {"type": "jacobi", "alpha": ["0"], "omega": [], "tail": {"kind": "wigner", "a": "0", "b": "1"}}
        )
        assert j.moments(4) == (F(0), F(1), F(0), F(2))
        a = parse_measure({"type": "atoms", "atoms": [["1", "1/2"], ["-1", "1/2"]]})
        assert a.moments(2) == (F(0), F(1))

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidParameter):
            parse_measure({"type": "density"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "moments", "m": "0123"},
            {"type": "moments", "m": {"1": "0"}},
            {"type": "jacobi", "alpha": "01", "omega": ["1"]},
            {"type": "jacobi", "alpha": ["0", "1"], "omega": "1"},
            {"type": "jacobi", "alpha": ["0"], "omega": [], "tail": "wigner"},
            {"type": "atoms", "atoms": "01"},
            {"type": "atoms", "atoms": ["01"]},
            {"type": "atoms", "atoms": [["0", "1/2", "1/2"]]},
            {"type": "jacobi"},
            {"type": "jacobi", "alpha": [], "omega": []},
            {"type": "jacobi", "alpha": [], "omega": [], "tail": {"kind": "truncate"}},
        ],
    )
    def test_malformed_fields_rejected(self, obj):
        with pytest.raises(InvalidParameter):
            parse_measure(obj)

    def test_emission_is_idempotent_through_parser(self):
        rep = two_point(F(1, 3), -1, 2)
        blob = json.dumps(measure_to_json(rep, 6))
        reparsed = parse_measure(json.loads(blob))
        assert json.dumps(measure_to_json(reparsed, 6)) == blob

    def test_a_moments_document_with_views_runs_one_chebyshev_pass(self, monkeypatch):
        # parsing used to derive the views twice: once for the measure, once
        # for a fresh one built from the same moments to print them
        printed = measure_to_json(MeasureRep.from_moments(two_point(F(1, 3), -1, 2).moments(6)), 6)
        calls = []
        real = measures.moments_to_jacobi
        monkeypatch.setattr(measures, "moments_to_jacobi", lambda m: calls.append(len(m)) or real(m))
        rep = parse_measure(json.loads(json.dumps(printed)))
        assert calls == [6]
        assert json.dumps(measure_to_json(rep, 6)) == json.dumps(printed) and calls == [6]
        # fewer moments than the measure holds are a measure of their own
        assert measure_to_json(rep, 4) == measure_to_json(MeasureRep.from_moments(rep.moments(4)), 4)

    def test_a_refused_sequence_runs_one_chebyshev_pass(self, monkeypatch):
        # emission used to run the pass again for the atoms view, since the
        # refusal was not remembered
        calls = []
        real = measures.moments_to_jacobi
        monkeypatch.setattr(measures, "moments_to_jacobi", lambda m: calls.append(len(m)) or real(m))
        rep = MeasureRep.from_moments([0, -1, 0, 1])
        assert measure_to_json(rep, 4) == {"type": "moments", "m": ["0", "-1", "0", "1"]}
        assert calls == [4]
        with pytest.raises(NotAMomentSequence) as first:
            rep.jacobi()
        with pytest.raises(NotAMomentSequence) as again:
            rep.jacobi()
        assert again.value is first.value and calls == [4]

    @pytest.mark.parametrize(
        "views, key",
        [
            ({"atoms": [["5", "1"]], "jacobi": {"alpha": ["9"]}}, "'jacobi'"),
            ({"atoms": [["5", "1"]]}, "'atoms'"),
            ({"jacobi": {"alpha": ["1"], "omega": [], "tail": {"kind": "truncate"}}}, "'jacobi'"),
            ({"atoms": [["-1", "1/2"], ["1", "1/2"]]}, "'atoms'"),  # two moments give no atoms
        ],
    )
    def test_views_beside_moments_must_be_the_ones_they_give(self, views, key):
        # the views used to be accepted and not read
        with pytest.raises(InvalidParameter, match=f"{key} is not the view its moments give"):
            parse_measure({"type": "moments", "m": ["0", "1"], **views})
        printed = measure_to_json(two_point(F(1, 3), -1, 2), 6)
        assert parse_measure(printed).moments(6) == tuple(map(F, printed["m"]))

    def test_emission_carries_atoms_when_rational(self):
        obj = measure_to_json(two_point(F(1, 3), -1, 2), 6)
        assert obj["atoms"] == [["-1", "1/3"], ["2", "2/3"]]
        assert obj["jacobi"] == {"alpha": ["1", "0"], "omega": ["2"], "tail": {"kind": "truncate"}}

    def test_emission_without_rational_atoms(self):
        # no moment sequence (negative variance): the moments alone
        obj = measure_to_json(MeasureRep.from_moments([0, -1, 0, 1]), 4)
        assert obj == {"type": "moments", "m": ["0", "-1", "0", "1"]}
        # atoms at -sqrt(2) and sqrt(2): a finite recursion but no rational atoms
        obj = measure_to_json(MeasureRep.from_moments([0, 2, 0, 4]), 4)
        assert "atoms" not in obj
        assert obj["jacobi"] == {"alpha": ["0", "0"], "omega": ["2"], "tail": {"kind": "truncate"}}

    def test_rationals_beyond_the_int_str_digit_limit_round_trip(self):
        # Python 3.11+ refuses int/str conversions above 4300 digits by default
        big = F(10**5001 + 7, 3**4000)
        text = fraction_to_str(big)
        assert len(text) > 5000 and parse_fraction(text) == big
        rep = MeasureRep.from_moments([0, big, 0])
        blob = json.dumps(measure_to_json(rep, 3))
        obj = json.loads(blob)
        assert obj["m"][1] == text and obj["jacobi"]["omega"] == [text]
        assert parse_measure(obj).moments(3) == (F(0), big, F(0))
