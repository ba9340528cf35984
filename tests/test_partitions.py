import itertools
import math
import random
from fractions import Fraction as F

import pytest

from freeconv import partitions as P
from freeconv.errors import InvalidParameter, OrderExceeded


class TestIntervalEnumeration:
    def test_single_element(self):
        assert P.compositions(1) == ((1,),)

    def test_three_elements(self):
        assert set(P.compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}

    def test_counts_double(self):
        for n in range(1, 13):
            assert len(P.compositions(n)) == 2 ** (n - 1)

    def test_cap(self):
        with pytest.raises(InvalidParameter):
            P.compositions(40)


class TestOddRefinements:
    def test_single_block_of_three(self):
        assert set(P.odd_refinements((3,))) == {(3,), (1, 1, 1)}

    def test_block_of_two_cannot_split(self):
        assert P.odd_refinements((2,)) == ((2,),)

    def test_product_over_blocks(self):
        assert P.odd_refinements((1, 2)) == ((1, 2),)
        assert set(P.odd_refinements((3, 3))) == {
            (3, 3),
            (3, 1, 1, 1),
            (1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1),
        }


class TestAlternatingSplit:
    def test_single_part(self):
        assert P.alternating_split((5,)) == ((5,), ())

    def test_three_parts(self):
        assert P.alternating_split((1, 2, 3)) == ((1, 3), (2,))

    def test_five_parts(self):
        assert P.alternating_split((2, 1, 1, 1, 2)) == ((2, 1, 2), (1, 1))

    def test_even_count_rejected(self):
        with pytest.raises(InvalidParameter, match="odd part count"):
            P.alternating_split((1, 2))


def coarsenings(pi):
    """All compositions obtained from pi by merging adjacent parts, one per
    bitmask of merged gaps: the enumeration that the prefix recursion of
    `inverse_boolean_cumulant` replaces, kept as its reference."""
    r = len(pi)
    out = []
    for mask in range(1 << (r - 1)):
        parts = []
        acc = pi[0]
        for pos in range(r - 1):
            if mask & (1 << pos):
                acc += pi[pos + 1]
            else:
                parts.append(acc)
                acc = pi[pos + 1]
        parts.append(acc)
        out.append(tuple(parts))
    return tuple(out)


def inverse_boolean_cumulant_reference(moments, pi):
    """Alternating sum of the moment function over the coarsenings of pi."""
    total = F(0)
    for sigma in coarsenings(pi):
        sign = -1 if (len(pi) - len(sigma)) % 2 else 1
        total += sign * P.moment_function(moments, sigma)
    return total


class TestMomentAndCumulantFunctions:
    def setup_method(self):
        rng = random.Random(17)
        self.m = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(12)]

    def test_single_block(self):
        assert P.moment_function(self.m, (5,)) == self.m[4]

    def test_product(self):
        assert P.moment_function(self.m, (2, 2)) == self.m[1] ** 2

    def test_order_guard(self):
        with pytest.raises(OrderExceeded):
            P.moment_function(self.m, (13,))

    def test_cumulant_one_part(self):
        assert P.inverse_boolean_cumulant(self.m, (4,)) == self.m[3]

    def test_cumulant_two_parts(self):
        n, k = 2, 3
        want = self.m[n - 1] * self.m[k - 1] - self.m[n + k - 1]
        assert P.inverse_boolean_cumulant(self.m, (n, k)) == want

    def test_cumulant_three_parts(self):
        n, mm, k = 1, 3, 2
        mj = lambda j: self.m[j - 1]
        want = (
            mj(n) * mj(mm) * mj(k)
            - mj(n + mm) * mj(k)
            - mj(n) * mj(mm + k)
            + mj(n + mm + k)
        )
        assert P.inverse_boolean_cumulant(self.m, (n, mm, k)) == want

    def test_mobius_duality(self):
        for n in range(1, 8):
            for sigma in P.compositions(n):
                total = sum(
                    (P.inverse_boolean_cumulant(self.m, pi) for pi in coarsenings(sigma)),
                    F(0),
                )
                assert total == P.moment_function(self.m, sigma)

    def test_cumulant_equals_the_enumeration_on_every_composition(self):
        # one call per composition, and one call per n for all of them
        for n in range(1, 11):
            want = tuple(inverse_boolean_cumulant_reference(self.m, pi) for pi in P.compositions(n))
            assert tuple(P.inverse_boolean_cumulant(self.m, pi) for pi in P.compositions(n)) == want
            assert P.inverse_boolean_cumulants(self.m, n) == want

    def test_coarsenings_of_small_compositions(self):
        assert coarsenings((2,)) == ((2,),)
        assert set(coarsenings((1, 2, 1))) == {(1, 2, 1), (3, 1), (1, 3), (4,)}
        assert len(coarsenings((1,) * 6)) == 2**5

    @pytest.mark.parametrize(
        "oracle, pi",
        [
            (P.moment_function, (0,)),
            (P.moment_function, (2, -1)),
            (P.inverse_boolean_cumulant, (0,)),
            (P.inverse_boolean_cumulant, (2, -1)),
        ],
    )
    def test_parts_below_one_rejected(self, oracle, pi):
        with pytest.raises(InvalidParameter):
            oracle(self.m, pi)

    def test_cumulant_order_guard_reads_the_whole_sum(self):
        # every part fits, their sum does not
        with pytest.raises(OrderExceeded):
            P.inverse_boolean_cumulant(self.m, (6, 7))
        with pytest.raises(OrderExceeded):
            P.inverse_boolean_cumulants(self.m, 13)
        assert P.inverse_boolean_cumulant(self.m, (6, 6)) == inverse_boolean_cumulant_reference(self.m, (6, 6))


def noncrossing_moment_sum(kappa, n):
    """m_1..m_n as the sum over non-crossing partitions of the product of
    kappa over the block sizes: the enumeration that the first-block
    recursion of `free_cumulants_from_moments` replaces, kept as its
    reference."""
    out = []
    for j in range(1, n + 1):
        total = F(0)
        for blocks in P.noncrossing_partitions(j):
            term = F(1)
            for b in blocks:
                term *= kappa[len(b) - 1]
            total += term
        out.append(total)
    return out


def orthogonal_moment_reference(mu, nu, pi):
    """The odd-refinement sum of `orthogonal_moment_combinatorial` on
    Fractions, each inverse boolean cumulant enumerated over its
    coarsenings: the reference for the graded-integer loop."""
    cumulants = {}
    total = F(0)
    for choice in P.odd_refinements_structured(pi):
        sign_exp = 0
        kfac = F(1)
        mfac = F(1)
        for parts in choice:
            odd_parts, even_parts = P.alternating_split(parts)
            sign_exp += len(odd_parts) - 1
            if odd_parts not in cumulants:
                cumulants[odd_parts] = inverse_boolean_cumulant_reference(mu, odd_parts)
            kfac *= cumulants[odd_parts]
            mfac *= P.moment_function(nu, even_parts)
        total += (-1 if sign_exp % 2 else 1) * kfac * mfac
    return total


class TestOrthogonalMomentFormula:
    def setup_method(self):
        rng = random.Random(23)
        self.mu = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(10)]
        self.nu = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(10)]

    def test_first_two_moments_come_from_left_factor(self):
        assert P.orthogonal_moment_combinatorial(self.mu, self.nu, (1,)) == self.mu[0]
        assert P.orthogonal_moment_combinatorial(self.mu, self.nu, (2,)) == self.mu[1]

    def test_third_moment_polynomial(self):
        want = self.mu[2] + (self.mu[1] - self.mu[0] ** 2) * self.nu[0]
        assert P.orthogonal_moment_combinatorial(self.mu, self.nu, (3,)) == want

    def test_symmetric_two_point_fourth_moment(self):
        bern = [F(0), F(1), F(0), F(1)]
        assert P.orthogonal_moment_combinatorial(bern, bern, (4,)) == 2

    def test_multiplicative_over_blocks(self):
        for pi in [(2, 3), (1, 1), (4, 2, 1)]:
            per_block = F(1)
            for part in pi:
                per_block *= P.orthogonal_moment_combinatorial(self.mu, self.nu, (part,))
            assert P.orthogonal_moment_combinatorial(self.mu, self.nu, pi) == per_block

    def test_one_scale_holds_both_factors(self):
        # mu's denominators are powers of 2 and nu's powers of 3, so a scale
        # fitted to one factor alone leaves the other's moments fractional
        mu = [F(1, 2), F(3, 4), F(-5, 8), F(7, 16), F(1, 2), F(-3, 32), F(5, 64), F(9, 128)]
        nu = [F(1, 3), F(-2, 9), F(4, 27), F(5, 81), F(-7, 3), F(2, 243)]
        for n in range(1, 9):
            assert P.orthogonal_moment_combinatorial(mu, nu, (n,)) == orthogonal_moment_reference(mu, nu, (n,))
        assert P.orthogonal_moment_combinatorial(mu, nu, (3, 5)) == orthogonal_moment_reference(mu, nu, (3, 5))


def block_depth(blocks, which):
    """One plus the number of blocks whose hull strictly contains the block."""
    lo, hi = min(blocks[which]), max(blocks[which])
    outer = 0
    for j, other in enumerate(blocks):
        if j != which and min(other) < lo and max(other) > hi:
            outer += 1
    return outer + 1


def depth_split_reference(blocks):
    """`_depth_split` by `block_depth`, one pass over all blocks per block:
    the reference for its stack of open block ends."""
    outer, inner = [], []
    for i, block in enumerate(blocks):
        depth = block_depth(blocks, i)
        if depth == 1:
            outer.append(block)
        elif depth == 2 and not (inner and inner[-1][-1] + 1 == block[0]):
            inner.append(block)
        else:
            return None
    return tuple(outer), tuple(inner)


def noncrossing_partitions_reference(n):
    """The first-block recursion of `noncrossing_partitions` on tuples of
    elements, with no memo and each merge sorted: the reference for the
    interval-memoized recursion."""

    def rec(elements):
        if not elements:
            return ((),)
        first, rest = elements[0], elements[1:]
        out = []
        for k in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, k):
                block = (first,) + chosen
                gaps = []
                bounds = block + (elements[-1] + 1,)
                for a, b in zip(bounds, bounds[1:]):
                    gaps.append(tuple(x for x in rest if a < x < b))
                for parts in itertools.product(*(rec(g) for g in gaps)):
                    merged = [block]
                    for p in parts:
                        merged.extend(p)
                    merged.sort(key=lambda blk: blk[0])
                    out.append(tuple(merged))
        return tuple(out)

    return rec(tuple(range(1, n + 1)))


class TestNonCrossing:
    def test_enumeration_equals_the_reference_recursion_in_order(self):
        for n in range(1, 11):
            assert P.noncrossing_partitions(n) == noncrossing_partitions_reference(n), n

    def test_depth_split_equals_the_block_depth_split(self):
        outcomes = set()
        for n in range(1, 11):
            for blocks in P.noncrossing_partitions(n):
                want = depth_split_reference(blocks)
                assert P._depth_split(blocks) == want, blocks
                if want is None:
                    outcomes.add("deeper" if max(block_depth(blocks, i) for i in range(len(blocks))) > 2 else "neighbours")
                else:
                    outcomes.add("split")
        # every branch of the split is reached
        assert outcomes == {"split", "deeper", "neighbours"}

    def test_catalan_counts(self):
        for n in range(1, 9):
            want = math.comb(2 * n, n) // (n + 1)
            assert len(P.noncrossing_partitions(n)) == want

    def test_first_block_recursion_equals_the_non_crossing_sum(self):
        rng = random.Random(31)
        m = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        kappa = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        assert noncrossing_moment_sum(P.free_cumulants_from_moments(m, 8), 8) == m
        assert list(P.moments_from_free_cumulants(kappa, 8)) == noncrossing_moment_sum(kappa, 8)

    def test_crossing_detected(self):
        assert not P.is_noncrossing([(1, 3), (2, 4)])
        assert P.is_noncrossing([(1, 4), (2, 3)])

    def test_depth(self):
        blocks = ((1, 6), (2, 5), (3, 4))
        assert max(block_depth(blocks, i) for i in range(len(blocks))) == 3

    def test_cumulant_roundtrip(self):
        rng = random.Random(29)
        m = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(9)]
        kappa = P.free_cumulants_from_moments(m, 9)
        assert list(P.moments_from_free_cumulants(kappa, 9)) == m

    def test_semicircle_cumulants(self):
        # variance-one semicircle has exactly one nonzero cumulant
        m = [F(x) for x in (0, 1, 0, 2, 0, 5, 0, 14)]
        kappa = P.free_cumulants_from_moments(m, 8)
        assert kappa == (F(0), F(1), F(0), F(0), F(0), F(0), F(0), F(0))


def decomposable_reference(outer, inner, n):
    """Whether blocks form a decomposable depth-2 partition, condition by
    condition: the validator that `decomposable_partition` replaced by one
    shared predicate, kept as its reference."""
    outer = [tuple(sorted(b)) for b in outer]
    inner = sorted(tuple(sorted(b)) for b in inner)
    blocks = outer + inner
    if not outer or () in blocks or sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        return False
    if not P.is_noncrossing(blocks):
        return False

    def depth(b):
        return 1 + sum(1 for o in blocks if o[0] < b[0] and o[-1] > b[-1])

    if any(depth(b) != 1 for b in outer) or any(depth(b) != 2 for b in inner):
        return False
    if any(b != tuple(range(b[0], b[-1] + 1)) for b in inner):
        return False
    return all(b[0] != a[-1] + 1 for a, b in zip(inner, inner[1:]))


class TestDecomposablePartitions:
    def test_smallest_cases(self):
        assert len(P.enumerate_D2(1)) == 1
        assert len(P.enumerate_D2(3)) == 5

    def test_counts_match_pair_index(self):
        for n in range(1, 8):
            assert len(P.enumerate_D2(n)) == len(P.enumerate_C(n))

    def test_fusion_bijection_roundtrip(self):
        for n in range(1, 8):
            seen = set()
            for pi in P.enumerate_D2(n):
                tau, sigma = P.bijection_f(pi)
                assert P.bijection_f_inverse(tau, sigma) == pi
                seen.add((tau, sigma))
            assert seen == set(P.enumerate_C(n))

    def test_worked_seventeen_element_example(self):
        pi = P.decomposable_partition(
            outer=[{1, 2, 5, 6, 9}, {10, 13, 17}],
            inner=[{3, 4}, {7, 8}, {11, 12}, {14, 15, 16}],
            n=17,
        )
        legs = [leg for block in pi.legs() for leg in block]
        assert legs == [(1, 2), (5, 6), (9,), (10,), (13,), (17,)]
        tau, sigma = P.bijection_f(pi)
        assert tau == (9, 8)
        assert sigma == (2, 2, 2, 2, 1, 1, 2, 1, 3, 1)
        assert P.bijection_f_inverse(tau, sigma) == pi

    def test_neighboring_inner_blocks_rejected(self):
        with pytest.raises(InvalidParameter):
            P.decomposable_partition(outer=[{1, 4, 5}], inner=[{2}, {3}], n=5)
        # with a separating outer element the same shape is fine
        P.decomposable_partition(outer=[{1, 3, 6}], inner=[{2}, {4, 5}], n=6)

    @pytest.mark.parametrize(
        "outer, inner, n",
        [
            ([{1, 5}], [{2, 4}, {3}], 5),  # inner block with a gap
            ([{1, 3}], [{2, 4}], 4),  # crossing blocks
            ([{1, 4}, {2, 3}], [], 4),  # outer block at depth 2
            ([{1, 2}], [{3}], 3),  # inner block at depth 1
            ([{1, 2}, ()], [], 2),  # empty block
            ([{1, 2}], [], 3),  # not a partition of {1..n}
        ],
    )
    def test_constructor_rejects(self, outer, inner, n):
        assert not decomposable_reference(outer, inner, n)
        with pytest.raises(InvalidParameter):
            P.decomposable_partition(outer, inner, n)

    @pytest.mark.parametrize(
        "tau, sigma",
        [((2, 1), (3,)), ((1, 1), (2,)), ((2,), (1, 0, 1)), ((1,), (1, -1, 1)), ((), ()), ((3,), (1, 2))],
    )
    def test_fusion_inverse_rejects_malformed_arguments(self, tau, sigma):
        with pytest.raises(InvalidParameter):
            P.bijection_f_inverse(tau, sigma)


class TestDecompositionPairs:
    def test_counts_match_triple_index(self):
        for n in range(1, 8):
            assert len(P.enumerate_DP2(n)) == len(P.enumerate_F(n))

    def test_grouping_bijection_roundtrip(self):
        for n in range(1, 8):
            seen = set()
            for pair in P.enumerate_DP2(n):
                m, sigma, j = P.bijection_g(pair)
                assert P.bijection_g_inverse(m, sigma, j, n) == pair
                seen.add((m, sigma, j))
            assert seen == set(P.enumerate_F(n))

    def test_single_outer_block_maps_to_trivial_triple(self):
        pi = P.decomposable_partition(outer=[{1, 2, 3, 4}], inner=[], n=4)
        pair = P.DecompositionPair(pi, ((1, 2, 3, 4),))
        assert P.bijection_g(pair) == (4, (4,), (0, 0, 0))

    def test_worked_seventeen_element_pair(self):
        pi = P.decomposable_partition(
            outer=[{1, 2, 5, 6, 9}, {10, 13, 17}],
            inner=[{3, 4}, {7, 8}, {11, 12}, {14, 15, 16}],
            n=17,
        )
        pair = P.DecompositionPair(pi, ((1, 2, 5, 6), (9,), (10, 13), (17,)))
        m, sigma, j = P.bijection_g(pair)
        assert m == 8
        assert sigma == (4, 1, 2, 1)
        assert j == (0, 2, 0, 2, 0, 2, 3)
        assert P.bijection_g_inverse(m, sigma, j, 17) == pair

    @pytest.mark.parametrize(
        "m, sigma, j, n",
        [
            (2, (3, -1), (0,), 2),
            (2, (2, 0), (0,), 2),
            (2, (0, 2), (0,), 2),
            (3, (3,), (2, -1), 4),
            (0, (), (), 0),
            (2, (2,), (0, 0), 4),
        ],
    )
    def test_grouping_inverse_rejects_malformed_arguments(self, m, sigma, j, n):
        with pytest.raises(InvalidParameter):
            P.bijection_g_inverse(m, sigma, j, n)
