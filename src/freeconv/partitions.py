"""Partition combinatorics behind the convolution identities.

Interval partitions of {1..n} are stored as compositions (tuples of part
sizes), which is what every formula here actually consumes.  On top of
that sit the depth-2 non-crossing "bridge" partitions, the two bijections
that index them, and the combinatorial formula that computes moments of
the orthogonal convolution without touching series at all -- the
independent oracle for :mod:`freeconv.convolve`.  It grades its moments
once, and :func:`orthogonal_moments_combinatorial` runs its graded core on
every order 1..n with one grading and one memo of inverse boolean
cumulants; :func:`inverse_boolean_cumulants` likewise gives the cumulants
of every composition of n from one grading.  The free cumulants, the other
oracle, come from the first-block recursion of non-crossing partitions.

The depth-2 family has one definition, :func:`_depth_split`, which both the
enumeration and the public constructor :func:`decomposable_partition` read;
it takes every block's depth in one pass, from a stack of the open blocks'
ends.  Validation happens at that constructor only.  The bijection inverses
check their arguments in O(n) and build their results by construction.

Enumerations grow like 2**(n-1) or the Catalan numbers, so they are
guarded at small n.  The non-crossing partitions split at the block of the
first element, whose gaps are intervals, and each interval is enumerated
once per call.  The free cumulants enumerate nothing: the recursion runs at
any order in O(n**3) products.

The oracle loops (inverse boolean cumulants, the orthogonal moment and the
first-block recursion) run on ints.  Every quantity in them is homogeneous
in the moment order, so the moments enter graded at one dilation scale c
fitted per call, m_k * c**k (:func:`freeconv.series._graded`), no entry is
rescaled inside a loop, and a result of order n is divided by c**n once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from operator import mul

from .errors import InvalidParameter, OrderExceeded
from .series import _frac, _graded, _powers

Composition = tuple[int, ...]
Block = tuple[int, ...]

MAX_ENUM_N = 12


def _check_n(n: int, limit: int = MAX_ENUM_N) -> None:
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if n > limit:
        raise InvalidParameter(f"enumeration capped at n <= {limit}, got {n}")


def _check_parts(parts: Sequence[int]) -> None:
    if min(parts, default=1) < 1:
        raise InvalidParameter(f"parts must be >= 1, got {tuple(parts)}")


# ---------------------------------------------------------------------------
# Interval partitions as compositions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[Composition, ...]:
    """All 2**(n-1) compositions of n, ordered by their cut bitmask."""
    _check_n(n, limit=16)
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        size = 1
        for pos in range(n - 1):
            if mask & (1 << pos):
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return tuple(out)


@lru_cache(maxsize=None)
def odd_compositions(n: int) -> tuple[Composition, ...]:
    return tuple(c for c in compositions(n) if len(c) % 2 == 1)


def odd_refinements_structured(pi: Composition) -> tuple[tuple[Composition, ...], ...]:
    """Per-part refinements of pi where every part splits into an odd count."""
    return tuple(product(*(odd_compositions(part) for part in pi)))


def odd_refinements(pi: Composition) -> tuple[Composition, ...]:
    """Refinements of pi splitting each part into an odd number of parts."""
    out = []
    for choice in odd_refinements_structured(pi):
        flat: list[int] = []
        for parts in choice:
            flat.extend(parts)
        out.append(tuple(flat))
    return tuple(out)


def alternating_split(c: Composition) -> tuple[Composition, Composition]:
    """Parts at odd positions and parts at even positions (1-based)."""
    if len(c) % 2 == 0:
        raise InvalidParameter(f"alternating split needs an odd part count, got {len(c)}")
    return tuple(c[0::2]), tuple(c[1::2])


def moment_function(moments: Sequence[Fraction], pi: Composition) -> Fraction:
    """Product of moments over the parts of pi."""
    _check_parts(pi)
    out = Fraction(1)
    for part in pi:
        if part > len(moments):
            raise OrderExceeded(f"moment of order {part} not available")
        out *= _frac(moments[part - 1])
    return out


def inverse_boolean_cumulant(moments: Sequence[Fraction], pi: Composition) -> Fraction:
    """Alternating sum of the moment function over coarsenings of pi.

    A coarsening merges runs of adjacent parts, with sign (-1) to the number
    of merges, so the sum splits at the start of its last run: with f[j] the
    sum over the first j parts, f[j] = sum over i < j of (-1)**(j - i - 1)
    f[i] m(pi[i] + ... + pi[j - 1]).  That is O(r**2) products for r parts
    where the coarsenings number 2**(r - 1).
    """
    _check_parts(pi)
    order = sum(pi)
    if order > len(moments):
        raise OrderExceeded(f"moment of order {order} not available")
    c, a = _graded([_frac(x) for x in moments[:order]])
    return Fraction(_inverse_boolean_graded(a, pi), c**order)


def inverse_boolean_cumulants(moments: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """The values of :func:`inverse_boolean_cumulant` on every composition
    of n, in :func:`compositions` order, from one grading of the moments."""
    if n > len(moments):
        raise OrderExceeded(f"moment of order {n} not available")
    c, a = _graded([_frac(x) for x in moments[:n]])
    p = c**n
    return tuple(Fraction(_inverse_boolean_graded(a, pi), p) for pi in compositions(n))


def _inverse_boolean_graded(a: Sequence[int], pi: Composition) -> int:
    """The prefix recursion of :func:`inverse_boolean_cumulant` on moments
    graded at a scale c, a[k - 1] = m_k * c**k: every f[j] has degree
    pi[0] + ... + pi[j - 1], so the result is the cumulant times c**sum(pi)."""
    f = [1]
    for j in range(1, len(pi) + 1):
        acc = 0
        size = 0
        for i in range(j - 1, -1, -1):
            size += pi[i]
            if (j - i) % 2:
                acc += f[i] * a[size - 1]
            else:
                acc -= f[i] * a[size - 1]
        f.append(acc)
    return f[-1]


def signed_interval_moment_sum(moments: Sequence[Fraction], n: int) -> Fraction:
    """Sum over all compositions of n of (-1)**parts times the moment product.

    Brute-force value of the coefficient of z**(-n+1) in F(z) - z, which is
    K(z) = z - F(z) negated; used as the oracle for
    :func:`freeconv.series.moments_to_K`.
    """
    total = Fraction(0)
    for pi in compositions(n):
        sign = -1 if len(pi) % 2 else 1
        total += sign * moment_function(moments, pi)
    return total


def orthogonal_moment_combinatorial(
    mu: Sequence[Fraction], nu: Sequence[Fraction], pi: Composition
) -> Fraction:
    """Moment of the orthogonal convolution on pi, by partition enumeration.

    Sums over refinements that split each part of pi into an odd number of
    subparts; within each part the odd-position subparts feed the inverse
    boolean cumulants of mu and the even-position subparts feed plain
    moments of nu, with sign (-1)**(#odd-position parts - #parts of pi).

    A part p reads mu up to order p and, from p = 3 on, nu up to order
    p - 2 (the refinement 1, p - 2, 1).  Both are graded at one scale c
    (:func:`_orthogonal_grading`), and every term on pi has degree sum(pi)
    in it (:func:`_orthogonal_graded`).
    """
    refinements = odd_refinements_structured(pi)
    c, a, b = _orthogonal_grading(mu, nu, max(pi, default=0))
    return Fraction(_orthogonal_graded(a, b, refinements, {}), c ** sum(pi))


def orthogonal_moments_combinatorial(
    mu: Sequence[Fraction], nu: Sequence[Fraction], n: int
) -> tuple[Fraction, ...]:
    """The first n moments of the orthogonal convolution, the values of
    :func:`orthogonal_moment_combinatorial` on (1,), ..., (n,), with one
    grading of the moments and one memo of inverse boolean cumulants for
    all n orders.  It refuses what the call on (n,) refuses."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    refinements = [odd_refinements_structured((k,)) for k in range(1, n + 1)]
    c, a, b = _orthogonal_grading(mu, nu, n)
    cumulants: dict[Composition, int] = {}
    return tuple(
        Fraction(_orthogonal_graded(a, b, r, cumulants), p)
        for r, p in zip(refinements, _powers(c, 1))
    )


def _orthogonal_grading(
    mu: Sequence[Fraction], nu: Sequence[Fraction], top: int
) -> tuple[int, list[int], list[int]]:
    """(c, a, b): mu up to order top and nu up to order top - 2, graded at
    one scale c, a[k - 1] = mu_k * c**k and b[k - 1] = nu_k * c**k."""
    for moments, order in ((mu, top), (nu, top - 2)):
        if order > len(moments):
            raise OrderExceeded(f"moment of order {order} not available")
    return _graded([_frac(x) for x in mu[:top]], [_frac(x) for x in nu[: max(top - 2, 0)]])


def _orthogonal_graded(
    a: Sequence[int],
    b: Sequence[int],
    refinements: Iterable[tuple[Composition, ...]],
    cumulants: dict[Composition, int],
) -> int:
    """The odd-refinement sum of :func:`orthogonal_moment_combinatorial` on
    graded moments, times c**sum(pi).  ``cumulants`` memoizes the graded
    inverse boolean cumulant of mu on each odd-position composition; it
    holds for any pi at the scale of a."""
    total = 0
    for choice in refinements:
        sign_exp = 0
        term = 1
        for parts in choice:
            odd_parts, even_parts = alternating_split(parts)
            sign_exp += len(odd_parts) - 1
            if odd_parts not in cumulants:
                cumulants[odd_parts] = _inverse_boolean_graded(a, odd_parts)
            term *= cumulants[odd_parts]
            for p in even_parts:
                term *= b[p - 1]
        total += -term if sign_exp % 2 else term
    return total


# ---------------------------------------------------------------------------
# Non-crossing partitions
# ---------------------------------------------------------------------------

def is_noncrossing(blocks: Iterable[Block]) -> bool:
    """No i < k < j < l with i,j and k,l in different blocks."""
    blocks = [tuple(sorted(b)) for b in blocks]
    for a, b in combinations(blocks, 2):
        for i, j in combinations(a, 2):
            if any(i < k < j for k in b) and any(k < i or k > j for k in b):
                return False
    return True


@lru_cache(maxsize=None)
def noncrossing_partitions(n: int) -> tuple[tuple[Block, ...], ...]:
    """All non-crossing partitions of {1..n}, blocks sorted by minimum."""
    _check_n(n)
    memo: dict[tuple[int, int], tuple[tuple[Block, ...], ...]] = {}

    def rec(lo: int, hi: int) -> tuple[tuple[Block, ...], ...]:
        """The partitions of lo..hi: the block of lo with each choice of its
        other elements, times the partitions of the gaps it leaves."""
        if lo > hi:
            return ((),)
        if (lo, hi) in memo:
            return memo[lo, hi]
        out = []
        for k in range(hi - lo + 1):
            for chosen in combinations(range(lo + 1, hi + 1), k):
                block = (lo,) + chosen
                bounds = block + (hi + 1,)
                # the gaps follow the block's minimum in order, so the merged
                # blocks are already sorted by minimum
                for parts in product(*(rec(a + 1, b - 1) for a, b in zip(bounds, bounds[1:]))):
                    out.append((block, *chain.from_iterable(parts)))
        memo[lo, hi] = result = tuple(out)
        return result

    return rec(1, n)


# ---------------------------------------------------------------------------
# Free cumulants by the first-block recursion
# ---------------------------------------------------------------------------

def _power_rows(m: list[int], n: int) -> Iterator[list[int]]:
    """Rows k = 1..n of the power table of M(z) = m[0] + m[1] z + ..., m[0] = 1:
    row k lists [z**(k - s)] M(z)**s for s = 1..k.

    The entries are ints graded at one scale c, m[i] the i-th coefficient
    times c**i: [z**i] M(z)**s then has degree i, so no entry is rescaled.
    Only the triangle i <= n - s of [z**i] M(z)**s is built, each entry from
    M**s = M * M**(s - 1), so O(n**3 / 6) products in all.  Row k reads
    m[:k] only, so a caller may append m[k] after it has row k.
    """
    table = [m]  # table[s - 1][i] = [z**i] M(z)**s
    for k in range(1, n + 1):
        for s in range(2, k):
            prev, i = table[s - 2], k - s
            table[s - 1].append(prev[i] + sum(map(mul, m[1 : i + 1], prev[i - 1 :: -1])))
        if k > 1:
            table.append([1])
        yield [row[k - s] for s, row in enumerate(table, 1)]


def free_cumulants_from_moments(moments: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """First n free cumulants, inverting m_k = sum over s of kappa_s [z**(k - s)] M(z)**s.

    That is M(z) = 1 + sum kappa_s z**s M(z)**s, the sum over non-crossing
    partitions split at the block of 1 (Nica & Speicher, Lectures on the
    Combinatorics of Free Probability, Lect. 10).  kappa_k has degree k, so
    the recursion runs on moments and cumulants graded at one scale.
    """
    if n > len(moments):
        raise OrderExceeded(f"need {n} moments, have {len(moments)}")
    c, m = _graded([_frac(x) for x in moments[:n]])
    m.insert(0, 1)
    kappa: list[int] = []
    for k, row in enumerate(_power_rows(m, n), 1):
        kappa.append(m[k] - sum(map(mul, kappa, row)))
    return tuple(map(Fraction, kappa, _powers(c, 1)))


def moments_from_free_cumulants(kappa: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """First n moments from free cumulants by the first-block recursion."""
    if n > len(kappa):
        raise OrderExceeded(f"need {n} cumulants, have {len(kappa)}")
    c, k = _graded([_frac(x) for x in kappa[:n]])
    m = [1]
    for row in _power_rows(m, n):
        m.append(sum(map(mul, k, row)))
    return tuple(map(Fraction, m[1:], _powers(c, 1)))


# ---------------------------------------------------------------------------
# Decomposable depth-2 partitions and their two indexings
# ---------------------------------------------------------------------------

class DecomposablePartition(namedtuple("DecomposablePartition", "outer inner n")):
    """Depth-<=2 non-crossing partition of 1..n split into outer and inner
    blocks, each a tuple of blocks.

    Outer blocks have depth 1, inner blocks depth 2, and consecutive inner
    blocks are separated by at least one outer element.
    """

    __slots__ = ()

    def legs(self) -> tuple[tuple[Block, ...], ...]:
        """Maximal runs of consecutive integers within each outer block."""
        out = []
        for block in self.outer:
            runs: list[list[int]] = [[block[0]]]
            for x in block[1:]:
                if x == runs[-1][-1] + 1:
                    runs[-1].append(x)
                else:
                    runs.append([x])
            out.append(tuple(tuple(r) for r in runs))
        return tuple(out)


def _depth_split(blocks: Sequence[Block]) -> tuple[tuple[Block, ...], tuple[Block, ...]] | None:
    """Outer (depth 1) and inner (depth 2) blocks of a non-crossing partition
    whose blocks are sorted by minimum, or None when a block lies deeper or
    two inner blocks are neighbours.  This is the one definition of the
    decomposable family.  The inner blocks it returns are intervals: a gap
    in one would hold a block of depth 3."""
    outer: list[Block] = []
    inner: list[Block] = []
    # maxima of the blocks whose hulls hold the current minimum, innermost
    # last: with no crossing, those hulls hold the whole block, so their
    # count is its depth less one
    ends: list[int] = []
    for block in blocks:
        while ends and ends[-1] < block[0]:
            ends.pop()
        if not ends:
            outer.append(block)
        elif len(ends) == 1 and not (inner and inner[-1][-1] + 1 == block[0]):
            inner.append(block)
        else:
            return None
        ends.append(block[-1])
    return tuple(outer), tuple(inner)


def decomposable_partition(
    outer: Iterable[Iterable[int]], inner: Iterable[Iterable[int]], n: int
) -> DecomposablePartition:
    outer_t = tuple(sorted(tuple(sorted(b)) for b in outer))
    inner_t = tuple(sorted(tuple(sorted(b)) for b in inner))
    if not outer_t:
        raise InvalidParameter("need at least one outer block")
    # disjoint non-empty blocks sort by their minimum
    blocks = sorted(outer_t + inner_t)
    if () in blocks or sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        raise InvalidParameter("blocks must partition {1..n}")
    if not is_noncrossing(blocks):
        raise InvalidParameter("blocks cross")
    if _depth_split(blocks) != (outer_t, inner_t):
        raise InvalidParameter("outer blocks need depth 1, inner blocks depth 2 and no neighbours")
    return DecomposablePartition(outer_t, inner_t, n)


@lru_cache(maxsize=None)
def enumerate_D2(n: int) -> tuple[DecomposablePartition, ...]:
    """All decomposable depth-2 partitions of {1..n}, filtered from the
    full non-crossing family (the independent route, kept separate from
    the bijection-based construction so the two can cross-check)."""
    _check_n(n, limit=10)
    splits = (_depth_split(blocks) for blocks in noncrossing_partitions(n))
    return tuple(DecomposablePartition(*split, n) for split in splits if split is not None)


def bijection_f(pi: DecomposablePartition) -> tuple[Composition, Composition]:
    """Fuse each outer block with its inner blocks into one part of tau and
    record, inside each fused part, the run lengths of alternating outer
    legs and inner blocks (an odd refinement sigma of tau).  The gap between
    two legs of an outer block is exactly one inner block, so the legs alone
    give sigma."""
    tau = []
    sigma = []
    for block, legs in zip(pi.outer, pi.legs()):
        tau.append(block[-1] - block[0] + 1)
        sigma.append(len(legs[0]))
        for before, leg in zip(legs, legs[1:]):
            sigma += (leg[0] - before[-1] - 1, len(leg))
    return tuple(tau), tuple(sigma)


def bijection_f_inverse(tau: Composition, sigma: Composition) -> DecomposablePartition:
    """Rebuild the partition whose fused hulls are tau and whose alternating
    run lengths are sigma, decomposable by construction once sigma cuts
    each part of tau into an odd number of positive runs."""
    n = sum(tau)
    if min(tau, default=0) < 1 or min(sigma, default=0) < 1 or sum(sigma) != n:
        raise InvalidParameter("tau and sigma must be compositions of one n")
    outer: list[Block] = []
    inner: list[Block] = []
    runs = iter(sigma)
    pos = 1
    for part in tau:
        end = pos + part
        block: list[int] = []
        count = 0
        while pos < end:
            run = tuple(range(pos, pos + next(runs)))
            if count % 2:
                inner.append(run)
            else:
                block.extend(run)
            pos += len(run)
            count += 1
        if pos != end:
            raise InvalidParameter("sigma must refine tau")
        if count % 2 == 0:
            raise InvalidParameter("each part of tau needs an odd number of runs")
        outer.append(tuple(block))
    return DecomposablePartition(tuple(outer), tuple(inner), n)


def enumerate_C(n: int) -> tuple[tuple[Composition, Composition], ...]:
    """Pairs (tau, sigma) with sigma an odd refinement of tau."""
    out = []
    for tau in compositions(n):
        for sigma in odd_refinements(tau):
            out.append((tau, sigma))
    return tuple(out)


class DecompositionPair(namedtuple("DecompositionPair", "pi eta_outer")):
    """A decomposable partition `pi` together with an admissible regrouping
    `eta_outer` of its outer elements, a tuple of blocks: cuts are allowed
    only between legs, never inside a run of consecutive integers."""

    __slots__ = ()


def enumerate_DP2(n: int) -> tuple[DecompositionPair, ...]:
    _check_n(n, limit=10)
    out = []
    for pi in enumerate_D2(n):
        per_block_choices = []
        for legs in pi.legs():
            choices = []
            for grouping in compositions(len(legs)):
                blocks = []
                at = 0
                for g in grouping:
                    blocks.append(tuple(chain.from_iterable(legs[at : at + g])))
                    at += g
                choices.append(tuple(blocks))
            per_block_choices.append(choices)
        # outer blocks have disjoint hulls, so their groups are already in order
        for combo in product(*per_block_choices):
            out.append(DecompositionPair(pi, tuple(chain.from_iterable(combo))))
    return tuple(out)


def bijection_g(pair: DecompositionPair) -> tuple[int, Composition, tuple[int, ...]]:
    """Triple (m, sigma, j): outer element count, sizes of the regrouped
    outer blocks, and the inner-block size following each outer element
    (the last element closes the diagram and is not counted)."""
    pi = pair.pi
    outer_elems = sorted(x for b in pi.outer for x in b)
    m = len(outer_elems)
    sigma = tuple(len(b) for b in pair.eta_outer)
    inner_start = {b[0]: len(b) for b in pi.inner}
    j = []
    for elem in outer_elems[:-1]:
        j.append(inner_start.get(elem + 1, 0))
    return m, sigma, tuple(j)


def bijection_g_inverse(
    m: int, sigma: Composition, j: Sequence[int], n: int
) -> DecompositionPair:
    """Rebuild the pair from its triple: place the outer elements with the
    prescribed gaps, regroup them by sigma, then merge groups that sit on
    the two sides of an inner block.  Once the triple is checked, the pair
    is decomposable and admissible by construction."""
    if min(sigma, default=0) < 1 or min(j, default=0) < 0:
        raise InvalidParameter("sigma needs positive parts and j non-negative ones")
    if sum(sigma) != m or len(j) != m - 1 or m + sum(j) != n:
        raise InvalidParameter("inconsistent triple")
    positions = []
    inner: list[Block] = []
    pos = 1
    for gap in (*j, 0):
        positions.append(pos)
        if gap:
            inner.append(tuple(range(pos + 1, pos + 1 + gap)))
        pos += 1 + gap
    # regroup outer elements by sigma; outer blocks are runs of groups: a
    # group joins the previous block when an inner block separates them
    eta: list[Block] = []
    outer: list[list[int]] = []
    at = 0
    for size in sigma:
        group = positions[at : at + size]
        eta.append(tuple(group))
        if at and j[at - 1]:
            outer[-1].extend(group)
        else:
            outer.append(group)
        at += size
    pi = DecomposablePartition(tuple(map(tuple, outer)), tuple(inner), n)
    return DecompositionPair(pi, tuple(eta))


def nonneg_compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        return ((),) if total == 0 else ()
    # stars and bars: the parts - 1 bars sit among total + parts - 1 slots
    return tuple(
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))
        for bars in combinations(range(total + parts - 1), parts - 1)
    )


def enumerate_F(n: int) -> tuple[tuple[int, Composition, tuple[int, ...]], ...]:
    """Triples (m, sigma, j) with sigma a composition of m and j a tuple of
    m-1 non-negative integers summing to n - m."""
    out = []
    for m in range(1, n + 1):
        for sigma in compositions(m):
            for j in nonneg_compositions(n - m, m - 1):
                out.append((m, sigma, j))
    return tuple(out)
