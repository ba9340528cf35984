"""The package's exact coefficient kernel: truncated series in w = 1/z
and polynomials in z, both as rational coefficient vectors.

A :class:`TailSeries` stores rational coefficients c0..cN of the value
c0 + c1/z + ... + cN/z**N.  The transforms used throughout the package
(z*G and K = z - F) have this shape near infinity, and the identities
between them hold coefficient by coefficient.  K is the one transform the
package converts to and from: :func:`moments_to_K` and :func:`K_to_moments`
are the one path between a measure's moments and its K.  Floating point
only appears in the analytic evaluators of :mod:`freeconv.measures`.

The loops run on ints graded by a scale c (a dilation): coefficient k of
weight k + h is A_k / c**(k + h), h = 1 for K and 0 for z*G, and alpha
and omega enter as alpha * c and omega * c**2.  For each value x of
weight w with r = c**w mod den(x) != 0, c becomes c * den(x) / gcd(den(x),
r), a multiple of the least clearing dilation that divides the lcm of the
denominators; two scales meet at their lcm.  A series holds its
coefficients as Fractions and, once the kernel has read it, the graded form
fitted to those coefficients (``_scaled()``), so a series read again, such
as a measure's K view or continued fraction, is not fitted again.  A call
returns Fractions and no form: a result fits its own when it is first read,
so it is read at the scale its own coefficients need, not at the lcm of the
inputs it came from.  :func:`K_to_moments` reads a result's moments straight
off its form.  The partition oracles grade their moment lists by the same
fit (:func:`_graded`).

Series are immutable, the form being a cache of their coefficients; every
operation returns a fresh series truncated at the common order of its
inputs.

Every composition runs in one lazy solver, ``_coupled(outers, mix,
shifts)``: unknowns x_i = outers[i](z - shifts[i] - sum_j mix[i][j] * x_j),
grown together one coefficient at a time, since coefficient k of each reads
its inner only up to index k - 2 (the relaxed series of van der Hoeven,
2002).  :func:`substitute_into_shifted` is its one-unknown row, mix [[0]]
with the inner as shift, and the s-free halves u = K_mu(z - v), v = K_nu(z -
u) are its two-unknown row ((0, 1), (1, 0)).  It steps two kinds of outer: a
:class:`TailSeries` through the table of powers (z - inner)**-j, O(N**3) for
N coefficients, and a :class:`ContinuedFraction` through its levels, one
online reciprocal 1/(z - X) each, O(d * N**2) for d levels.  The same
recurrence for 1/(z - x) inverts a series and reads moments off a K.

The ``poly_*`` helpers work on ascending coefficient lists in z, trimmed
of trailing zeros: the numerators and denominators of continued-fraction
approximants and their cross-multiplication checks.  A polynomial product
and a series product are the same Cauchy product, computed by one loop
(:func:`_cauchy`) that stops at the requested degree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import gcd, lcm
from operator import add, mul, sub

from .errors import InvalidParameter

Rational = int | Fraction


def _frac(x) -> Fraction:
    """The one reader of a rational outside JSON: a Fraction as it is, an
    int that is not a bool as a Fraction; anything else, a float, a string
    or a complex included, is refused, not converted."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        raise InvalidParameter("floats are not accepted where exact rationals are required")
    raise InvalidParameter(f"rationals must be ints or Fractions, got {x!r}")


def _cauchy(a: Sequence[Rational], b: Sequence[Rational], n: int) -> list[Fraction]:
    """Coefficients 0..n of the product of two ascending coefficient vectors,
    entries beyond either vector's end read as zero."""
    last_a, last_b = len(a) - 1, len(b) - 1
    return [
        sum((a[i] * b[k - i] for i in range(max(0, k - last_b), min(k, last_a) + 1)), Fraction(0))
        for k in range(n + 1)
    ]


def _fit(c: int, weighted: Iterable[tuple[Rational, int]]) -> int:
    """A multiple of c making x * c**w an integer for each x of weight w > 0
    (from c = 1 at most the lcm of the denominators, not always the least)."""
    for x, w in weighted:
        d = x.denominator
        r = pow(c, w, d)
        if r:
            c = c * d // gcd(d, r)
    return c


def _times(x: Rational, p: int) -> int:
    """x * p, which must be an integer."""
    q, r = divmod(p, x.denominator)
    if r:
        raise ValueError(f"{x} * {p} is not an integer")
    return x.numerator * q


def _powers(c: int, h: int) -> Iterator[int]:
    """c**h, c**(h + 1), c**(h + 2), ... as a running product."""
    return accumulate(repeat(c), mul, initial=c**h)


def _graded(*seqs: Sequence[Rational], h: int = 1) -> tuple:
    """(c, A, B, ...) at one scale c fitted to every sequence given: entry k
    of each, of weight k + h, is A[k] / c**(k + h)."""
    c = 1
    for xs in seqs:
        c = _fit(c, zip(xs, count(h)))
    return (c, *([_times(x, p) for x, p in zip(xs, _powers(c, h))] for xs in seqs))


class TailSeries:
    """Immutable truncated series in 1/z with exact rational coefficients."""

    __slots__ = ("coeffs", "_form")

    def __init__(self, coeffs: Iterable[Rational]):
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise InvalidParameter("a series needs at least its constant term")
        self.coeffs, self._form = coeffs, None

    @classmethod
    def _of(cls, coeffs: tuple[Fraction, ...]) -> "TailSeries":
        out = object.__new__(cls)
        out.coeffs, out._form = coeffs, None
        return out

    @classmethod
    def _from_ints(cls, c: int, h: int, ints: Sequence[int]) -> "TailSeries":
        return cls._of(tuple(map(Fraction, ints, _powers(c, h))))

    def _scaled(self) -> tuple[int, list[int]]:
        """(c, A) at a scale c fitted to these coefficients, once: coefficient
        k, of weight k + 1 as in K, is A[k] / c**(k + 1).  Every
        reader gets the same list, and only reads it."""
        if self._form is None:
            self._form = _graded(self.coeffs)
        return self._form

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TailSeries":
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def constant(cls, value: Rational, order: int) -> "TailSeries":
        return cls((_frac(value),) + (Fraction(0),) * order)

    def truncate(self, order: int) -> "TailSeries":
        return self if order >= self.order else TailSeries._of(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return f"TailSeries({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TailSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self) -> "TailSeries":
        return TailSeries._of(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TailSeries") -> "TailSeries":
        return TailSeries._of(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TailSeries") -> "TailSeries":
        return TailSeries._of(tuple(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "TailSeries":
        if isinstance(other, TailSeries):
            return TailSeries(_cauchy(self.coeffs, other.coeffs, min(self.order, other.order)))
        return TailSeries(tuple(c * _frac(other) for c in self.coeffs))

    def reciprocal(self) -> "TailSeries":
        """Series b with self * b == 1 up to the truncation order: the monic
        self / c0 = 1 + a_1/z + ... is inverted in graded form as z/(z - x),
        x = -(a_1 + a_2/z + ...), then divided by c0 once."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise InvalidParameter("cannot invert a series with zero constant term")
        c, a = _graded(self.coeffs if a0 == 1 else [x / a0 for x in self.coeffs], h=0)
        b = TailSeries._from_ints(c, 0, _reciprocal_coeffs([-x for x in a[1:]], len(a) + 1)[1:])
        return b if a0 == 1 else TailSeries(x / a0 for x in b.coeffs)


def _next_reciprocal_coeff(t: list[int], x: Sequence[int]) -> None:
    """Append coefficient k = len(t) of t = 1/(z - x(z)): t_0 = 0, t_1 = 1,
    t_k = sum_{i <= k-2} x_i * t_{k-1-i} (weight k - 1).  It depends on x only
    up to index k - 2, so x may still be growing (van der Hoeven 2002): the
    product with x_(k-1), where x already holds it, is by t_0 = 0."""
    k = len(t)
    t.append(k if k < 2 else sum(map(mul, x, reversed(t))))


def _reciprocal_coeffs(x: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n - 1 of 1/(z - x(z)), x read at weight k + 1 for entry k."""
    t: list[int] = []
    for _ in range(n):
        _next_reciprocal_coeff(t, x)
    return t


class ContinuedFraction:
    """K(z) = alpha_0 + omega_0/(z - alpha_1 - omega_1/(z - ...)) to ``order``
    in 1/z, with levels[i] = (alpha_i, omega_i); below the last level comes
    the constant tail (a, b), T = 1/(z - a - b*T), or nothing."""

    __slots__ = ("levels", "tail", "order", "_form")

    def __init__(
        self,
        levels: Sequence[tuple[Fraction, Fraction]],
        tail: tuple[Fraction, Fraction] | None,
        order: int,
    ):
        self.levels, self.tail, self.order, self._form = levels, tail, order, None

    def at_order(self, order: int) -> "ContinuedFraction":
        """The same fraction read to another order, sharing its fitted form."""
        if order == self.order:
            return self
        out = ContinuedFraction(self.levels, self.tail, order)
        out._form = self._scaled()
        return out

    def _scaled(self) -> tuple[int, list[tuple[int, int]]]:
        """(c, [(alpha * c, omega * c**2), ...]) of levels and tail at a c
        fitted to them, once."""
        if self._form is None:
            pairs = [*self.levels, *([self.tail] if self.tail else [])]
            c = _fit(1, ((x, w) for pair in pairs for x, w in zip(pair, (1, 2))))
            self._form = c, [(_times(a, c), _times(w, c * c)) for a, w in pairs]
        return self._form


Outer = TailSeries | ContinuedFraction


def _regraded(form: tuple[int, list[int]], c: int) -> list[int]:
    """A K-series form (s, A) read at a scale c that s divides."""
    return list(map(mul, form[1], _powers(c // form[0], 1)))


def _table_steps(outer: TailSeries, c: int, inner: Sequence[int]) -> Iterator[int]:
    """Coefficients of outer = sum_j a_j / z**j at z - inner(z), graded at
    c, from the table powers[j - 1][k] = [z**-k] (z - inner(z))**-j, O(k**2)
    work each.

    Coefficient k adds column k: the table then has rows j = 1..k, each with
    entries 0..k, of weight k - j.  Row 1 is t = 1/(z - inner), grown by
    :func:`_next_reciprocal_coeff`; row j is row j - 1 times row 1.  Column
    k reads inner only up to index k - 2.
    """
    a = _regraded(outer._scaled(), c)
    powers: list[list[int]] = []
    yield a[0]
    for k in count(1):
        powers.append([0] * k)
        t = powers[0]
        _next_reciprocal_coeff(t, inner)
        for j in range(2, k + 1):
            powers[j - 1].append(sum(map(mul, powers[j - 2][j - 1 : k], t[k - j + 1 : 0 : -1])))
        yield sum(map(mul, a[1 : k + 1], [row[k] for row in powers]))


def _fraction_steps(outer: ContinuedFraction, c: int, inner: Sequence[int]) -> Iterator[int]:
    """Coefficients of the fraction at z - inner(z), graded at c: alpha_0 +
    omega_0 * L_1, where level i is L_i = 1/(z - X_i), X_i = inner + alpha_i
    + omega_i * L_{i+1}, and the tail level is its own L_{i+1}.  Coefficient
    k of L_i reads inner and L_{i+1} only up to index k - 2: O(k) work per
    level."""
    m = c // outer._scaled()[0]
    (alpha0, omega0), *chain = [(a * m, w * m * m) for a, w in outer._scaled()[1]]
    ts: list[list[int]] = [[0] for _ in chain]
    xs: list[list[int]] = [[] for _ in chain]
    below = ts[1:] + [ts[-1] if outer.tail else None]
    yield alpha0
    for k in count(1):
        if k >= 2:
            j = k - 2
            for (alpha, omega), x, deeper in zip(chain, xs, below):
                xj = inner[j] + alpha if j == 0 else inner[j]
                x.append(xj + omega * deeper[j] if deeper else xj)
        for t, x in zip(ts, xs):
            _next_reciprocal_coeff(t, x)
        yield omega0 * ts[0][k] if ts else 0


def _coupled(outers: Sequence[Outer], mix: Sequence[Sequence[int]], shifts: Sequence) -> list[TailSeries]:
    """The unknowns x_i = outers[i](z - shifts[i] - sum_j mix[i][j] * x_j), a
    shift being a :class:`TailSeries` or None for 0, truncated at the common
    order of the outers and the given shifts.  All grow together, one
    coefficient at a time and at one scale, the lcm of their forms':
    coefficient k of x_i reads its inner only up to index k - 2, which the
    unknowns already hold.  An inner that is one unknown alone is read as it
    is, and a given shift needs no work past its grading; any other inner
    adds its nonzero mix entries once per coefficient."""
    inputs = [*outers, *filter(None, shifts)]
    c = lcm(*(x._scaled()[0] for x in inputs))
    n = min(x.order for x in inputs) + 1
    xs, sums, steps = [[] for _ in outers], [], []
    for outer, row, shift in zip(outers, mix, shifts):
        inner = [0] * n if shift is None else _regraded(shift._scaled(), c)
        terms = [(a, xs[j]) for j, a in enumerate(row) if a]
        if shift is None and [a for a, _ in terms] == [1]:
            inner = terms[0][1]
        elif terms:
            sums.append((inner, terms))
        steps.append((_table_steps if isinstance(outer, TailSeries) else _fraction_steps)(outer, c, inner))
    for k in range(n):
        for x, step in zip(xs, steps):
            x.append(next(step))
        for inner, terms in sums:
            inner[k] += sum(a * x[k] for a, x in terms)
    return [TailSeries._from_ints(c, 1, x) for x in xs]


def substitute_into_shifted(outer: Outer, inner: TailSeries) -> TailSeries:
    """outer evaluated at z - inner(z), as a series in 1/z truncated at the
    common order; a :class:`TailSeries` outer is read as a function of 1/z."""
    return _coupled([outer], ((0,),), [inner])[0]


def moments_to_K(moments: Sequence[Rational]) -> TailSeries:
    """K(z) = z - F(z) as a TailSeries, from the moments m1..mN (m0 = 1
    implied): the constant term is m1 and the series has order N - 1.

    F(z)/z = 1/(z*G(z)) is the reciprocal of z*G(z) = 1 + m1*w + m2*w**2 +
    ..., so K/z = 1 - F/z is its tail past the constant 1, negated.  Exact
    inverse of :func:`K_to_moments` at every order.
    """
    if not moments:
        raise InvalidParameter("need at least one moment")
    f_over_z = TailSeries((Fraction(1), *moments)).reciprocal()
    return TailSeries._of(tuple(-c for c in f_over_z.coeffs[1:]))


def K_to_moments(k: TailSeries) -> tuple[Fraction, ...]:
    """Moments m1..m(N+1) of the measure whose K-series, of order N, is k.

    G(z) = 1/(z - K(z)) has coefficients 0, 1, m1, m2, ..., and coefficient
    k of K weighs k + 1, as m_(k+1) does, so the recurrence runs at the form
    k already fitted (``_scaled()``), with no second fit.  Exact inverse of
    :func:`moments_to_K` at every order.
    """
    c, a = k._scaled()
    return tuple(map(Fraction, _reciprocal_coeffs(a, len(a) + 2)[2:], _powers(c, 1)))


def poly_trim(p: Sequence[Rational]) -> list[Fraction]:
    out = [_frac(c) for c in p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_sub(a: Sequence[Rational], b: Sequence[Rational]) -> list[Fraction]:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def poly_scale(a: Sequence[Rational], s: Rational) -> list[Fraction]:
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence[Rational], b: Sequence[Rational]) -> list[Fraction]:
    return poly_trim(_cauchy(a, b, len(a) + len(b) - 2))


def poly_eq(a: Sequence[Rational], b: Sequence[Rational]) -> bool:
    return poly_trim(a) == poly_trim(b)
