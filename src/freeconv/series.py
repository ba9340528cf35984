"""The package's exact coefficient kernel: truncated series in w = 1/z
and polynomials in z, both as rational coefficient vectors.

A :class:`TailSeries` stores rational coefficients c0..cN of the value
c0 + c1/z + ... + cN/z**N.  The transforms used throughout the package
(G, F - z and K) all have this shape near infinity, and the identities
between them hold coefficient by coefficient, so everything here is done
over ``fractions.Fraction``.  Floating point only appears in the analytic
evaluators of :mod:`freeconv.measures`.

Series are immutable; every operation returns a fresh series truncated at
the common order of its inputs.

Composition outer(z - inner(z)), alone or as the coupled s-free pair, runs
one loop over two kinds of outer: a :class:`TailSeries` steps through the
table of powers (z - inner)**-j, O(N**3) for N coefficients, and a
:class:`ContinuedFraction` through its levels, one online reciprocal
1/(z - X) each, O(d * N**2) for d levels.

The ``poly_*`` helpers work on ascending coefficient lists in z, trimmed
of trailing zeros: the numerators and denominators of continued-fraction
approximants and their cross-multiplication checks.  A polynomial product
and a series product are the same Cauchy product, computed by one loop
(:func:`_cauchy`) that stops at the requested degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ZeroLeadingCoefficient

Rational = int | Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _cauchy(a: Sequence[Rational], b: Sequence[Rational], n: int) -> list[Fraction]:
    """Coefficients 0..n of the product of two ascending coefficient vectors,
    entries beyond either vector's end read as zero."""
    last_a, last_b = len(a) - 1, len(b) - 1
    return [
        sum((a[i] * b[k - i] for i in range(max(0, k - last_b), min(k, last_a) + 1)), Fraction(0))
        for k in range(n + 1)
    ]


class TailSeries:
    """Immutable truncated series in 1/z with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = coeffs

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
        if order >= self.order:
            return self
        return TailSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TailSeries({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TailSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "TailSeries":
        return TailSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TailSeries") -> "TailSeries":
        n = min(self.order, other.order)
        return TailSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "TailSeries") -> "TailSeries":
        n = min(self.order, other.order)
        return TailSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other) -> "TailSeries":
        if isinstance(other, TailSeries):
            return TailSeries(_cauchy(self.coeffs, other.coeffs, min(self.order, other.order)))
        return TailSeries(tuple(c * _frac(other) for c in self.coeffs))

    def __rmul__(self, other) -> "TailSeries":
        return self.__mul__(other)

    def reciprocal(self) -> "TailSeries":
        """Series b with self * b == 1 up to the truncation order."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroLeadingCoefficient("cannot invert a series with zero constant term")
        inv0 = Fraction(1) / a[0]
        out = [inv0]
        for n in range(1, len(a)):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += a[k] * out[n - k]
            out.append(-inv0 * acc)
        return TailSeries(out)


def _next_reciprocal_coeff(t: list[Fraction], x: Sequence[Fraction]) -> None:
    """Append coefficient k = len(t) of t = 1/(z - x(z)): t_0 = 0, t_1 = 1,
    t_k = sum_{i <= k-2} x_i * t_{k-1-i}.  It reads x only up to index k - 2,
    so x may still be growing (an online reciprocal, van der Hoeven 2002)."""
    k = len(t)
    t.append(Fraction(k) if k < 2 else sum((x[i] * t[k - 1 - i] for i in range(k - 1)), Fraction(0)))


def _add_power_column(powers: list[list[Fraction]], inner: Sequence[Fraction]) -> int:
    """Extend the table powers[j - 1][k] = [z**-k] (z - inner(z))**-j by one column.

    After column k the table has rows j = 1..k, each with entries 0..k.  Row
    1 is t = 1/(z - inner), grown by :func:`_next_reciprocal_coeff`; row j
    is row j - 1 times row 1.  Column k reads inner only up to index k - 2.
    Returns k.
    """
    k = len(powers) + 1
    powers.append([Fraction(0)] * k)
    t = powers[0]
    _next_reciprocal_coeff(t, inner)
    for j in range(2, k + 1):
        prev = powers[j - 2]
        powers[j - 1].append(
            sum((prev[i] * t[k - i] for i in range(j - 1, k)), Fraction(0))
        )
    return k


class ContinuedFraction:
    """K(z) = alpha_0 + omega_0/(z - alpha_1 - omega_1/(z - ...)) to ``order``
    in 1/z, with levels[i] = (alpha_i, omega_i); below the last level comes
    the constant tail (a, b), T = 1/(z - a - b*T), or nothing."""

    __slots__ = ("levels", "tail", "order")

    def __init__(
        self,
        levels: Sequence[tuple[Fraction, Fraction]],
        tail: Optional[tuple[Fraction, Fraction]],
        order: int,
    ):
        self.levels, self.tail, self.order = levels, tail, order


Outer = TailSeries | ContinuedFraction


def _table_steps(outer: TailSeries, inner: Sequence[Fraction]) -> Iterator[Fraction]:
    """Coefficients of sum_j outer_j * (z - inner(z))**-j, O(k**2) work each."""
    a = outer.coeffs
    powers: list[list[Fraction]] = []
    yield a[0]
    while True:
        k = _add_power_column(powers, inner)
        yield sum((a[j] * powers[j - 1][k] for j in range(1, k + 1)), Fraction(0))


def _fraction_steps(outer: ContinuedFraction, inner: Sequence[Fraction]) -> Iterator[Fraction]:
    """Coefficients of the fraction at z - inner(z): alpha_0 + omega_0 * L_1,
    where level i is L_i = 1/(z - X_i), X_i = inner + alpha_i + omega_i *
    L_{i+1}, and the tail level is its own L_{i+1}.  Coefficient k of L_i
    reads inner and L_{i+1} only up to index k - 2: O(k) work per level."""
    (alpha0, omega0), *rest = outer.levels
    chain = rest + ([outer.tail] if outer.tail else [])
    ts: list[list[Fraction]] = [[Fraction(0)] for _ in chain]
    xs: list[list[Fraction]] = [[] for _ in chain]
    below = ts[1:] + [ts[-1] if outer.tail else None]
    yield alpha0
    for k in count(1):
        if k >= 2:
            j = k - 2
            for (alpha, omega), x, deeper in zip(chain, xs, below):
                c = inner[j] + alpha if j == 0 else inner[j]
                x.append(c + omega * deeper[j] if deeper else c)
        for t, x in zip(ts, xs):
            _next_reciprocal_coeff(t, x)
        yield omega0 * ts[0][k] if ts else Fraction(0)


def _grow(n: int, jobs: Sequence[tuple[Outer, Sequence[Fraction], list[Fraction]]]) -> None:
    """Fill coefficients 0..n of each job's ``out`` with its outer composed
    with z - inner, all jobs one index at a time; an inner may be another
    job's ``out``, since coefficient k reads it only up to index k - 2."""
    steps = [
        (_table_steps if isinstance(outer, TailSeries) else _fraction_steps)(outer, inner)
        for outer, inner, _ in jobs
    ]
    for _ in range(n + 1):
        for step, (_, _, out) in zip(steps, jobs):
            out.append(next(step))


def substitute_into_shifted(outer: Outer, inner: TailSeries) -> TailSeries:
    """outer evaluated at z - inner(z), as a series in 1/z truncated at the
    common order; a :class:`TailSeries` outer is read as a function of 1/z."""
    out: list[Fraction] = []
    _grow(min(outer.order, inner.order), [(outer, inner.coeffs, out)])
    return TailSeries(out)


def sfree_pair(outer_mu: Outer, outer_nu: Outer) -> tuple[TailSeries, TailSeries]:
    """The coupled fixed point u = K_mu(z - v), v = K_nu(z - u), truncated
    at the common order: both halves grow together, one coefficient at a
    time, each stepping its own outer over the other."""
    u: list[Fraction] = []
    v: list[Fraction] = []
    _grow(min(outer_mu.order, outer_nu.order), [(outer_mu, v, u), (outer_nu, u, v)])
    return TailSeries(u), TailSeries(v)


def moments_to_F(moments: Sequence[Rational]) -> TailSeries:
    """F(z) - z as a TailSeries, from the moments m1..mN (m0 = 1 implied).

    Computed as the reciprocal of z*G(z) = 1 + m1*w + m2*w**2 + ...; the
    constant term of the result is -m1 and the series has order N - 1.
    """
    m = tuple(_frac(x) for x in moments)
    if not m:
        raise ValueError("need at least one moment")
    zg = TailSeries((Fraction(1),) + m)
    f_over_z = zg.reciprocal()  # F(z)/z = 1/(z*G(z))
    return TailSeries(f_over_z.coeffs[1:])


def F_to_moments(f: TailSeries) -> tuple[Fraction, ...]:
    """Moments m1..mN of the measure whose F(z) - z is the given series.

    Exact inverse of :func:`moments_to_F` at every order.
    """
    zg = TailSeries((Fraction(1),) + f.coeffs).reciprocal()
    return zg.coeffs[1:]


def poly_trim(p: Sequence[Rational]) -> list[Fraction]:
    out = [_frac(c) for c in p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[Rational], b: Sequence[Rational]) -> list[Fraction]:
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_sub(a: Sequence[Rational], b: Sequence[Rational]) -> list[Fraction]:
    return poly_add(a, [-c for c in b])


def poly_scale(a: Sequence[Rational], s: Rational) -> list[Fraction]:
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence[Rational], b: Sequence[Rational]) -> list[Fraction]:
    return poly_trim(_cauchy(a, b, len(a) + len(b) - 2))


def poly_eq(a: Sequence[Rational], b: Sequence[Rational]) -> bool:
    return poly_trim(a) == poly_trim(b)
