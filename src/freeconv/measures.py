"""Measure representations, exact conversions, and analytic evaluation.

A measure enters as exact moments, as three-term recursion coefficients
(diagonal ``alpha``, squared off-diagonal ``omega``, optionally continued
by a constant tail), or as finitely many weighted atoms.  Conversions
between the three are exact: each runs on rows of Python ints over one
denominator, reduced by the row's gcd, and builds Fractions only for the
values it returns.  Moments give recursion
coefficients by Gautschi's Chebyshev algorithm on the mixed moments
<p_k, x^l>, which stops at a zero squared norm (a finite measure) and
rejects a negative one.  The atoms of a terminated fraction are the zeros
of its approximant's denominator P_d: Sturm counts on the convergents'
denominators, as primitive integer rows, bisect the grid that holds every
rational zero, each isolated zero is tested exactly, and its weight is its
Christoffel number, so an irrational zero gives None.  `approximant_G` is
the one loop that runs the three-term recurrence on polynomials.  The
continued-fraction evaluators at complex points are the only
floating-point code here.

Each rule has one owner.  The constructors (`make_jacobi`,
`atomic_measure` and `MeasureRep.from_*`) own the value rules: signs,
weights, emptiness and where a fraction ends.  `MeasureRep` holds a
measure in exactly one given form and owns the views derived from it
(moments, K-series, continued-fraction outer, recursion coefficients,
atoms), each derived once; a refusal is remembered like a view.
`parse_measure` and `measure_to_json` own the JSON shape only: they
translate between JSON and those objects.  The views printed beside
moments exist only in JSON, so `parse_measure` alone checks that they are
the ones the moments give.

Conventions for recursion coefficients:

* Level k is the pair (alpha_k, omega_k), and a given omega needs its
  level's alpha, so there are never more omegas than alphas; every
  reader counts the given levels as ``len(alpha)``.
* ``tail=None`` means plain truncation: the coefficients are a known
  prefix of some measure, d diagonal entries and d - 1 omegas, so exact
  moments stop at order 2d-1.
* ``tail=WignerTail(a, b)`` continues both sequences with the constants
  a and b, supplying whole levels (a, b) past the given ones, so every
  moment is exact.
* A zero omega makes the measure finitely supported, with every moment
  exact (``finite=True``): a finite recursion is written ending in its
  first zero omega, a tail of variance 0 is that zero, and nothing may
  follow it.

`JacobiParams.prefix` is the one reader of recursion levels, here and in
`convolve` and `opmodel`: past the given entries it reads the tail, or
zeros once the fraction has terminated, and past a truncated prefix it
raises `OrderExceeded`, so no evaluator closes a truncated fraction.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from fractions import Fraction

from .errors import DomainError, InvalidParameter, NotAMomentSequence, OrderExceeded
from .series import (
    ContinuedFraction,
    K_to_moments,
    Outer,
    TailSeries,
    _frac,
    moments_to_K,
    poly_mul,
    poly_scale,
    poly_sub,
)


def _over_lcm(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators of xs and the ints x*d."""
    d = math.lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------
# The package's value types are `collections.namedtuple` subclasses, not
# dataclasses, so that importing the CLI loads neither `dataclasses` (with
# `inspect`) nor `typing`.  They are immutable, compare and hash by their
# fields and print as `Name(field=value, ...)`; a changed copy is
# `j._replace(tail=None)` where it was `dataclasses.replace(j, tail=None)`.

class WignerTail(namedtuple("WignerTail", "a b")):
    """Constant continuation of both recursion sequences: every level past
    the given ones is (a, b), both Fractions."""

    __slots__ = ()


class JacobiParams(namedtuple("JacobiParams", "alpha omega tail finite", defaults=(None, False))):
    """Recursion coefficients: diagonal alpha and squared off-diagonal
    omega, tuples of Fractions, continued by `tail` (a `WignerTail` or None)
    or ended (`finite`).  No `__slots__`: the instance dict holds the
    `cached_property` values."""

    def prefix(self, d: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """alpha_0..alpha_(d-1) and omega_0..omega_(d-2), the one reader of
        recursion levels: past the given entries come the tail's (a, b), or
        zeros once the fraction has terminated.  Nothing is known past a
        truncated prefix, so asking for more raises `OrderExceeded`."""
        if self.tail is not None:
            a, b = self.tail.a, self.tail.b
        elif self.finite or d <= len(self.alpha):
            a = b = Fraction(0)
        else:
            n = len(self.alpha)
            raise OrderExceeded(
                f"{n} truncated recursion levels fix only {2 * n - 1} moments; "
                f"{d} levels were asked for"
            )
        return (self.alpha + (a,) * d)[:d], (self.omega + (b,) * d)[: max(d - 1, 0)]

    @cached_property
    def _float_levels(self) -> tuple[tuple[float, float], ...]:
        """(alpha_k, omega_k) as floats for every given level, deepest first,
        read once for `eval_G`.  The omega below the last level comes from
        the tail, is 0 once the fraction has terminated, and is unknown for a
        truncated recursion, which raises `OrderExceeded`."""
        alphas, omegas = self.prefix(len(self.alpha) + 1)
        return tuple(zip(map(float, alphas), map(float, omegas)))[::-1]

    @cached_property
    def _float_tail(self) -> tuple[float, float] | None:
        """The tail's a and 2*sqrt(b) as floats, read once for `eval_G`, or
        None without a tail."""
        if self.tail is None:
            return None
        return float(self.tail.a), 2.0 * math.sqrt(float(self.tail.b))

    def shift(self) -> "JacobiParams":
        """Drop the leading diagonal and off-diagonal entries.  Without a
        tail, fewer than two levels leave nothing to shift to."""
        if self.tail is None and len(self.alpha) < 2:
            raise InvalidParameter("no levels left to shift")
        return make_jacobi(
            self.alpha[1:], self.omega[1:] + (0,) * self.finite, self.tail
        )


def make_jacobi(
    alpha: Iterable,
    omega: Iterable,
    tail: WignerTail | None = None,
) -> JacobiParams:
    """Validate and normalize recursion coefficients.

    Level k is the pair (alpha[k], omega[k]), so a given omega[k] needs a
    given alpha[k]: len(omega) <= len(alpha).  Past the given levels a
    `wigner` tail supplies whole levels (a, b); without one, d alphas take
    d - 1 omegas.  The first zero omega ends the recursion, and the result
    is finite: a finite recursion is written ending in its zero omega, and
    a `wigner` tail of variance 0 is that zero at index ``len(omega)``,
    supplying the single level (a, 0) when alpha[len(omega)] is not given.
    Nothing may follow the zero: a later alpha or omega entry, or a tail
    after a given zero, is refused first of all the rules, and an omega
    without its alpha next.
    """
    a = tuple(_frac(x) for x in alpha)
    w = tuple(_frac(x) for x in omega)
    if tail is not None:
        tail = WignerTail(_frac(tail.a), _frac(tail.b))
    end = w.index(0) if 0 in w else len(w) if tail is not None and tail.b == 0 else None
    if end is not None:
        follows = (
            f"alpha[{end + 1}]" if len(a) > end + 1
            else f"omega[{end + 1}]" if len(w) > end + 1
            else "a 'wigner' tail" if tail is not None and end < len(w)
            else None
        )
        if follows:
            zero = f"omega[{end}] is zero and" if end < len(w) else "the 'wigner' tail of variance 0"
            raise InvalidParameter(f"{zero} ends the recursion, but {follows} follows it")
    if len(w) > len(a):
        raise InvalidParameter(f"omega[{len(a)}] is given without alpha[{len(a)}]: each omega needs its level's alpha")
    if not a and tail is None:
        raise InvalidParameter("recursion coefficients need an alpha entry or a tail ('wigner' in JSON)")
    if any(x < 0 for x in w):
        raise InvalidParameter("squared off-diagonal entries must be >= 0")
    if tail is not None and tail.b < 0:
        raise InvalidParameter("tail variance must be >= 0")
    if end is not None:
        if len(a) == end:  # the zero-variance tail supplies the level (a, 0)
            a += (tail.a,)
        return JacobiParams(a, w[:end], None, True)
    if tail is None and len(w) != len(a) - 1:
        raise InvalidParameter(
            f"expected {len(a) - 1} off-diagonal entries for {len(a)} diagonal ones"
        )
    return JacobiParams(a, w, tail)


class AtomicMeasure(namedtuple("AtomicMeasure", "atoms")):
    """Finitely many atoms, a tuple of (location, weight) Fraction pairs,
    weights positive and summing to 1."""

    __slots__ = ()

    def moments(self, n: int) -> tuple[Fraction, ...]:
        """m_1..m_n; m_k = sum W_i P_i^k / (v q^k) on integer locations P_i / q
        and weights W_i / v."""
        q, locs = _over_lcm([loc for loc, _ in self.atoms])
        v, terms = _over_lcm([wt for _, wt in self.atoms])
        out = []
        for _ in range(n):
            terms = [x * p for x, p in zip(terms, locs)]
            v *= q
            out.append(Fraction(sum(terms), v))
        return tuple(out)


def atomic_measure(pairs: Iterable) -> AtomicMeasure:
    atoms = tuple(sorted(((_frac(l), _frac(w)) for l, w in pairs), key=lambda p: p[0]))
    if not atoms:
        raise InvalidParameter("need at least one atom")
    if any(w <= 0 for _, w in atoms):
        raise InvalidParameter("atom weights must be positive")
    if sum(w for _, w in atoms) != 1:
        raise InvalidParameter("atom weights must sum to 1")
    if len({l for l, _ in atoms}) != len(atoms):
        raise InvalidParameter("atom locations must be distinct")
    return AtomicMeasure(atoms)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def moments_to_jacobi(moments: Sequence) -> JacobiParams:
    """Recursion coefficients from exact moments by Gautschi's Chebyshev algorithm.

    It runs the mixed moments s[k][l] = <p_k, x^l> of the monic orthogonal
    polynomials from s[0][l] = m_l (m_0 = 1), O(N^2) work on two rows:
        s[k+1][l] = s[k][l+1] - alpha_k s[k][l] - omega_{k-1} s[k-1][l]
        omega_k = s[k+1][k+1] / s[k][k]
        alpha_{k+1} = s[k+1][k+2] / s[k+1][k+1] - s[k][k+1] / s[k][k]
    Each row is an int vector over one denominator, reduced by their gcd.
    A zero squared norm s[k+1][k+1] means a finitely supported measure
    (returned finite), and the rest of its row, which ties the later moments
    to that measure, must be zero; a negative norm or a nonzero entry there
    raises NotAMomentSequence.  An omega with no following alpha is left off.
    """
    m = [Fraction(1)] + [_frac(x) for x in moments]
    n = len(m) - 1
    if not n:
        raise InvalidParameter("recursion coefficients need at least one moment")
    alpha, omega, finite = m[1:2], [], False
    (dc, cur), prev, dp = _over_lcm(m), [0] * (n + 1), 1
    for k in range(n // 2):
        a, w = alpha[k], omega[-1] if omega else Fraction(0)
        f = math.lcm(a.denominator * dc, w.denominator * dp)
        s, t = f // dc, a.numerator * (f // (a.denominator * dc))
        u = w.numerator * (f // (w.denominator * dp))
        nxt = [0] * (k + 1) + [
            s * c1 - t * c0 - u * p
            for c1, c0, p in zip(cur[k + 2 :], cur[k + 1 :], prev[k + 1 : n - k])
        ]
        g = math.gcd(f, *nxt)
        if g > 1:
            nxt, f = [x // g for x in nxt], f // g
        if nxt[k + 1] < 0:
            raise NotAMomentSequence(f"negative squared norm at level {len(alpha)}")
        finite = nxt[k + 1] == 0
        if finite and any(nxt[k + 2 :]):
            raise NotAMomentSequence(f"moments disagree past the zero norm at level {len(alpha)}")
        if finite or 2 * k + 3 > n:
            break
        omega.append(Fraction(nxt[k + 1] * dc, f * cur[k]))
        alpha.append(Fraction(nxt[k + 2] * cur[k] - cur[k + 1] * nxt[k + 1], nxt[k + 1] * cur[k]))
        prev, dp, cur, dc = cur, dc, nxt, f
    return JacobiParams(tuple(alpha), tuple(omega), None, finite)


def jacobi_to_moments(j: JacobiParams, n: int) -> tuple[Fraction, ...]:
    """First n moments from recursion coefficients, via the weighted-walk
    transfer recursion v[l] <- alpha_l v[l] + v[l-1] + omega_l v[l+1] run on
    ints times c, the lcm of their denominators; m_t is v[0] after t steps."""
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    levels = n // 2 + 1
    alphas, omegas = j.prefix(levels)
    c, aw = _over_lcm(alphas + omegas)
    a, w, v, d = aw[:levels], aw[levels:] + [0], [1], 1
    out = []
    for t in range(n):
        top = min(t + 1, n - 1 - t)  # levels reached that can still return to level 0
        v = [
            x * p + c * q + y * r
            for x, y, p, q, r in zip(a[: top + 1], w, v + [0], [0] + v, v[1:] + [0, 0])
        ]
        d *= c
        g = math.gcd(d, *v)
        if g > 1:
            v, d = [x // g for x in v], d // g
        out.append(Fraction(v[0], d))
    return tuple(out)


def jacobi_to_atoms(j: JacobiParams) -> AtomicMeasure | None:
    """The atoms of a terminated fraction when its spectrum is rational, else None.

    The atoms are the zeros of P_d, the monic orthogonal polynomial of degree
    d (the approximant's denominator N_d / P_d), and the convergents'
    P_0..P_d are a Sturm sequence: their sign changes count the zeros of
    P_d above a point that is not one (a zero P_k, k < d, lies between
    opposite signs, so it adds one change whichever sign it is read as).
    Each P_k is held as a primitive integer row, whose sign at y / s is that
    of s**k times it, by Horner on ints.  Every rational zero is y / a for an
    integer y, a the leading coefficient of P_d's row.  So the zeros are
    isolated by bisecting the integers y inside a Gershgorin bound, counted
    at the midpoints (2y + 1) / (2a), which are never zeros; a cell known to
    hold one zero is halved by the sign of P_d alone.  A cell of one grid
    point holding one zero must vanish there, and that zero's weight is its
    Christoffel number, the residue N_d(x) / P_d'(x).  The first cell that
    holds two zeros or misses its grid point gives None.
    """
    if not j.finite:
        return None
    d = len(j.alpha)
    convergents = approximant_G(j, d)
    num, den = convergents[d]
    rows = []
    for _, p in convergents:
        row = _over_lcm(p)[1]
        g = math.gcd(*row)
        rows.append([x // g for x in row])
    a = rows[-1][-1]

    def value(row: list[int], y: int, s: int) -> int:
        """s**k row(y / s) for the row of degree k, whose sign is that of P_k(y / s)."""
        v, t = 0, 1
        for x in row:
            v, t = v * s + x * t, t * y
        return v

    def above(y: int) -> int:
        signs = [value(row, 2 * y + 1, 2 * a) > 0 for row in rows]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    r = [Fraction(math.isqrt(w.numerator * w.denominator) + 1, w.denominator) for w in j.omega]
    top = math.floor(a * max(abs(x) + u + v for x, u, v in zip(j.alpha, [0] + r, r + [0]))) + 1
    cells, atoms = [(-top - 1, top, d, 0)], []
    while cells:
        lo, hi, n_lo, n_hi = cells.pop()
        if n_lo == n_hi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            if n_lo - n_hi > 1:
                n_mid = above(mid)
            else:  # P_d changes sign at each zero above the point
                n_mid = n_hi + ((value(rows[-1], 2 * mid + 1, 2 * a) < 0) != n_hi % 2)
            cells += [(mid, hi, n_mid, n_hi), (lo, mid, n_lo, n_mid)]
            continue
        if n_lo - n_hi > 1 or value(rows[-1], hi, a):
            return None
        x = Fraction(hi, a)
        slope = sum(k * v * x ** (k - 1) for k, v in enumerate(den[1:], 1))
        atoms.append((x, sum(v * x**k for k, v in enumerate(num)) / slope))
    return atomic_measure(atoms)


# ---------------------------------------------------------------------------
# Unified carrier
# ---------------------------------------------------------------------------

class MeasureRep:
    """A measure given in exactly one form, with the other views derived
    from it and cached.

    The keywords are checked here: a non-empty list of moments, each read
    by `_frac`, a `JacobiParams` or an `AtomicMeasure`, the last two as
    `make_jacobi` and `atomic_measure` build them.  A cache is replaced only
    by a longer one that repeats it (moments, and the K-series, whose
    coefficient k reads only m_1..m_(k+1)), else written once, so instances
    are safe to share.
    """

    def __init__(
        self,
        *,
        moments: Sequence[Fraction] | None = None,
        jacobi: JacobiParams | None = None,
        atoms: AtomicMeasure | None = None,
    ):
        if (moments is None) + (jacobi is None) + (atoms is None) != 2:
            raise InvalidParameter("a measure is given by exactly one of moments, jacobi and atoms")
        for value, kind in ((jacobi, JacobiParams), (atoms, AtomicMeasure)):
            if not isinstance(value, (kind, type(None))):
                raise InvalidParameter(f"{kind.__name__} expected, got {type(value).__name__}")
        if moments is not None:
            moments = [_frac(v) for v in moments]
            if not moments:
                raise InvalidParameter("a measure given by moments needs at least one ('m' in JSON)")
        self._hold(moments, jacobi, atoms)

    def _hold(
        self,
        moments: list[Fraction] | None,
        jacobi: JacobiParams | None,
        atoms: AtomicMeasure | None,
    ) -> None:
        """Hold the one given form, already checked, with empty caches."""
        self._moments: list[Fraction] = moments if moments is not None else []
        self._moments_given = moments is not None
        self._k: TailSeries | None = None
        self._outer: ContinuedFraction | None = None
        self._jacobi = jacobi
        self._refusal: NotAMomentSequence | None = None
        self._atoms = atoms
        self._atoms_attempted = atoms is not None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_moments(cls, values: Iterable) -> "MeasureRep":
        return cls(moments=values)

    @classmethod
    def from_jacobi(cls, j: JacobiParams) -> "MeasureRep":
        return cls(jacobi=j)

    @classmethod
    def from_atoms(cls, pairs: Iterable) -> "MeasureRep":
        return cls(atoms=atomic_measure(pairs))

    @classmethod
    def from_k(cls, ks: TailSeries) -> "MeasureRep":
        """The measure whose K-series is ks, given by its moments, one more
        than the order of ks (`K_to_moments`); ks is its K view."""
        rep = object.__new__(cls)
        rep._hold(list(K_to_moments(ks)), None, None)
        rep._k = ks
        return rep

    # -- moments -----------------------------------------------------------

    def moments(self, n: int) -> tuple[Fraction, ...]:
        if n < 0:
            raise InvalidParameter("n must be >= 0")
        if n <= len(self._moments):
            return tuple(self._moments[:n])
        if self._moments_given:  # whatever the caches derived from them hold
            raise OrderExceeded(
                f"only {len(self._moments)} moments available, {n} requested"
            )
        if self._atoms is not None:
            self._moments = list(self._atoms.moments(n))
        else:
            self._moments = list(jacobi_to_moments(self._jacobi, n))
        return tuple(self._moments[:n])

    def k_series(self, n: int) -> TailSeries:
        """K = z - F as a series of order n - 1, from m_1..m_n: the longest
        one derived so far, truncated, since coefficient k reads only
        m_1..m_(k+1).  Past the moments a measure is given by, `moments`
        raises `OrderExceeded`, and its K view is never longer than they."""
        if n < 1:
            raise InvalidParameter("order must be >= 1")
        if self._k is None or self._k.order < n - 1:
            self._k = moments_to_K(self.moments(n))
        return self._k.truncate(n - 1)

    def k_outer(self, n: int) -> Outer:
        """K as the kernel's outer to order n - 1: the continued fraction of
        a measure given by atoms or by recursion coefficients fixing every
        moment, built once and read at each order asked, else the K view."""
        j = self.exact_jacobi()
        if j is None or n < 1:  # k_series rejects the order
            return self.k_series(n)
        if self._outer is None:
            levels = tuple(zip(*j.prefix(max(len(j.alpha), 1) + 1)))
            self._outer = ContinuedFraction(levels, (j.tail.a, j.tail.b) if j.tail else None, n - 1)
        return self._outer.at_order(n - 1)

    # -- conversions -------------------------------------------------------

    def jacobi(self) -> JacobiParams:
        """The recursion coefficients; moments that are no moment sequence
        raise `NotAMomentSequence`, and the same refusal again on every call."""
        if self._refusal is not None:
            raise self._refusal.with_traceback(None)
        if self._jacobi is None:  # given by moments, or by k atoms, which 2k moments fix
            n = len(self._moments) if self._moments_given else 2 * len(self._atoms.atoms)
            try:
                self._jacobi = moments_to_jacobi(self.moments(n))
            except NotAMomentSequence as exc:
                self._refusal = exc
                raise
        return self._jacobi

    def exact_jacobi(self) -> JacobiParams | None:
        """The recursion coefficients of a measure given by atoms or by
        coefficients that fix every moment, else None; a measure given by
        moments has None, whatever its caches hold."""
        if self._moments_given:
            return None
        j = self.jacobi()
        return j if j.finite or j.tail is not None else None

    def jacobi_or_none(self) -> JacobiParams | None:
        try:
            return self.jacobi()
        except NotAMomentSequence:
            return None

    def atoms(self) -> AtomicMeasure | None:
        if not self._atoms_attempted:
            self._atoms_attempted = True
            j = self.jacobi_or_none()
            if j is not None:
                self._atoms = jacobi_to_atoms(j)
        return self._atoms


# ---------------------------------------------------------------------------
# Analytic layer
# ---------------------------------------------------------------------------

def wigner_transform(a, b, z: complex) -> complex:
    """Cauchy transform of the constant-coefficient tail measure at z.

    Branch chosen so the value decays like 1/z at infinity and has negative
    imaginary part on the upper half-plane; the two principal square roots
    of z - a -/+ 2*sqrt(b) realize exactly that on all of C+.  Written as
    2/(u + s) rather than (u - s)/(2b) to avoid cancellation at large |z|.
    """
    return _wigner_at(float(a), 2.0 * math.sqrt(float(b)), complex(z))


def _wigner_at(a: float, sb: float, z: complex) -> complex:
    """`wigner_transform` on float a, sb = 2*sqrt(b) and complex z."""
    u = z - a
    s = cmath.sqrt(u - sb) * cmath.sqrt(u + sb)
    return 2.0 / (u + s)


def _as_jacobi(rep) -> JacobiParams:
    """Recursion coefficients of a measure given either way."""
    if isinstance(rep, JacobiParams):
        return rep
    if isinstance(rep, MeasureRep):
        return rep.jacobi()
    raise InvalidParameter(f"not a measure: {type(rep).__name__}")


def eval_G(rep, z: complex) -> complex:
    """Bottom-up continued-fraction value of the Cauchy transform at z,
    through every given level and the tail."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("evaluation requires Im z > 0")
    j = _as_jacobi(rep)
    tail = j._float_tail
    g = _wigner_at(*tail, z) if tail is not None else 0j
    for a, w in j._float_levels:
        g = 1.0 / (z - a - w * g)
    return g


def eval_F(rep, z: complex) -> complex:
    g = eval_G(rep, z)
    if abs(g) < 1e-250:
        raise DomainError("Cauchy transform too close to zero to invert")
    return 1.0 / g


def eval_K(rep, z: complex) -> complex:
    return complex(z) - eval_F(rep, z)


def approximant_G(j: JacobiParams, m: int) -> list[tuple[list[Fraction], list[Fraction]]]:
    """The convergents N_k / P_k of the J-fraction, k = 0..m, as pairs of
    coefficient lists, lowest degree first.

    This is the one loop that runs the three-term recurrence on
    polynomials: both satisfy Y[k+1] = (z - alpha[k])*Y[k] - omega[k-1]*Y[k-1]
    with starts N0 = 0, N1 = 1 and P0 = 1, P1 = z - alpha0 (Gautschi,
    *Orthogonal Polynomials*, OUP 2004, section 1.3).  P_k is the monic
    orthogonal polynomial of degree k, and N_m / P_m is the m-level
    approximant of G.
    """
    if m < 1:
        raise InvalidParameter("approximant level must be >= 1")
    alphas, omegas = j.prefix(m)
    out = [([Fraction(0)], [Fraction(1)]), ([Fraction(1)], [-alphas[0], Fraction(1)])]
    for k in range(1, m):
        factor, w = [-alphas[k], Fraction(1)], omegas[k - 1]
        out.append(tuple(poly_sub(poly_mul(factor, y), poly_scale(y0, w)) for y, y0 in zip(out[k], out[k - 1])))
    return out


def stieltjes_density(
    rep, grid: Sequence[float], epsilon: float = 1e-6
) -> list[tuple[float, float]]:
    """Smoothed density -Im G(x + i*epsilon) / pi on the grid.

    Only a measure whose recursion is known at every level has a Cauchy
    transform to invert: atoms, a terminated recursion or a `wigner` tail.
    A truncated recursion (finitely many moments) raises
    `OrderExceeded`, since closing it would print the density of one
    Gauss quadrature among the many measures that share those moments.
    """
    if not 0 < epsilon < math.inf:
        raise InvalidParameter(f"epsilon must be finite and > 0, got {epsilon}")
    j = _as_jacobi(rep)
    return [(float(x), -eval_G(j, complex(x, epsilon)).imag / math.pi) for x in grid]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def point_mass(a) -> MeasureRep:
    return MeasureRep.from_atoms([(a, 1)])


def two_point(p, loc1, loc2) -> MeasureRep:
    p = _frac(p)  # the locations are read by `atomic_measure`
    if not 0 < p < 1:
        raise InvalidParameter("weight must lie strictly between 0 and 1")
    if loc1 == loc2:
        return point_mass(loc1)
    return MeasureRep.from_atoms([(loc1, p), (loc2, 1 - p)])


def wigner(a, b) -> MeasureRep:
    """Constant recursion coefficients a and b; b = 0 is the point mass at a."""
    return MeasureRep.from_jacobi(make_jacobi((), (), WignerTail(a, b)))


def bernoulli_symmetric() -> MeasureRep:
    return two_point(Fraction(1, 2), 1, -1)


# ---------------------------------------------------------------------------
# JSON measure format
# ---------------------------------------------------------------------------

def _in_full(convert, value):
    """convert(value), retried without Python's int/str digit limit (4300
    by default since 3.11): rationals are written and read in full."""
    try:
        return convert(value)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def fraction_to_str(x: Fraction) -> str:
    return _in_full(str, x)


_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def parse_fraction(value) -> Fraction:
    """A JSON integer, or a string of the grammar -?[0-9]+(/[0-9]+)? in
    ASCII digits, matched before `Fraction` reads it, so no decimal,
    exponent, sign, space or underscore is reinterpreted."""
    if isinstance(value, bool):
        raise InvalidParameter("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InvalidParameter(f"bad rational literal {value!r}: rationals are written -?[0-9]+(/[0-9]+)?")
        try:
            return _in_full(Fraction, value)
        except ZeroDivisionError as exc:
            raise InvalidParameter(f"bad rational literal {value!r}: zero denominator") from exc
    raise InvalidParameter(f"rationals must be ints or 'p/q' strings, got {value!r}")


def _known_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """Reject any key of the JSON object outside `keys`, naming it."""
    extra = sorted(k for k in obj if k not in keys)
    if extra:
        raise InvalidParameter(f"unknown key{'s' * (len(extra) > 1)} {', '.join(map(repr, extra))} in {what}")


def _json_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InvalidParameter(f"{key!r} must be a list, got {value!r}")
    return value


def _parse_atom(pair) -> tuple[Fraction, Fraction]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise InvalidParameter(f"an atom must be a [location, weight] pair, got {pair!r}")
    return parse_fraction(pair[0]), parse_fraction(pair[1])


_MEASURE_KEYS = {
    # `jacobi` and `atoms` are the views `measure_to_json` prints beside the
    # moments, so its output reads back; each given must equal the printed one
    "moments": ("type", "m", "jacobi", "atoms"),
    "jacobi": ("type", "alpha", "omega", "tail"),
    "atoms": ("type", "atoms"),
}
_TAIL_KEYS = {"truncate": ("kind",), "wigner": ("kind", "a", "b")}


def parse_measure(obj: dict) -> MeasureRep:
    """Parse the tagged measure object; a key its type does not name, in
    the measure or its tail, is rejected, and so is a view beside moments
    that differs from the one `measure_to_json` prints for them."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParameter("measure object needs a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _MEASURE_KEYS:
        raise InvalidParameter(f"unknown measure type {kind!r}")
    _known_keys(obj, _MEASURE_KEYS[kind], f"a {kind!r} measure")
    if kind == "moments":
        rep = MeasureRep.from_moments([parse_fraction(v) for v in _json_list(obj, "m")])
        rep.jacobi()  # a list that is no moment sequence is rejected here
        printed = measure_to_json(rep, len(obj["m"])) if "jacobi" in obj or "atoms" in obj else {}
        for key in ("jacobi", "atoms"):
            if key in obj and obj[key] != printed.get(key):
                raise InvalidParameter(f"{key!r} is not the view its moments give")
        return rep
    if kind == "jacobi":
        alpha = [parse_fraction(v) for v in _json_list(obj, "alpha")]
        omega = [parse_fraction(v) for v in _json_list(obj, "omega")]
        tail_obj = obj.get("tail", {"kind": "truncate"})
        if not isinstance(tail_obj, dict) or tail_obj.get("kind") not in ("truncate", "wigner"):
            raise InvalidParameter(f"'tail' must be a 'truncate' or 'wigner' object, got {tail_obj!r}")
        _known_keys(tail_obj, _TAIL_KEYS[tail_obj["kind"]], f"a {tail_obj['kind']!r} tail")
        tail = None
        if tail_obj["kind"] == "wigner":
            if "a" not in tail_obj or "b" not in tail_obj:
                raise InvalidParameter(f"a 'wigner' tail needs both 'a' and 'b', got {tail_obj!r}")
            tail = WignerTail(parse_fraction(tail_obj["a"]), parse_fraction(tail_obj["b"]))
        return MeasureRep.from_jacobi(make_jacobi(alpha, omega, tail))
    return MeasureRep.from_atoms([_parse_atom(p) for p in _json_list(obj, "atoms")])


def measure_to_json(rep: MeasureRep, order: int) -> dict:
    """Canonical emission: moments at the given order plus derived views.

    The recursion coefficients and atoms are the views of the measure the
    emitted moments give, so that parse -> emit is idempotent byte for byte.
    A measure given by exactly those moments is that measure, and its own
    cached views are read.
    """
    m = rep.moments(order)
    out: dict = {"type": "moments", "m": [fraction_to_str(x) for x in m]}
    exact = rep._moments_given and len(rep._moments) == order
    emitted = rep if exact else MeasureRep.from_moments(m)
    j = emitted.jacobi_or_none()
    if j is not None:
        out["jacobi"] = {
            "alpha": [fraction_to_str(x) for x in j.alpha],
            "omega": [fraction_to_str(x) for x in j.omega],
            "tail": {"kind": "truncate"},
        }
    atoms = emitted.atoms()
    if atoms is not None:
        out["atoms"] = [
            [fraction_to_str(l), fraction_to_str(w)] for l, w in atoms.atoms
        ]
    return out
