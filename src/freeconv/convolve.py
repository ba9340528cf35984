"""The five convolutions, computed exactly at moment level.

Everything reduces to K-transform series (K = z - F as a series in 1/z):

* boolean:    K adds.
* orthogonal: K of the left factor composed with z minus K of the right.
* monotone:   right K plus the orthogonal K (F-composition, regrouped).
* s-free:     the two halves are the coupled fixed point u = K_mu(z - v),
              v = K_nu(z - u), the limit of alternating orthogonal
              convolutions; coefficient k of either half needs the other
              only up to index k - 2, so :func:`series.sfree_pair` builds
              both exactly in one pass, with no convergence heuristics.
              :func:`orthogonal_iterated` still gives the alternating chain.
* free:       the boolean convolution of the two s-free halves, K = u + v;
              monotone-after-s-free gives v + K_mu(z - v), so it agrees
              exactly when K_mu(z - v) = u, which one separate composition
              re-checks before the result is built; a third cross-check adds
              free cumulants in :func:`free_cumulant_oracle`, at any order.

An outer factor given by atoms, or by recursion coefficients that are
finite or end in a Wigner tail, composes through its continued fraction in
O(d * N**2) for d levels; moments and truncated recursions go through the
power table of their K-series in O(N**3), and so does the test oracle
:func:`orthogonal_iterated`.

Each operation reads its inputs straight off the measures: the K view
(:meth:`MeasureRep.k_series`), derived from the moments once by
:func:`series.moments_to_K` and then truncated to each order asked, and the
outer view (:meth:`MeasureRep.k_outer`), the continued fraction where there
is one, else the K view, built and fitted once and read at each order
asked.  Every result is built by :meth:`MeasureRep.from_k`, which reads its
moments straight off its K (:func:`series.K_to_moments`) and keeps that K
as its K view: a result that feeds the next operation is not taken
K -> moments -> K.

Pointwise evaluation of the subordination transforms lives in
:func:`subordination_eval`; it is the only place here that iterates
numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameter, NoConvergence, RouteMismatch
from .measures import (
    JacobiParams,
    MeasureRep,
    eval_K,
    make_jacobi,
)
from .partitions import free_cumulants_from_moments, moments_from_free_cumulants
from .series import sfree_pair, substitute_into_shifted


# stopping rule of the pointwise subordination iteration
SUBORDINATION_TOL = 1e-12
SUBORDINATION_MAX_ITER = 10_000


# ---------------------------------------------------------------------------
# The five convolutions
# ---------------------------------------------------------------------------

def boolean(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    return MeasureRep.from_k(mu.k_series(order) + nu.k_series(order))


def orthogonal(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    return MeasureRep.from_k(substitute_into_shifted(mu.k_outer(order), nu.k_series(order)))


def monotone(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    kn = nu.k_series(order)
    return MeasureRep.from_k(kn + substitute_into_shifted(mu.k_outer(order), kn))


def orthogonal_iterated(mu: MeasureRep, nu: MeasureRep, m: int, order: int) -> MeasureRep:
    """m-fold alternating orthogonal convolution (m = 1 is the plain one).

    m iterations fix exactly 2m + 2 moments of the s-free half, and
    generically not moment 2m + 3: coefficient k of K_mu(z - inner) reads
    inner only up to index k - 2, so each iteration pins two more moments.
    So every m >= order / 2 gives the same `order` moments, and at most
    `order` links are composed, whatever m is."""
    if m < 1:
        raise InvalidParameter("iteration count must be >= 1")
    k_mu = mu.k_series(order)
    k_nu = nu.k_series(order)
    m = min(m, order)
    acc = k_nu if m % 2 else k_mu
    for i in range(m - 1, -1, -1):
        acc = substitute_into_shifted(k_nu if i % 2 else k_mu, acc)
    return MeasureRep.from_k(acc)


def sfree(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    u, _ = sfree_pair(mu.k_outer(order), nu.k_outer(order))
    return MeasureRep.from_k(u)


def free(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    """Free additive convolution: the boolean convolution of its two s-free
    halves, checked against mu monotone-convolved with nu's half.

    Both halves u = K_mu(z - v) and v = K_nu(z - u) come from one coupled
    pass, and K of the result is u + v.  The monotone route gives
    v + K_mu(z - v), so the two routes agree exactly when K_mu(z - v) = u;
    one separate composition re-checks that, coefficient by coefficient.
    They are equal identically, so a mismatch can only mean a bug.
    """
    outer_mu = mu.k_outer(order)
    u, v = sfree_pair(outer_mu, nu.k_outer(order))
    recomposed = substitute_into_shifted(outer_mu, v)
    for k, (a, b) in enumerate(zip(recomposed.coeffs, u.coeffs)):
        if a != b:
            raise RouteMismatch(
                f"free-convolution routes disagree at coefficient {k} of K (order {order}): "
                f"K_mu(z - v) gives {a}, the s-free half u gives {b}"
            )
    return MeasureRep.from_k(u + v)


def free_cumulant_oracle(mu: MeasureRep, nu: MeasureRep, order: int) -> MeasureRep:
    """Independent check route: free cumulants add, and the first-block
    recursion of non-crossing partitions takes moments to them and back."""
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    km = free_cumulants_from_moments(mu.moments(order), order)
    kn = free_cumulants_from_moments(nu.moments(order), order)
    total = tuple(a + b for a, b in zip(km, kn))
    return MeasureRep.from_moments(moments_from_free_cumulants(total, order))


# the five convolutions by name, in the order `freeconv convolve` lists them
OPERATIONS = {
    "free": free,
    "boolean": boolean,
    "monotone": monotone,
    "orthogonal": orthogonal,
    "sfree": sfree,
}


# ---------------------------------------------------------------------------
# Pointwise subordination
# ---------------------------------------------------------------------------

def subordination_eval(
    mu: MeasureRep,
    nu: MeasureRep,
    z: complex,
) -> tuple[complex, complex]:
    """Limits (u, v) of the coupled alternating K-iteration at z.

    u converges to the K-transform of the s-free half subordinate to mu and
    v to the one subordinate to nu, so z - v and z - u are the subordination
    functions of the free convolution at z.
    """
    u = eval_K(mu, z)
    v = eval_K(nu, z)
    for _ in range(SUBORDINATION_MAX_ITER):
        u_next = eval_K(mu, z - v)
        v_next = eval_K(nu, z - u)
        gap = max(abs(u_next - u), abs(v_next - v))
        u, v = u_next, v_next
        if gap < SUBORDINATION_TOL:
            return u, v
    raise NoConvergence(
        f"no convergence within {SUBORDINATION_MAX_ITER} iterations (gap {gap:.3e})",
        last=(u, v),
        gap=gap,
    )


# ---------------------------------------------------------------------------
# Chain decomposition of a recursion prefix
# ---------------------------------------------------------------------------

def jacobi_chain_decomposition(j: JacobiParams, m: int) -> list[MeasureRep]:
    """Two-atom measures whose nested orthogonal convolution has, as its
    K-transform, exactly the m-level approximant of the input's K.

    The first link carries alpha0 + omega0/(z - alpha1); link n >= 2 carries
    omega[n-1]/(z - alpha[n]).  So the chain's K is (z N - P) / N for the
    convergent N / P = N_(m+1) / P_(m+1) of `measures.approximant_G`.  Past
    a zero omega a link is the point mass at its first alpha, alpha0 for the
    first link and 0 for the others.
    """
    if m < 1:
        raise InvalidParameter("chain length must be >= 1")
    alphas, omegas = j.prefix(m + 1)
    firsts = (alphas[0],) + (Fraction(0),) * (m - 1)
    return [
        MeasureRep.from_jacobi(make_jacobi((a, b), (w, 0)) if w else make_jacobi((a,), (0,)))
        for a, b, w in zip(firsts, alphas[1:], omegas)
    ]
