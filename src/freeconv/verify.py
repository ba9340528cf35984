"""The registry of identity checks behind `freeconv verify` and pytest.

Every check is a function registered under its suite by `@check(suite)`;
its name, as printed, is the function name with `_` turned into `-`.  A
check states its cases with `expect`, which raises `CheckFailed` with a
witness naming the first case that does not hold; `run_check` turns that,
or any other package error, into a failed `CheckResult`.  Exact checks
compare rationals; the few analytic checks carry explicit tolerances.

Suites are pure functions of their seed.  The inputs that several checks
share are drawn once per suite run from `random.Random(seed)`; a check
that draws more gets its own `random.Random(f"{seed}:{name}")`, so its
cases depend only on the seed and its name.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from . import convolve, errors, graphs, opmodel, partitions
from .measures import (
    JacobiParams,
    MeasureRep,
    approximant_G,
    bernoulli_symmetric,
    eval_F,
    eval_G,
    eval_K,
    make_jacobi,
    point_mass,
    stieltjes_density,
    two_point,
    wigner,
    WignerTail,
)
from .series import TailSeries, moments_to_K, poly_eq, poly_mul, poly_sub

SUITES = ("partitions", "convolutions", "opmodel")
ORDER = 10  # moment order of the convolution suite
HIGH_ORDER = 20  # order of the route checks above the partition enumerations' reach
PAIRS = 20  # random atomic pairs in the convolution suite


class CheckResult(namedtuple("CheckResult", "name ok detail elapsed", defaults=("", 0.0))):
    """One check's outcome.  `elapsed` is the seconds the check ran, set by
    `run_check`; it is not part of the result, so results compare and hash
    by name, outcome and detail alone."""

    __slots__ = ()

    def __eq__(self, other):
        return self[:3] == other[:3] if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other):
        return self[:3] != other[:3] if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:3])


class Check(namedtuple("Check", "suite fn")):
    """A registered check: its suite and its function, which takes the
    suite's shared inputs and a `random.Random` and returns a detail str or
    None."""

    __slots__ = ()


class CheckFailed(Exception):
    """A case of a check does not hold; the message is its witness."""


# Registration order is the order `verify` prints.
CHECKS: dict[str, Check] = {}


def check(suite: str):
    """Register the decorated function as a check of `suite`.

    The function takes the suite's shared inputs and its own random stream
    and may return a detail string to print after `PASS`.
    """

    def register(fn):
        CHECKS[fn.__name__.replace("_", "-")] = Check(suite, fn)
        return fn

    return register


def _show(x) -> str:
    if isinstance(x, MeasureRep):
        atoms = x.atoms()
        return _show(atoms.atoms) if atoms is not None else str(x.jacobi_or_none())
    if type(x) in (tuple, list):  # a value type prints as Name(field=value, ...)
        return "(" + ", ".join(_show(v) for v in x) + ")"
    return str(x)


def expect(cond, witness: str = "", *args) -> None:
    """Raise `CheckFailed` unless `cond` holds.

    `witness` names the case (inputs or parameters, order, both sides) as a
    `str.format` template; it is filled from `args` only when the case
    fails, so passing cases do no formatting.
    """
    if not cond:
        raise CheckFailed(witness.format(*map(_show, args)))


def expect_equal(lhs, rhs, witness: str = "", *args) -> None:
    """`expect(lhs == rhs, ...)` with both sides added to the witness."""
    if lhs != rhs:
        expect(False, witness + ": {} != {}", *args, lhs, rhs)


def run_check(name: str, inputs: SimpleNamespace) -> CheckResult:
    """Run one registered check on its suite's shared inputs, timed."""
    start = time.perf_counter()
    try:
        ok, detail = True, CHECKS[name].fn(inputs, random.Random(f"{inputs.seed}:{name}"))
    except (CheckFailed, errors.FreeconvError) as exc:
        raised = "" if isinstance(exc, CheckFailed) else f"raised {type(exc).__name__}: "
        ok, detail = False, f"seed {inputs.seed}, {raised}{exc}"
    return CheckResult(name, ok, detail or "", time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_atomic_rep(
    rng: random.Random, max_atoms: int = 4, spread: int = 8
) -> MeasureRep:
    k = rng.randint(2, max_atoms)
    locs: set[Fraction] = set()
    while len(locs) < k:
        locs.add(Fraction(rng.randint(-spread, spread), rng.randint(1, 3)))
    weights = [rng.randint(1, 5) for _ in range(k)]
    total = sum(weights)
    return MeasureRep.from_atoms(
        [(loc, Fraction(w, total)) for loc, w in zip(sorted(locs), weights)]
    )


def random_moment_list(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]


def random_square_omega_jacobi(rng: random.Random, levels: int = 8) -> JacobiParams:
    alpha = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(levels)]
    omega = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) ** 2 for _ in range(levels - 1)]
    return make_jacobi(alpha, omega)


def random_graph(rng: random.Random, n: int) -> graphs.RootedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                edges.append((u, v))
    return graphs.rooted_graph(n, 0, edges)


def suite_inputs(suite: str, seed: int = 7, n_max: int = 8) -> SimpleNamespace:
    """The inputs the checks of one suite share, built once per suite run."""
    rng = random.Random(seed)
    if suite == "partitions":
        return SimpleNamespace(
            seed=seed,
            n_max=n_max,
            m=random_moment_list(rng, min(n_max, 8)),
            mu=random_moment_list(rng, 12),
            mu_m=random_moment_list(rng, 10),
            nu_m=random_moment_list(rng, 10),
        )
    if suite == "convolutions":
        reps = [(random_atomic_rep(rng), random_atomic_rep(rng)) for _ in range(PAIRS)]
        return SimpleNamespace(seed=seed, reps=reps)
    if suite == "opmodel":
        jmu = random_square_omega_jacobi(rng)
        jnu = random_square_omega_jacobi(rng)
        model = opmodel.FreeProductModel(jmu, jnu, depth_cap=10)
        return SimpleNamespace(
            seed=seed,
            mu=MeasureRep.from_jacobi(jmu),
            nu=MeasureRep.from_jacobi(jnu),
            model=model,
            total=model.total(),
            b1=model.branch(1),
            b2=model.branch(2),
        )
    raise errors.InvalidParameter(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------
# Two-periodic closed form (both factors with one-level K-transforms)
# ---------------------------------------------------------------------------

def two_periodic_G(al, om, be, ga, z: complex) -> complex:
    """Cauchy transform of the s-free convolution of the two measures with
    K-transforms al + om/z and be + ga/z, from the closed form of its
    two-periodic continued fraction; the root is fixed by Im G < 0."""
    al, om, be, ga = (float(x) for x in (al, om, be, ga))
    z = complex(z)
    P = -ga - om + (z - al) * (z - be)
    A2 = ga * om
    delta = ga * (z - al)
    r = cmath.sqrt(P * P - 4.0 * A2)
    g1 = (P + 2.0 * ga - r) / (2.0 * delta)
    g2 = (P + 2.0 * ga + r) / (2.0 * delta)
    if g1.imag < 0 and g2.imag < 0:
        return g1 if abs(g1 * z - 1) < abs(g2 * z - 1) else g2
    return g1 if g1.imag < 0 else g2


# ---------------------------------------------------------------------------
# Partition suite
# ---------------------------------------------------------------------------

@check("partitions")
def interval_partition_count_doubles(inp, rng):
    for n in range(1, min(inp.n_max, 12) + 1):
        expect_equal(len(partitions.compositions(n)), 2 ** (n - 1), "n = {}", n)


@check("partitions")
def odd_refinement_small_cases(inp, rng):
    expect_equal(len(partitions.odd_refinements((3,))), 2, "count for (3,)")
    expect_equal(partitions.odd_refinements((2,)), ((2,),), "(2,)")
    expect_equal(partitions.odd_refinements((1, 2)), ((1, 2),), "(1, 2)")


@check("partitions")
def moment_recovers_from_cumulant_coarsenings(inp, rng):
    # compositions(n) come in the order of their cut bitmasks, and pi is a
    # coarsening of sigma when pi's cuts are a subset of sigma's
    m = inp.m
    for n in range(1, len(m) + 1):
        k = partitions.inverse_boolean_cumulants(m, n)
        for cuts, sigma in enumerate(partitions.compositions(n)):
            rhs = sum((k[sub] for sub in range(cuts + 1) if sub & ~cuts == 0), Fraction(0))
            expect_equal(partitions.moment_function(m, sigma), rhs, "m = {}, sigma = {}", m, sigma)


@check("partitions")
def cumulant_closed_forms_to_four_parts(inp, rng):
    mu = inp.mu

    def M(i):
        return mu[i - 1]

    closed = {
        (3,): M(3),
        (4,): M(4),
        (2, 3): M(2) * M(3) - M(5),
        (1, 2, 3): M(1) * M(2) * M(3) - M(3) * M(3) - M(1) * M(5) + M(6),
        (1, 1, 2, 3): M(1) * M(1) * M(2) * M(3) - M(2) * M(2) * M(3) - M(1) * M(3) * M(3)
        - M(1) * M(1) * M(5) + M(2) * M(5) + M(4) * M(3) + M(1) * M(6) - M(7),
        (1, 1, 1, 2): M(1) ** 3 * M(2) - M(2) * M(1) * M(2) - M(1) * M(2) * M(2)
        - M(1) * M(1) * M(3) + M(2) * M(3) + M(3) * M(2) + M(1) * M(4) - M(5),
    }
    for pi, want in closed.items():
        expect_equal(partitions.inverse_boolean_cumulant(mu, pi), want, "m = {}, pi = {}", mu, pi)


@check("partitions")
def reciprocal_transform_coefficients_by_enumeration(inp, rng):
    for n in range(1, min(inp.n_max, 8) + 1):
        want = partitions.signed_interval_moment_sum(inp.mu, n)
        expect_equal(-moments_to_K(inp.mu[:n]).coeffs[n - 1], want, "m = {}, order {}", inp.mu, n)


@check("partitions")
def outer_hull_fusion_bijection_roundtrip(inp, rng):
    for n in range(1, min(inp.n_max, 9) + 1):
        d2 = partitions.enumerate_D2(n)
        c = partitions.enumerate_C(n)
        expect_equal(len(d2), len(c), "n = {}, |D2| vs |C|", n)
        images = set()
        for pi in d2:
            tau, sigma = partitions.bijection_f(pi)
            images.add((tau, sigma))
            expect_equal(partitions.bijection_f_inverse(tau, sigma), pi, "n = {}, f({}) = {}", n, pi, (tau, sigma))
        expect(images == set(c), "n = {}: the image of f is not C", n)


@check("partitions")
def leg_grouping_bijection_roundtrip(inp, rng):
    for n in range(1, min(inp.n_max, 9) + 1):
        dp2 = partitions.enumerate_DP2(n)
        f_set = partitions.enumerate_F(n)
        expect_equal(len(dp2), len(f_set), "n = {}, |DP2| vs |F|", n)
        images = set()
        for pair in dp2:
            m_, sigma, j = partitions.bijection_g(pair)
            images.add((m_, sigma, j))
            back = partitions.bijection_g_inverse(m_, sigma, j, n)
            expect_equal(back, pair, "n = {}, g({}) = {}", n, pair, (m_, sigma, j))
        expect(images == set(f_set), "n = {}: the image of g is not F", n)


@check("partitions")
def noncrossing_enumeration_matches_catalan(inp, rng):
    for n in range(1, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        expect_equal(len(partitions.noncrossing_partitions(n)), catalan, "n = {}, count", n)


@check("partitions")
def orthogonal_moment_low_order_polynomials(inp, rng):
    mu_m, nu_m = inp.mu_m, inp.nu_m
    closed = {
        1: mu_m[0],
        2: mu_m[1],
        3: mu_m[2] + (mu_m[1] - mu_m[0] ** 2) * nu_m[0],
        4: mu_m[3] + 2 * mu_m[2] * nu_m[0] + mu_m[1] * nu_m[1]
        - 2 * mu_m[1] * mu_m[0] * nu_m[0] - mu_m[0] ** 2 * nu_m[1],
    }
    for order, want in closed.items():
        got = partitions.orthogonal_moment_combinatorial(mu_m, nu_m, (order,))
        expect_equal(got, want, "mu = {}, nu = {}, order {}", mu_m, nu_m, order)


@check("partitions")
def orthogonal_moment_dependence_bounds(inp, rng):
    orth = partitions.orthogonal_moment_combinatorial
    mu_m, nu_m = inp.mu_m, inp.nu_m
    for order in range(1, 9):
        base = orth(mu_m, nu_m, (order,))
        nu_pert = list(nu_m)
        for i in range(max(order - 2, 0), len(nu_pert)):
            nu_pert[i] += Fraction(rng.randint(1, 5))
        expect_equal(orth(mu_m, nu_pert, (order,)), base, "nu perturbed to {}, order {}", nu_pert, order)
        mu_pert = list(mu_m)
        for i in range(order, len(mu_pert)):
            mu_pert[i] += Fraction(rng.randint(1, 5))
        expect_equal(orth(mu_pert, nu_m, (order,)), base, "mu perturbed to {}, order {}", mu_pert, order)


@check("partitions")
def orthogonal_moment_dilation_homogeneity(inp, rng):
    orth = partitions.orthogonal_moment_combinatorial
    lam = Fraction(rng.randint(2, 5), rng.randint(1, 3))
    mu_s = [x * lam ** (i + 1) for i, x in enumerate(inp.mu_m)]
    nu_s = [x * lam ** (i + 1) for i, x in enumerate(inp.nu_m)]
    for order in range(1, 9):
        want = lam**order * orth(inp.mu_m, inp.nu_m, (order,))
        expect_equal(orth(mu_s, nu_s, (order,)), want, "dilation {}, order {}", lam, order)


@check("partitions")
def orthogonal_moment_block_multiplicativity(inp, rng):
    orth = partitions.orthogonal_moment_combinatorial
    for pi in [(2, 3), (1, 4, 2), (3, 3)]:
        blockwise = Fraction(1)
        for part in pi:
            blockwise *= orth(inp.mu_m, inp.nu_m, (part,))
        expect_equal(orth(inp.mu_m, inp.nu_m, pi), blockwise, "pi = {}", pi)


# ---------------------------------------------------------------------------
# Convolution suite
# ---------------------------------------------------------------------------

PAIR = "pair {} ({}, {})"
A_VAL = Fraction(3, 2)  # location of the point mass in the worked examples


def _moments(rep: MeasureRep) -> tuple[Fraction, ...]:
    return rep.moments(ORDER)


@check("convolutions")
def orthogonal_series_equals_partition_oracle(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps):
        cm = _moments(convolve.orthogonal(mu, nu, ORDER))
        oracle = partitions.orthogonal_moments_combinatorial(_moments(mu), _moments(nu), ORDER)
        for n, (got, want) in enumerate(zip(cm, oracle), 1):
            expect_equal(got, want, PAIR + ", order {}", i, mu, nu, n)


@check("convolutions")
def free_routes_equal_cumulant_oracle(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps):
        free_ab = convolve.free(mu, nu, ORDER)  # re-checks K_mu(z - v) == u
        oracle = convolve.free_cumulant_oracle(mu, nu, ORDER)
        expect_equal(_moments(free_ab), _moments(oracle), PAIR, i, mu, nu)
    # a measure's outer view composes a Wigner tail by its continued fraction,
    # moments by their K-series
    alpha = [Fraction(rng.randint(-3, 3), 2) for _ in range(3)]
    omega = [Fraction(rng.randint(1, 4), 2) for _ in range(2)]
    tail = WignerTail(alpha[2], omega[1])
    high = (
        ("wigner-tail", MeasureRep.from_jacobi(make_jacobi(alpha[:2], omega[:1], tail))),
        ("moments", MeasureRep.from_moments(random_atomic_rep(rng).moments(HIGH_ORDER))),
    )
    nu = inp.reps[0][1]
    for how, mu in high:
        free_ab = convolve.free(mu, nu, HIGH_ORDER).moments(HIGH_ORDER)
        oracle = convolve.free_cumulant_oracle(mu, nu, HIGH_ORDER).moments(HIGH_ORDER)
        expect_equal(free_ab, oracle, "{} factor {} with pair 0's nu {}, order {}", how, mu, nu, HIGH_ORDER)


@check("convolutions")
def monotone_splits_into_orthogonal_then_boolean(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps):
        rhs = convolve.boolean(convolve.orthogonal(mu, nu, ORDER), nu, ORDER)
        expect_equal(_moments(convolve.monotone(mu, nu, ORDER)), _moments(rhs), PAIR, i, mu, nu)


@check("convolutions")
def free_splits_through_subordinate_halves(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps):
        f = _moments(convolve.free(mu, nu, ORDER))
        s12, s21 = convolve.sfree(mu, nu, ORDER), convolve.sfree(nu, mu, ORDER)
        splits = {
            "boolean(sfree(mu, nu), sfree(nu, mu))": convolve.boolean(s12, s21, ORDER),
            "monotone(mu, sfree(nu, mu))": convolve.monotone(mu, s21, ORDER),
            "monotone(nu, sfree(mu, nu))": convolve.monotone(nu, s12, ORDER),
        }
        for how, rep in splits.items():
            expect_equal(f, _moments(rep), PAIR + ", free vs {}", i, mu, nu, how)


@check("convolutions")
def iterated_orthogonal_moments_stabilize(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps[:5]):
        iterates = [convolve.orthogonal_iterated(mu, nu, m, ORDER) for m in range(1, 7)]
        for m, (a, b) in enumerate(zip(iterates, iterates[1:]), 1):
            upto = min(2 * m, ORDER)
            expect_equal(a.moments(upto), b.moments(upto), PAIR + ", iterations {} vs {}", i, mu, nu, m, m + 1)


@check("convolutions")
def identity_and_commutativity_laws(inp, rng):
    delta0 = point_mass(0)
    for i, (mu, nu) in enumerate(inp.reps[:10]):
        for op in (convolve.boolean, convolve.free):
            got = _moments(op(mu, nu, ORDER))
            expect_equal(got, _moments(op(nu, mu, ORDER)), PAIR + ", {} commutes", i, mu, nu, op.__name__)
        for op in (convolve.boolean, convolve.monotone, convolve.orthogonal, convolve.free):
            got = _moments(op(mu, delta0, ORDER))
            expect_equal(got, _moments(mu), PAIR + ", {}(mu, delta0)", i, mu, nu, op.__name__)
        for op in (convolve.monotone, convolve.free):
            got = _moments(op(delta0, mu, ORDER))
            expect_equal(got, _moments(mu), PAIR + ", {}(delta0, mu)", i, mu, nu, op.__name__)


@check("convolutions")
def orthogonal_and_subordinate_halves_break_symmetry_laws(inp, rng):
    bern, d1 = bernoulli_symmetric(), point_mass(1)
    for op in (convolve.orthogonal, convolve.sfree):
        lhs = op(d1, bern, 4).moments(4)
        expect(lhs != op(bern, d1, 4).moments(4), "{} commutes on (delta1, bernoulli): {}", op.__name__, lhs)
        a = op(op(bern, bern, 6), bern, 6).moments(6)
        b = op(bern, op(bern, bern, 6), 6).moments(6)
        expect(a != b, "{} associates on bernoulli: {}", op.__name__, a)


@check("convolutions")
def orthogonal_keeps_first_two_moments_of_left_factor(inp, rng):
    for i, (mu, nu) in enumerate(inp.reps[:10]):
        expect_equal(convolve.orthogonal(mu, nu, ORDER).moments(2), mu.moments(2), PAIR, i, mu, nu)


@check("convolutions")
def point_mass_absorbs_on_the_left(inp, rng):
    da = point_mass(A_VAL)
    for i, (_, nu) in enumerate(inp.reps[:5]):
        case = "nu of pair {} = {}, "
        expect_equal(_moments(convolve.orthogonal(da, nu, ORDER)), _moments(da), case + "orthogonal", i, nu)
        expect_equal(_moments(convolve.sfree(da, nu, ORDER)), _moments(da), case + "sfree", i, nu)
        want = _moments(convolve.orthogonal(nu, da, ORDER))
        expect_equal(_moments(convolve.sfree(nu, da, ORDER)), want, case + "sfree(nu, delta)", i, nu)


@check("convolutions")
def worked_recursion_coefficient_examples(inp, rng):
    da = point_mass(A_VAL)
    mu = random_atomic_rep(rng, max_atoms=4)
    jm = mu.jacobi()
    js = convolve.orthogonal(mu, da, ORDER).jacobi()
    want = ((jm.alpha[0],) + tuple(x + A_VAL for x in jm.alpha[1:]), jm.omega)
    expect_equal((js.alpha, js.omega), want, "orthogonal({}, delta)", mu)

    p, l1, l2 = Fraction(1, 3), Fraction(2), Fraction(-1)
    q = 1 - p
    nu = random_atomic_rep(rng, max_atoms=3)
    jn = nu.jacobi()
    jr = convolve.orthogonal(two_point(p, l1, l2), nu, ORDER).jacobi()
    want_alpha = (l1 * p + l2 * q, jn.alpha[0] + l1 * q + l2 * p) + jn.alpha[1:]
    want_omega = (p * q * (l1 - l2) ** 2,) + jn.omega
    expect_equal((jr.alpha, jr.omega), (want_alpha, want_omega), "orthogonal(two-point, {})", nu)

    aw, bw = Fraction(1, 2), Fraction(2)
    w_rep = wigner(aw, bw)
    js = convolve.sfree(w_rep, w_rep, ORDER).jacobi()
    want = ((aw,) + (2 * aw,) * 4, (bw,) + (2 * bw,) * 3)
    expect_equal((js.alpha, js.omega), want, "sfree of wigner({}, {})", aw, bw)
    jf = convolve.free(w_rep, w_rep, ORDER).jacobi()
    expect_equal((jf.alpha, jf.omega), ((2 * aw,) * 5, (2 * bw,) * 4), "free of wigner({}, {})", aw, bw)

    jf = convolve.free(mu, da, ORDER).jacobi()
    expect_equal((jf.alpha, jf.omega), (tuple(x + A_VAL for x in jm.alpha), jm.omega), "free({}, delta)", mu)
    want = _moments(convolve.free(da, mu, ORDER))
    expect_equal(_moments(convolve.free(mu, da, ORDER)), want, "free({}, delta) commutes", mu)


def _nested_chain(j: JacobiParams, m: int, order: int) -> MeasureRep:
    """The m links of j's chain decomposition, nested by orthogonal convolution."""
    chain = convolve.jacobi_chain_decomposition(j, m)
    acc = chain[-1]
    for link in reversed(chain[:-1]):
        acc = convolve.orthogonal(link, acc, order)
    return acc


@check("convolutions")
def chain_links_rebuild_truncated_transforms(inp, rng):
    w01 = wigner(0, 1)
    for m in range(1, 6):
        order_m = max(2 * m - 1, 1)
        acc = _nested_chain(w01.jacobi(), m, order_m)
        expect_equal(acc.moments(order_m), w01.moments(order_m), "{} links", m)


@check("convolutions")
def approximant_reciprocal_identity(inp, rng):
    # the K of m links is (z N - P) / N for the convergent N / P of level
    # m + 1; its series at order 2m + 4 runs past the 2m - 1 moments the
    # chain shares with the semicircle, to w**(2m + 3) in w = 1/z, so N times
    # it is known from z**m down to z**-(m + 3): z N - P, then zeros
    tailed = make_jacobi((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2),), WignerTail(Fraction(1, 4), Fraction(3, 2)))
    for name, j in (("wigner(0, 1)", wigner(0, 1).jacobi()), ("a wigner-tailed recursion", tailed)):
        for m in range(1, 6):
            order = 2 * m + 4
            ks = _nested_chain(j, m, order).k_series(order).coeffs
            n_pol, p_pol = approximant_G(j, m + 1)[m + 1]
            got = poly_mul(n_pol[::-1], ks)[:order]  # in powers of w, from z**m
            want = poly_sub(poly_mul([0, 1], n_pol), p_pol)
            want = [0] * (m + 1 - len(want)) + want[::-1]
            expect(poly_eq(got, want), "{}, {} links: N * K = {}, z N - P = {}", name, m, got, want)


# the fixed measures of the sampled-point checks; all supported in [-2, 2]
def _sample_measures() -> tuple[MeasureRep, ...]:
    return wigner(0, 1), two_point(Fraction(1, 3), -1, 2), bernoulli_symmetric()


@check("convolutions")
def transform_half_plane_mapping(inp, rng):
    reps = _sample_measures()
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 4))
        for rep in reps:
            g, f, k = eval_G(rep, z), eval_F(rep, z), eval_K(rep, z)
            ok = g.imag < 0 and f.imag >= z.imag - 1e-12 and k.imag <= 1e-12
            expect(ok, "{} at z = {}: G = {}, F = {}, K = {}", rep, z, g, f, k)


@check("convolutions")
def orthogonal_transform_expands_imaginary_part(inp, rng):
    w01, tp_m, _ = _sample_measures()
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 4))
        fn = eval_F(tp_m, z)
        val = eval_F(w01, fn) - fn + z
        expect(val.imag >= z.imag - 1e-10, "z = {}: {}", z, val)


@check("convolutions")
def constant_tail_transform_closed_form(inp, rng):
    w01 = wigner(0, 1)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        g, k = eval_G(w01, z), eval_K(w01, z)
        want = (z - cmath.sqrt(z - 2) * cmath.sqrt(z + 2)) / 2
        expect(abs(g - want) < 1e-12, "G of wigner(0, 1) at z = {}: {} vs {}", z, g, want)
        expect(abs(k - g) < 1e-12, "K vs G of wigner(0, 1) at z = {}: {} vs {}", z, k, g)
    aw2, bw2 = Fraction(1, 2), Fraction(3)
    wrep2 = wigner(aw2, bw2)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        k, want = eval_K(wrep2, z), float(bw2) * eval_G(wrep2, z) + float(aw2)
        expect(abs(k - want) < 1e-11, "K of wigner({}, {}) at z = {}: {} vs {}", aw2, bw2, z, k, want)


@check("convolutions")
def fraction_evaluation_matches_moment_series(inp, rng):
    for rep in _sample_measures():  # supports inside [-2, 2], so the tail is tiny
        m12 = rep.moments(12)
        for _ in range(10):
            z = 10 * cmath.exp(1j * rng.uniform(0.15, math.pi - 0.15))
            series_val = sum(float(m12[n - 1]) * z ** (-n - 1) for n in range(1, 13)) + 1 / z
            g = eval_G(rep, z)
            expect(abs(g - series_val) < 1e-8, "{} at z = {}: {} vs {}", rep, z, g, series_val)


@check("convolutions")
def orthogonal_shifts_into_monotone_recursion(inp, rng):
    # shifted-coefficient link between the orthogonal and monotone forms
    for i, (mu, nu) in enumerate(inp.reps[:5]):
        jm = mu.jacobi()
        if len(jm.alpha) < 2:
            continue
        mu_s = MeasureRep.from_jacobi(jm.shift())
        k_orth = convolve.orthogonal(mu, nu, ORDER).k_series(ORDER)
        k_mono = convolve.monotone(mu_s, nu, ORDER).k_series(ORDER)
        c = k_orth - TailSeries.constant(jm.alpha[0], k_orth.order)
        expect(
            c.coeffs[0] == 0, PAIR + ": K of orthogonal has constant term {}, not alpha_0 = {}",
            i, mu, nu, k_orth.coeffs[0], jm.alpha[0],
        )
        lhs = TailSeries(c.coeffs[1:]) - (c * k_mono).truncate(ORDER - 2)  # z * c - c * k_mono
        expect_equal(lhs.coeffs, TailSeries.constant(jm.omega[0], lhs.order).coeffs, PAIR, i, mu, nu)


@check("convolutions")
def subordination_fixed_point_system(inp, rng):
    tol = 10 * convolve.SUBORDINATION_TOL
    w01, w02 = wigner(0, 1), wigner(0, 2)
    for im in (1.0, 2.0, 3.0):
        z = complex(0.3, im)
        u, v = convolve.subordination_eval(w01, w01, z)
        f = eval_F(w02, z)
        expect(abs(u - v) < tol, "wigner(0, 1) twice at z = {}: u = {}, v = {}", z, u, v)
        expect(abs((z - 2 * u) - f) < 1e-9, "wigner(0, 1) twice at z = {}: z - 2u = {}, F = {}", z, z - 2 * u, f)
    cases = [(random_atomic_rep(rng, spread=2), random_atomic_rep(rng, spread=2), 0.7 + 3j) for _ in range(5)]
    _, tp_m, bern = _sample_measures()
    cases += [(tp_m, bern, z) for z in (0.5 + 2j, -1 + 3j, 2.5j)]
    for mu, nu, z in cases:
        u, v = convolve.subordination_eval(mu, nu, z)
        f1, f2 = z - v, z - u
        lhs, rhs = eval_F(mu, f1), eval_F(nu, f2)
        expect(abs(lhs - rhs) < tol, "({}, {}) at z = {}: F_mu = {}, F_nu = {}", mu, nu, z, lhs, rhs)
        rhs = f1 + f2 - z
        expect(abs(lhs - rhs) < tol, "({}, {}) at z = {}: F_mu = {}, f1 + f2 - z = {}", mu, nu, z, lhs, rhs)


@check("convolutions")
def pointwise_subordination_matches_series(inp, rng):
    w01, tp_m, bern = _sample_measures()
    for mu, nu in [(bern, tp_m), (w01, bern), (tp_m, w01)]:
        ks = convolve.free(mu, nu, ORDER).k_series(ORDER)
        for _ in range(5):
            z = 20 * cmath.exp(1j * rng.uniform(0.2, math.pi - 0.2))
            u, v = convolve.subordination_eval(mu, nu, z)
            pointwise = eval_F(mu, z - v)
            series_val = z - sum(float(c) * z ** (-i) for i, c in enumerate(ks.coeffs))
            case = "({}, {}) at z = {}: {} vs {}"
            expect(abs(pointwise - series_val) < 1e-6, case, mu, nu, z, pointwise, series_val)


# K-transforms al + om/z and be + ga/z of the two-periodic example
TWO_PERIODIC = (Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(1))


def _two_periodic_left() -> MeasureRep:
    al, om, _, _ = TWO_PERIODIC
    return MeasureRep.from_jacobi(make_jacobi((al, 0), (om, 0)))


@check("convolutions")
def subordinate_half_gives_two_periodic_coefficients(inp, rng):
    al, om, be, ga = TWO_PERIODIC
    nu2 = MeasureRep.from_jacobi(make_jacobi((be, 0), (ga, 0)))
    js = convolve.sfree(_two_periodic_left(), nu2, ORDER).jacobi()
    want = ((al, be, al, be, al), (om, ga, om, ga))
    expect_equal((js.alpha, js.omega), want, "K = {} + {}/z and {} + {}/z", al, om, be, ga)


@check("convolutions")
def two_periodic_closed_form_matches_fraction(inp, rng):
    al, om, be, ga = TWO_PERIODIC
    fraction = make_jacobi((al, be) * 200, (om, ga) * 199 + (om, 0))
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(2, 6))
        g = eval_G(fraction, z)
        closed = two_periodic_G(al, om, be, ga, z)
        expect(abs(g - closed) < 1e-9, "z = {}: fraction {} vs closed form {}", z, g, closed)


@check("convolutions")
def two_periodic_density_on_stable_band(inp, rng):
    alf, omf, bef, gaf = (float(x) for x in TWO_PERIODIC)
    a2 = gaf * omf
    disc_out = (alf - bef) ** 2 + 4 * (gaf + omf + 2 * math.sqrt(a2))
    disc_in = (alf - bef) ** 2 + 4 * (gaf + omf - 2 * math.sqrt(a2))
    right_out = ((alf + bef) + math.sqrt(disc_out)) / 2
    right_in = ((alf + bef) + math.sqrt(disc_in)) / 2
    lo = right_in + 0.08 * (right_out - right_in)
    hi = right_out - 0.08 * (right_out - right_in)
    for i in range(60):
        x = lo + (hi - lo) * i / 59
        dens = -two_periodic_G(*TWO_PERIODIC, complex(x, 1e-6)).imag / math.pi
        P = -gaf - omf + (x - alf) * (x - bef)
        f = math.sqrt(max(4 * a2 - P * P, 0.0)) / (2 * math.pi * gaf * (x - alf))
        expect(abs(dens - f) < 1e-3, "x = {}: {} vs {}", x, dens, f)


@check("convolutions")
def semicircle_density_recovered_by_inversion(inp, rng):
    grid = [-3 + 6 * i / 600 for i in range(601)]
    for x, dens in stieltjes_density(wigner(0, 1), grid, epsilon=1e-6):
        f = math.sqrt(max(4 - x * x, 0.0)) / (2 * math.pi)
        expect(abs(dens - f) <= 1e-3, "semicircle at x = {}: {} vs {}", x, dens, f)
    for x, dens in stieltjes_density(_two_periodic_left(), [-10.0, 10.0], epsilon=1e-6):
        expect(dens <= 1e-3, "off the support of K = 1/2 + 2/z at x = {}: {}", x, dens)


# ---------------------------------------------------------------------------
# Operator-model suite
# ---------------------------------------------------------------------------

def _phi(op_words: Sequence[opmodel.ModelOperator], vec: dict) -> Fraction:
    """<w vec, vec>/<vec, vec> for the product w of `op_words`, with `vec` on
    the empty word, whose weight is 1, so plain dots are the inner product."""
    cur = vec
    for op in reversed(op_words):
        cur = op.apply(cur)
    return opmodel.vec_dot(cur, vec) / opmodel.vec_dot(vec, vec)


@check("opmodel")
def tridiagonal_factor_reproduces_moments(inp, rng):
    model = inp.model
    a1 = model.factors[0]
    for label, op, weights in (
        ("A1", a1, model.factor_weights[0]),
        ("X1", model.x1, model.weights),
        ("X2", model.x2, model.weights),
    ):
        expect(op.is_self_adjoint(weights), "{} is not self-adjoint under its weights", label)
    vac_factor = {0: Fraction(1)}
    cur = vac_factor
    factor_moments = []
    for _ in range(15):
        cur = a1.apply(cur)
        factor_moments.append(opmodel.vec_dot(cur, vac_factor))
    expect_equal(tuple(factor_moments), inp.mu.moments(15), "mu = {}", inp.mu)


@check("opmodel")
def vacuum_moments_match_free_convolution(inp, rng):
    model, mu, nu = inp.model, inp.mu, inp.nu
    got = model.state_moments(inp.total, model.depth_cap)
    expect_equal(tuple(got), convolve.free(mu, nu, 10).moments(10), "mu = {}, nu = {}", mu, nu)


@check("opmodel")
def irrational_root_factors_stay_exact(inp, rng):
    # omega = 2 has no rational square root; as a prefix and as a finite recursion
    for alpha, end in (([0, 0], []), ([0, Fraction(1, 2)], [0])):
        irr = make_jacobi(alpha, [Fraction(2)] + end)
        model = opmodel.FreeProductModel(irr, irr, depth_cap=10)
        got = model.state_moments(model.total(), 10)
        rep = MeasureRep.from_jacobi(make_jacobi(alpha, [Fraction(2), 0]))
        expect_equal(tuple(got), convolve.free(rep, rep, 10).moments(10), "alpha = {}, omega = (2,)", alpha)


@check("opmodel")
def replica_sum_reassembles_representation(inp, rng):
    model = inp.model
    for factor, lam in ((1, model.x1), (2, model.x2)):
        total_rep = opmodel.ModelOperator(len(model.basis), {})
        for n in range(1, model.depth_cap + 2):
            total_rep = total_rep + model.replica(factor, n)
        expect(total_rep.equals(lam), "factor {}", factor)


@check("opmodel")
def distant_replicas_annihilate(inp, rng):
    for n, m in [(1, 3), (2, 4), (1, 4), (3, 6)]:
        prod = inp.model.replica(1, n) @ inp.model.replica(1, m)
        nonzero = sum(map(len, prod.entries.values()))
        expect(not nonzero, "levels {} and {}: {} nonzero entries", n, m, nonzero)


@check("opmodel")
def first_replica_acts_like_factor(inp, rng):
    got = inp.model.state_moments(inp.model.replica(1, 1), 10)
    expect_equal(tuple(got), inp.mu.moments(10), "mu = {}", inp.mu)


@check("opmodel")
def branch_moments_give_subordinate_half(inp, rng):
    model, mu, nu = inp.model, inp.mu, inp.nu
    expect_equal(tuple(model.state_moments(inp.b1, 8)), convolve.sfree(mu, nu, 8).moments(8), "branch 1")
    expect_equal(tuple(model.state_moments(inp.b2, 8)), convolve.sfree(nu, mu, 8).moments(8), "branch 2")


@check("opmodel")
def branch_recursion_peels_one_replica(inp, rng):
    model = inp.model
    for j, k in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        rhs = model.replica(j, k) + model.branch(3 - j, k + 1)
        expect(model.branch(j, k).equals(rhs), "branch({}, {})", j, k)


@check("opmodel")
def branches_sum_to_total(inp, rng):
    expect((inp.b1 + inp.b2).equals(inp.total), "b1 + b2 differs from the total")


@check("opmodel")
def branches_are_boolean_independent_in_vacuum(inp, rng):
    b1, b2, vac = inp.b1, inp.b2, inp.model.vacuum()
    for k1, k2, k3 in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        want = _phi([b1] * k1, vac) * _phi([b2] * k2, vac) * _phi([b1] * k3, vac)
        expect_equal(_phi([b1] * k1 + [b2] * k2 + [b1] * k3, vac), want, "b1^{} b2^{} b1^{}", k1, k2, k3)
        want = _phi([b2] * k1, vac) * _phi([b1] * k2, vac)
        expect_equal(_phi([b2] * k1 + [b1] * k2, vac), want, "b2^{} b1^{}", k1, k2)


@check("opmodel")
def first_replica_and_rest_are_monotone_independent(inp, rng):
    x = inp.model.replica(1, 1)
    zrest = inp.total - x
    vac = inp.model.vacuum()
    for p1, q1, p2 in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2), (1, 3, 2)]:
        want = _phi([zrest] * q1, vac) * _phi([x] * (p1 + p2), vac)
        expect_equal(_phi([x] * p1 + [zrest] * q1 + [x] * p2, vac), want, "x^{} rest^{} x^{}", p1, q1, p2)
        want = _phi([zrest] * q1, vac) * _phi([x] * p1, vac)
        expect_equal(_phi([x] * p1 + [zrest] * q1, vac), want, "x^{} rest^{}", p1, q1)


@check("opmodel")
def centered_alternating_products_vanish_in_vacuum(inp, rng):
    model = inp.model
    mu_m = inp.mu.moments(6)
    nu_m = inp.nu.moments(6)
    for powers in [(1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]:
        vec = model.vacuum()
        for i, p in enumerate(reversed(powers)):
            idx = (len(powers) - 1 - i) % 2
            op = model.x1 if idx == 0 else model.x2
            mean = (mu_m if idx == 0 else nu_m)[p - 1]
            cur = vec
            for _ in range(p):
                cur = op.apply(cur)
            vec = {k: cur.get(k, 0) - mean * vec.get(k, 0) for k in set(cur) | set(vec)}
        val = opmodel.vec_dot(vec, model.vacuum())
        expect(val == 0, "powers {}: {}", powers, val)


@check("opmodel")
def replica_branch_pairs_pass_orthogonality(inp, rng):
    model = inp.model
    vac = model.vacuum()
    cases = [(1, 1, 2, 2, vac, model.word_vector(((1, 1),))), (2, 1, 1, 2, vac, model.word_vector(((2, 1),)))]
    for _ in range(3):
        vec = {}
        for k in range(1, 4):
            idx = model.basis.index.get(((1, k),))
            if idx is not None:
                vec[idx] = Fraction(rng.randint(1, 5))
        cases.append((1, 1, 2, 2, vac, vec))
    cases.append((1, 2, 2, 3, model.word_vector(((2, 1),)), model.word_vector(((1, 1), (2, 1)))))
    for j, n, i, k, xi, eta in cases:
        report = opmodel.orthogonality_check(model.replica(j, n), model.branch(i, k), xi, eta, 3, model.weights)
        case = "replica({}, {}), branch({}, {}), xi = {}, eta = {}: {}"
        expect(report.ok, case, j, n, i, k, xi, eta, report.violations[:1])


@check("opmodel")
def generic_free_pair_fails_orthogonality(inp, rng):
    model = inp.model
    neg = opmodel.orthogonality_check(
        model.x1, model.x2, model.vacuum(), model.word_vector(((1, 1),)), 3, model.weights
    )
    expect(not neg.ok, "X1, X2 passed all {} cases", neg.checked)
    return f"{len(neg.violations)} violating monomials"


@check("opmodel")
def higher_branches_keep_subordinate_law_at_deeper_states(inp, rng):
    model, mu, nu = inp.model, inp.mu, inp.nu
    got = model.state_moments(model.branch(1, 2), 6, vec=model.word_vector(((2, 1),)))
    expect_equal(tuple(got), convolve.sfree(mu, nu, 6).moments(6), "branch(1, 2) at word (2,1)")
    got = model.state_moments(model.branch(2, 2), 6, vec=model.word_vector(((1, 1),)))
    expect_equal(tuple(got), convolve.sfree(nu, mu, 6).moments(6), "branch(2, 2) at word (1,1)")


@check("opmodel")
def two_point_free_ball_gives_arcsine(inp, rng):
    arcsine = tuple(Fraction(m) for m in (0, 2, 0, 6, 0, 20))
    bern = bernoulli_symmetric()
    expect_equal(convolve.free(bern, bern, 6).moments(6), arcsine, "series route")
    p2 = graphs.path_graph(2)
    ball = graphs.free_product_ball(p2, p2, 6)
    expect_equal(graphs.root_spectral_moments(ball, 6), arcsine, "graph route, radius 6")


@check("opmodel")
def two_point_branch_gives_subordinate_half(inp, rng):
    p2 = graphs.path_graph(2)
    got = graphs.root_spectral_moments(graphs.free_product_branch(p2, p2, 8, factor=1), 6)
    want = convolve.sfree(bernoulli_symmetric(), bernoulli_symmetric(), 6).moments(6)
    expect_equal(got, want, "radius 8")


@check("opmodel")
def graph_products_realize_the_five_convolutions(inp, rng):
    for _ in range(5):
        g1 = random_graph(rng, rng.randint(2, 4))
        g2 = random_graph(rng, rng.randint(2, 4))
        r1 = MeasureRep.from_moments(graphs.root_spectral_moments(g1, 8))
        r2 = MeasureRep.from_moments(graphs.root_spectral_moments(g2, 8))
        products = [
            ("star", graphs.graph_star(g1, g2), convolve.boolean),
            ("comb", graphs.graph_comb(g1, g2), convolve.monotone),
            ("orthogonal", graphs.graph_orthogonal(g1, g2), convolve.orthogonal),
            ("free ball", graphs.free_product_ball(g1, g2, 4), convolve.free),
            ("branch", graphs.free_product_branch(g1, g2, 4, factor=1), convolve.sfree),
        ]
        for label, g, op in products:
            got, want = graphs.root_spectral_moments(g, 8), op(r1, r2, 8).moments(8)
            expect_equal(got, want, "{} of graphs with edges {} and {}", label, g1.edges, g2.edges)


@check("opmodel")
def tensor_pair_of_graphs_passes_orthogonality(inp, rng):
    # graph_orthogonal keeps g1's numbering: its edges are A1 x P, the
    # copies' edges (1 - P) x A2
    g1, g2 = graphs.path_graph(3), graphs.path_graph(2)
    g = graphs.graph_orthogonal(g1, g2)
    a_first, a_second = (
        opmodel.ModelOperator(g.n, {arc: 1 for u, v in edges for arc in ((u, v), (v, u))})
        for edges in (g1.edges, g.edges - g1.edges)
    )
    xi = {g1.root: Fraction(1)}
    eta = {g1.non_root()[0]: Fraction(1)}
    report = opmodel.orthogonality_check(a_first, a_second, xi, eta, 3, [1] * g.n)
    expect(report.ok, "A1 x P, (1 - P) x A2 on path(3) x path(2): {}", report.violations[:1])


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _run_suite(suite: str, seed: int, n_max: int = 8) -> list[CheckResult]:
    """Every check of one suite, in registration order, on shared inputs."""
    inputs = suite_inputs(suite, seed, n_max)
    return [run_check(name, inputs) for name, c in CHECKS.items() if c.suite == suite]


def suite_partitions(n_max: int = 8, seed: int = 7) -> list[CheckResult]:
    return _run_suite("partitions", seed, n_max)


def suite_convolutions(seed: int = 7) -> list[CheckResult]:
    return _run_suite("convolutions", seed)


def suite_opmodel(seed: int = 7) -> list[CheckResult]:
    return _run_suite("opmodel", seed)


def run_suites(which: str, n_max: int = 8, seed: int = 7) -> list[CheckResult]:
    if which not in ("all",) + SUITES:
        raise errors.InvalidParameter(f"unknown suite {which!r}")
    if errors._count(n_max, 1, "--n-max") > partitions.MAX_ENUM_N:
        # every check clamps n at or below the enumerations' cap
        raise errors.InvalidParameter(
            f"--n-max must be <= {partitions.MAX_ENUM_N}, the partition enumerations' cap, got {n_max}"
        )
    out: list[CheckResult] = []
    if which in ("all", "partitions"):
        out.extend(suite_partitions(n_max=n_max, seed=seed))
    if which in ("all", "convolutions"):
        out.extend(suite_convolutions(seed=seed))
    if which in ("all", "opmodel"):
        out.extend(suite_opmodel(seed=seed))
    return out
