"""Acceptance suite: every check of the `freeconv.verify` registry, one test
per check name, each printing its `PASS`/`FAIL` line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
checks pin every tolerance themselves; nothing is calibrated at runtime.
The partition checks run at n_max = 9; the oracle triangle and the
operator model also carry wall-time bounds.
"""

import time
from collections import Counter
from fractions import Fraction

import pytest

from freeconv import verify

SEED = 7

# Wall-time bounds, in seconds, on two groups of checks: each group's
# checks, with its shared inputs, must finish within the bound in all.
# On a 2-core machine under Python 3.11 the oracle triangle takes about
# 0.1 s and the operator model about 0.5 s.
BOUNDS = {"oracle triangle": 5.0, "operator model": 5.0}
GROUP = {
    "orthogonal-series-equals-partition-oracle": "oracle triangle",
    "free-routes-equal-cumulant-oracle": "oracle triangle",
    "free-splits-through-subordinate-halves": "oracle triangle",
}
GROUP.update((name, "operator model") for name, c in verify.CHECKS.items() if c.suite == "opmodel")


@pytest.fixture(scope="module")
def spent():
    return Counter()


@pytest.fixture(scope="module")
def partitions():
    return verify.suite_inputs("partitions", seed=SEED, n_max=9)


@pytest.fixture(scope="module")
def convolutions():
    return verify.suite_inputs("convolutions", seed=SEED)


@pytest.fixture(scope="module")
def opmodel(spent):
    t0 = time.perf_counter()
    inputs = verify.suite_inputs("opmodel", seed=SEED)
    spent["operator model"] += time.perf_counter() - t0
    return inputs


def test_elapsed_is_timed_and_not_compared():
    inputs = verify.suite_inputs("partitions", seed=SEED, n_max=4)
    result = verify.run_check("odd-refinement-small-cases", inputs)
    assert result.ok and result.elapsed > 0
    assert result == verify.CheckResult(result.name, True, result.detail, elapsed=result.elapsed + 1)


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check(name, request, spent):
    inputs = request.getfixturevalue(verify.CHECKS[name].suite)
    result = verify.run_check(name, inputs)
    print(f"{'PASS' if result.ok else 'FAIL'} {name}" + (f"  ({result.detail})" if result.detail else ""))
    assert result.ok, result.detail
    group = GROUP.get(name)
    if group is not None:
        spent[group] += result.elapsed
        assert spent[group] < BOUNDS[group], f"{group}: {spent[group]:.1f}s so far"


def test_stabilization_builds_each_iterate_once(convolutions, monkeypatch):
    # iterates m = 1..6 of each of the 5 pairs, neighbours compared
    calls = []
    real = verify.convolve.orthogonal_iterated

    def record(mu, nu, m, order):
        calls.append((id(mu), id(nu), m))
        return real(mu, nu, m, order)

    monkeypatch.setattr(verify.convolve, "orthogonal_iterated", record)
    assert verify.run_check("iterated-orthogonal-moments-stabilize", convolutions).ok
    assert len(calls) == len(set(calls)) == 5 * 6


def test_coarsening_check_grades_each_order_once(partitions, monkeypatch):
    # the cumulants of every composition of n come from one grading of m[:n]
    graded = []
    real = verify.partitions._graded
    monkeypatch.setattr(verify.partitions, "_graded", lambda *seqs, h=1: graded.append(len(seqs[0])) or real(*seqs, h=h))
    assert verify.run_check("moment-recovers-from-cumulant-coarsenings", partitions).ok
    assert graded == list(range(1, len(partitions.m) + 1))


def test_reciprocal_identity_fails_on_a_perturbed_convergent(convolutions, monkeypatch):
    # one coefficient of N_4, read at 3 links, is moved off the recurrence
    real = verify.approximant_G

    def perturbed(j, m):
        out = real(j, m)
        if m == 4:
            n, p = out[4]
            out[4] = ([n[0] + Fraction(1, 7)] + n[1:], p)
        return out

    monkeypatch.setattr(verify, "approximant_G", perturbed)
    result = verify.run_check("approximant-reciprocal-identity", convolutions)
    assert not result.ok and result.detail.startswith("seed 7, wigner(0, 1), 3 links:"), result.detail


def test_shift_precondition_fails_the_check_and_names_the_pair(convolutions, monkeypatch):
    # K of the orthogonal convolution moved by 1 (boolean with delta_1 adds
    # 1 to K), so its constant term is no longer alpha_0 of mu
    real = verify.convolve.orthogonal

    def moved(mu, nu, order):
        return verify.convolve.boolean(real(mu, nu, order), verify.point_mass(1), order)

    monkeypatch.setattr(verify.convolve, "orthogonal", moved)
    result = verify.run_check("orthogonal-shifts-into-monotone-recursion", convolutions)
    i, (mu, nu) = next((i, p) for i, p in enumerate(convolutions.reps) if len(p[0].jacobi().alpha) >= 2)
    alpha0 = mu.jacobi().alpha[0]
    show = verify._show
    want = (
        f"seed 7, pair {i} ({show(mu)}, {show(nu)}): "
        f"K of orthogonal has constant term {show(alpha0 + 1)}, not alpha_0 = {show(alpha0)}"
    )
    assert not result.ok and result.detail == want, result.detail
