"""Seeded inputs and request lists for the three benchmark workloads.

Everything here is the benchmark's own code: the same (workload, seed)
always gives the same measure files, graph files and argv lists, and no
helper of the program under test is used to make them, so a refactor of
the program cannot change its own inputs.

The seed sets the numbers in the inputs, not their shapes: atom counts,
recursion depths, iteration counts, graph sizes and moment counts cycle
through fixed lists, so the work per request, and with it the timings,
changes little from seed to seed.

Every request asks only for orders its input determines: moment and
truncated-recursion inputs carry at least ``CLI_MAX_ORDER`` exact moments,
and ``graph free-ball`` never asks for more moments than its radius.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("free-highorder", "cli-interactive", "verify-all")

ATOM_WEIGHT_TOTAL = 12

FREE_ORDER = 24
FREE_PAIRS = 6

CLI_OPS = ("free", "boolean", "monotone", "orthogonal", "sfree", "orthogonal-iter")
CLI_MIN_ORDER = 6
CLI_MAX_ORDER = 12
CLI_CONVOLVE_PER_CELL = 5  # per (op, order)
CLI_DENSITY = 12
CLI_GRAPH = 12
CLI_POOL_PER_FORM = 6
TRUNCATED_LEVELS = CLI_MAX_ORDER // 2 + 1  # 2*levels - 1 >= CLI_MAX_ORDER

VERIFY_SEEDS = 1
VERIFY_N_MAX = 8

# Workloads whose every request starts from a freshly imported package, as
# a `freeconv verify` invocation does: the partition enumerations are
# memoized per process, and a warm pass runs ~12% faster than a cold one.
FRESH_PROGRAM = {"verify-all"}

# Requests of the traced run: a fixed prefix of the request list, so its
# counts depend on the seed alone and not on how fast the host is.
TRACE_REQUESTS = {"free-highorder": 3, "cli-interactive": 234, "verify-all": 1}


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the output checks need to know."""

    argv: tuple[str, ...]
    kind: str  # "convolve" | "density" | "graph" | "verify"
    meta: dict = field(default_factory=dict, compare=False)


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"freeconv-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def atoms_measure(rng: random.Random, k: int, q: int) -> dict:
    """``k`` atoms at locations p/q in [-4, 4], with weights n/12."""
    locs: set[Fraction] = set()
    while len(locs) < k:
        locs.add(Fraction(rng.randint(-4 * q, 4 * q), q))
    cuts = sorted(rng.sample(range(1, ATOM_WEIGHT_TOTAL), k - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [ATOM_WEIGHT_TOTAL])]
    return {
        "type": "atoms",
        "atoms": [[str(loc), str(Fraction(w, ATOM_WEIGHT_TOTAL))] for loc, w in zip(sorted(locs), weights)],
    }


def _recursion(rng: random.Random, levels: int) -> tuple[list[Fraction], list[Fraction]]:
    alpha = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(levels)]
    omega = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(levels)]
    return alpha, omega


def jacobi_moments(alpha, omega, tail, n: int) -> list[Fraction]:
    """m1..mn of the recursion coefficients, by counting weighted Motzkin
    paths: up steps weigh 1, a level step at l weighs alpha[l], a down step
    from l+1 to l weighs omega[l].  ``tail`` = (a, b) continues both
    sequences; without it the prefix must have n//2 + 1 levels."""
    levels = n // 2 + 1

    def a_at(k):
        return alpha[k] if k < len(alpha) else tail[0]

    def w_at(k):
        return omega[k] if k < len(omega) else tail[1]

    a = [Fraction(a_at(k)) for k in range(levels)]
    w = [Fraction(w_at(k)) for k in range(levels - 1)]
    v = [Fraction(1)] + [Fraction(0)] * levels
    out = []
    for _ in range(n):
        nxt = [Fraction(0)] * (levels + 1)
        for l in range(levels):
            if v[l]:
                nxt[l] += a[l] * v[l]
                nxt[l + 1] += v[l]
                if l:
                    nxt[l - 1] += w[l - 1] * v[l]
        v = nxt
        out.append(v[0])
    return out


def moments_measure(rng: random.Random, levels: int) -> dict:
    """Exactly CLI_MAX_ORDER moments of a random recursion of ``levels``
    levels with a constant tail."""
    alpha, omega = _recursion(rng, levels)
    tail = (Fraction(rng.randint(-1, 1), 2), Fraction(rng.randint(1, 4), 4))
    return {"type": "moments", "m": [str(x) for x in jacobi_moments(alpha, omega, tail, CLI_MAX_ORDER)]}


def wigner_jacobi_measure(rng: random.Random, levels: int) -> dict:
    alpha, omega = _recursion(rng, levels)
    return {
        "type": "jacobi",
        "alpha": [str(x) for x in alpha],
        "omega": [str(x) for x in omega],
        "tail": {
            "kind": "wigner",
            "a": str(Fraction(rng.randint(-1, 1), 2)),
            "b": str(Fraction(rng.randint(1, 4), 4)),
        },
    }


def truncated_jacobi_measure(rng: random.Random) -> dict:
    alpha, omega = _recursion(rng, TRUNCATED_LEVELS)
    return {
        "type": "jacobi",
        "alpha": [str(x) for x in alpha],
        "omega": [str(x) for x in omega[: TRUNCATED_LEVELS - 1]],
        "tail": {"kind": "truncate"},
    }


def random_graph(rng: random.Random, n: int) -> dict:
    """``n`` vertices rooted at 0; the root always has an edge."""
    edges = [[0, rng.randint(1, n - 1)]]
    for u in range(n):
        for v in range(u + 1, n):
            if [u, v] not in edges and rng.random() < 0.5:
                edges.append([u, v])
    return {"vertices": n, "root": 0, "edges": sorted(edges)}


# ---------------------------------------------------------------------------
# Request lists
# ---------------------------------------------------------------------------

def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _free_highorder(rng: random.Random, workdir: str) -> list[Request]:
    out = []
    for i in range(FREE_PAIRS):
        mu = atoms_measure(rng, 2 + i % 3, 1 + i // 4 % 3)
        nu = atoms_measure(rng, 2 + i // 3 % 3, 1 + (i + 1) % 3)
        a = _write(os.path.join(workdir, f"mu{i}.json"), mu)
        b = _write(os.path.join(workdir, f"nu{i}.json"), nu)
        argv = ("convolve", "free", a, b, "--order", str(FREE_ORDER))
        out.append(Request(argv, "convolve", {"op": "free", "order": FREE_ORDER, "mu": mu, "nu": nu}))
    return out


def _cli_interactive(rng: random.Random, workdir: str) -> list[Request]:
    # The j-th measure of each pool has 2-4 atoms with denominator 1-3,
    # 1-3 recursion levels before a constant tail, 0-3 levels before a
    # wigner tail, or TRUNCATED_LEVELS levels.
    makers = (
        lambda j: atoms_measure(rng, 2 + j % 3, 1 + j // 2 % 3),
        lambda j: moments_measure(rng, 1 + j % 3),
        lambda j: wigner_jacobi_measure(rng, j % 4),
        lambda j: truncated_jacobi_measure(rng),
    )
    pools = [[] for _ in makers]
    for i in range(CLI_POOL_PER_FORM * len(makers)):
        form = i % len(makers)
        obj = makers[form](i // len(makers))
        pools[form].append((_write(os.path.join(workdir, f"m{i}.json"), obj), obj))

    # Every (op, order) pair and every pair of input forms comes equally
    # often, and the pool entries are taken in a fixed cycle, so the seed
    # changes the numbers and not the request mix.
    reqs = []
    k = 0
    for op in CLI_OPS:
        for order in range(CLI_MIN_ORDER, CLI_MAX_ORDER + 1):
            for rep in range(CLI_CONVOLVE_PER_CELL):
                a, mu = pools[k % len(makers)][k // len(makers) % CLI_POOL_PER_FORM]
                b, nu = pools[k // len(makers) % len(makers)][k // len(makers) ** 2 % CLI_POOL_PER_FORM]
                k += 1
                argv = ["convolve", op, a, b, "--order", str(order)]
                if op == "orthogonal-iter":
                    argv += ["--iterations", str(1 + (order + rep) % 4)]
                reqs.append(Request(tuple(argv), "convolve", {"op": op, "order": order, "mu": mu, "nu": nu}))

    for i in range(CLI_DENSITY):
        obj = wigner_jacobi_measure(rng, i % 3)
        path = _write(os.path.join(workdir, f"d{i}.json"), obj)
        argv = ("density", path, "--xmin", "-4", "--xmax", "4", "--points", "601")
        reqs.append(Request(argv, "density", {"measure": obj, "epsilon": 1e-6}))

    for i in range(CLI_GRAPH):
        size = i // 4 % 3  # 0-2: graph sizes, radius and moment counts
        g1, g2 = random_graph(rng, 2 + size), random_graph(rng, 2 + (size + 1) % 3)
        a = _write(os.path.join(workdir, f"g{i}a.json"), g1)
        b = _write(os.path.join(workdir, f"g{i}b.json"), g2)
        op = ("star", "comb", "orthogonal", "free-ball")[i % 4]
        if op == "free-ball":
            radius = 3 + size
            moments = radius
            argv = ("graph", op, a, b, "--radius", str(radius), "--moments", str(moments))
        else:
            moments = 4 + 2 * size
            argv = ("graph", op, a, b, "--moments", str(moments))
        reqs.append(Request(argv, "graph", {"op": op, "moments": moments, "g1": g1, "g2": g2}))

    rng.shuffle(reqs)
    return reqs


def _verify_all(rng: random.Random, workdir: str) -> list[Request]:
    out = []
    for _ in range(VERIFY_SEEDS):
        s = rng.randrange(1, 2**31)
        argv = ("verify", "--suite", "all", "--n-max", str(VERIFY_N_MAX), "--seed", str(s))
        out.append(Request(argv, "verify", {"seed": s}))
    return out


_BUILDERS = {
    "free-highorder": _free_highorder,
    "cli-interactive": _cli_interactive,
    "verify-all": _verify_all,
}


def build(workload: str, seed: int, workdir: str) -> list[Request]:
    """Write the workload's input files under ``workdir`` and return its
    request list; the closed loop cycles through it in order."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](_rng(workload, seed), workdir)
