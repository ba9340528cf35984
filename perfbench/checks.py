"""Output checks, run outside the timed region.

The oracles here share no code with the program under test: moments of
the inputs come from :func:`workloads.jacobi_moments` and plain atom sums,
free convolution from the functional equation M(z) = 1 + sum k_n z^n M(z)^n
(Nica-Speicher), boolean convolution from M = 1 + eta*M, and densities
from the benchmark's own continued fraction.  Where the program offers a
second route (the non-crossing cumulant oracle up to order 12, the
moment-level convolutions behind the graph products), it is compared as
well.  A check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

from workloads import Request, jacobi_moments

ORACLE_MAX_ORDER = 12
DENSITY_TOL = 1e-6  # relative; the CLI prints 12 significant digits


# ---------------------------------------------------------------------------
# Independent moment arithmetic
# ---------------------------------------------------------------------------

def input_moments(obj: dict, n: int) -> list[Fraction]:
    """m1..mn of a measure object written by :mod:`workloads`."""
    kind = obj["type"]
    if kind == "atoms":
        pts = [(Fraction(l), Fraction(w)) for l, w in obj["atoms"]]
        return [sum(w * l**k for l, w in pts) for k in range(1, n + 1)]
    if kind == "moments":
        return [Fraction(x) for x in obj["m"][:n]]
    tail = obj["tail"]
    t = (Fraction(tail["a"]), Fraction(tail["b"])) if tail["kind"] == "wigner" else None
    alpha = [Fraction(x) for x in obj["alpha"]]
    omega = [Fraction(x) for x in obj["omega"]]
    return jacobi_moments(alpha, omega, t, n)


def _power_coeff(table, m, j: int, d: int) -> None:
    """table[j][d] = [z^d] M(z)^j, from table[j-1] and m (m[0] = 1)."""
    prev = table[j - 1]
    table[j][d] = sum(m[i] * prev[d - i] for i in range(d + 1))


def free_cumulants(m: list[Fraction]) -> list[Fraction]:
    """k1..kn from m1..mn through M = 1 + sum_j k_j z^j M^j."""
    n = len(m)
    mm = [Fraction(1)] + list(m)
    table = [[Fraction(1)] + [Fraction(0)] * n] + [[None] * (n + 1) for _ in range(n)]
    kappa = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            _power_coeff(table, mm, j, k - j)
        kappa[k] = mm[k] - sum(kappa[j] * table[j][k - j] for j in range(1, k))
    return kappa[1:]


def moments_from_free_cumulants(kappa: list[Fraction]) -> list[Fraction]:
    n = len(kappa)
    kk = [Fraction(0)] + list(kappa)
    mm = [Fraction(1)] + [Fraction(0)] * n
    table = [[Fraction(1)] + [Fraction(0)] * n] + [[None] * (n + 1) for _ in range(n)]
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            _power_coeff(table, mm, j, k - j)
        mm[k] = sum(kk[j] * table[j][k - j] for j in range(1, k + 1))
    return mm[1:]


def free_moments(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    ka, kb = free_cumulants(a), free_cumulants(b)
    return moments_from_free_cumulants([x + y for x, y in zip(ka, kb)])


def _boolean_cumulants(m: list[Fraction]) -> list[Fraction]:
    # M = 1 + eta*M, so m_k = sum_{j=1..k} b_j m_{k-j}
    mm = [Fraction(1)] + list(m)
    b = [Fraction(0)]
    for k in range(1, len(mm)):
        b.append(mm[k] - sum(b[j] * mm[k - j] for j in range(1, k)))
    return b[1:]


def boolean_moments(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    eta = [x + y for x, y in zip(_boolean_cumulants(a), _boolean_cumulants(b))]
    mm = [Fraction(1)]
    for k in range(1, len(eta) + 1):
        mm.append(sum(eta[j - 1] * mm[k - j] for j in range(1, k + 1)))
    return mm[1:]


def root_moments(graph: dict, n: int) -> list[Fraction]:
    """Closed walks from the root of a graph object, lengths 1..n."""
    adj = [[] for _ in range(graph["vertices"])]
    for u, v in graph["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    root = graph["root"]
    walks = [0] * len(adj)
    walks[root] = 1
    out = []
    for _ in range(n):
        nxt = [0] * len(adj)
        for v, x in enumerate(walks):
            if x:
                for u in adj[v]:
                    nxt[u] += x
        walks = nxt
        out.append(Fraction(walks[root]))
    return out


def _semicircle_g(a: float, b: float, z: complex) -> complex:
    d = cmath.sqrt((z - a) ** 2 - 4 * b)
    g1, g2 = (z - a - d) / (2 * b), (z - a + d) / (2 * b)
    return g1 if g1.imag < 0 else g2


def density_values(obj: dict, xs: list[float], epsilon: float) -> list[float]:
    alpha = [float(Fraction(x)) for x in obj["alpha"]]
    omega = [float(Fraction(x)) for x in obj["omega"]]
    a, b = float(Fraction(obj["tail"]["a"])), float(Fraction(obj["tail"]["b"]))
    out = []
    for x in xs:
        z = complex(x, epsilon)
        g = _semicircle_g(a, b, z)
        for k in range(len(alpha) - 1, -1, -1):
            g = 1 / (z - alpha[k] - omega[k] * g)
        out.append(-g.imag / math.pi)
    return out


# ---------------------------------------------------------------------------
# Checks per request kind
# ---------------------------------------------------------------------------

def _first_diff(got, want) -> str:
    for i, (x, y) in enumerate(zip(got, want), start=1):
        if x != y:
            return f"m{i}: got {x}, want {y}"
    return f"length {len(got)} vs {len(want)}"


class Checker:
    """Holds the program's parse/emit and oracle entry points; the tracer
    is never active while a check runs."""

    def __init__(self, measures, convolve, graphs):
        self.measures = measures
        self.convolve = convolve
        self.graphs = graphs

    def check(self, req: Request, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + req.kind)(req, out)
        except Exception as exc:  # a malformed output fails its request, not the run
            return f"check raised {type(exc).__name__}: {exc}"

    def _convolve(self, req: Request, out: str) -> str | None:
        meta = req.meta
        order = meta["order"]
        obj = json.loads(out)
        re_emit = json.dumps(
            self.measures.measure_to_json(self.measures.parse_measure(obj), order), indent=2
        ) + "\n"
        if re_emit != out:
            return "output does not re-parse and re-emit byte-identically"
        got = [Fraction(x) for x in obj["m"]]
        if len(got) != order:
            return f"{len(got)} moments for order {order}"
        a, b = input_moments(meta["mu"], order), input_moments(meta["nu"], order)
        if meta["op"] == "free":
            want = free_moments(a, b)
            if got != want:
                return "free moments differ from the cumulant recursion: " + _first_diff(got, want)
            if order <= ORACLE_MAX_ORDER:
                mu = self.measures.parse_measure(meta["mu"])
                nu = self.measures.parse_measure(meta["nu"])
                oracle = list(self.convolve.free_cumulant_oracle(mu, nu, order).moments(order))
                if got != oracle:
                    return "free moments differ from free_cumulant_oracle: " + _first_diff(got, oracle)
        elif meta["op"] == "boolean":
            want = boolean_moments(a, b)
            if got != want:
                return "boolean moments differ from the boolean recursion: " + _first_diff(got, want)
        return None

    def _density(self, req: Request, out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != "x,f":
            return "missing x,f header"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        if len(rows) != int(req.argv[req.argv.index("--points") + 1]):
            return f"{len(rows)} grid points"
        want = density_values(req.meta["measure"], [x for x, _ in rows], req.meta["epsilon"])
        for (x, f), w in zip(rows, want):
            if f < 0 or abs(f - w) > DENSITY_TOL * max(1.0, abs(w)):
                return f"density at x={x}: got {f}, want {w}"
        return None

    def _graph(self, req: Request, out: str) -> str | None:
        meta = req.meta
        n = meta["moments"]
        obj = json.loads(out)
        graph = obj["graph"]
        if self.graphs.graph_to_json(self.graphs.parse_graph(graph)) != graph:
            return "graph does not round-trip"
        got = [Fraction(x) for x in obj["moments"]]
        walks = root_moments(graph, n)
        if got != walks:
            return "printed moments are not the product graph's walk counts: " + _first_diff(got, walks)
        a, b = root_moments(meta["g1"], n), root_moments(meta["g2"], n)
        op = meta["op"]
        if op == "star":
            want = boolean_moments(a, b)
        elif op == "free-ball":
            want = free_moments(a, b)
        else:
            fn = self.convolve.monotone if op == "comb" else self.convolve.orthogonal
            rep = self.measures.MeasureRep.from_moments
            want = list(fn(rep(a), rep(b), n).moments(n))
        if got != want:
            return f"{op} graph moments differ from the convolution: " + _first_diff(got, want)
        return None

    def _verify(self, req: Request, out: str) -> str | None:
        lines = out.splitlines()
        checks = [l for l in lines if l.startswith(("PASS ", "FAIL "))]
        failed = [l for l in checks if l.startswith("FAIL ")]
        if failed:
            return failed[0]
        summary = f"{len(checks)}/{len(checks)} checks passed"
        if not checks or lines[-1] != summary:
            return f"summary line {lines[-1] if lines else ''!r}, want {summary!r}"
        return None
