"""Rooted graphs and the products whose root spectra realize the convolutions.

Star product glues two graphs at their roots (boolean), the comb product
hangs a copy of the second graph on every vertex of the first (monotone),
the orthogonal product hangs copies on every non-root vertex, and the
truncated free product lives on alternating words of non-root vertices.
Root spectral moments are exact integers, so all comparisons against the
moment-level convolutions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParameter


@dataclass(frozen=True)
class RootedGraph:
    """Finite simple graph with a distinguished root vertex."""

    n: int
    root: int
    edges: frozenset[tuple[int, int]]

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def non_root(self) -> list[int]:
        return [v for v in range(self.n) if v != self.root]


def rooted_graph(n: int, root: int, edges: Iterable[Sequence[int]]) -> RootedGraph:
    if n < 1:
        raise InvalidParameter("graph needs at least one vertex")
    if not 0 <= root < n:
        raise InvalidParameter("root outside vertex range")
    norm = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise InvalidParameter("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameter(f"edge ({u},{v}) outside vertex range")
        norm.add((min(u, v), max(u, v)))
    return RootedGraph(n, root, frozenset(norm))


def path_graph(n: int, root: int = 0) -> RootedGraph:
    return rooted_graph(n, root, [(i, i + 1) for i in range(n - 1)])


def root_spectral_moments(g: RootedGraph, n_max: int) -> tuple[Fraction, ...]:
    """<A^n delta(root), delta(root)> for n = 1..n_max, exactly."""
    adj = g.neighbors()
    vec = {g.root: 1}
    out = []
    for _ in range(n_max):
        nxt: dict[int, int] = {}
        for v, x in vec.items():
            for u in adj[v]:
                nxt[u] = nxt.get(u, 0) + x
        vec = nxt
        out.append(Fraction(vec.get(g.root, 0)))
    return tuple(out)


def root_distribution(g: RootedGraph, order: int):
    """Measure representation of the root spectral distribution."""
    from .measures import MeasureRep

    return MeasureRep.from_moments(root_spectral_moments(g, order))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def graph_star(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Glue the two graphs at their roots."""
    edges = set(g1.edges)
    mapping = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == g2.root:
            mapping[v] = g1.root
        else:
            mapping[v] = nxt
            nxt += 1
    for u, v in g2.edges:
        a, b = mapping[u], mapping[v]
        edges.add((min(a, b), max(a, b)))
    return RootedGraph(nxt, g1.root, frozenset(edges))


def _attach_copies(g1: RootedGraph, g2: RootedGraph, hosts: Sequence[int]) -> RootedGraph:
    edges = set(g1.edges)
    nxt = g1.n
    for host in hosts:
        mapping = {}
        for v in range(g2.n):
            if v == g2.root:
                mapping[v] = host
            else:
                mapping[v] = nxt
                nxt += 1
        for u, v in g2.edges:
            a, b = mapping[u], mapping[v]
            edges.add((min(a, b), max(a, b)))
    return RootedGraph(nxt, g1.root, frozenset(edges))


def graph_comb(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every vertex of g1."""
    return _attach_copies(g1, g2, list(range(g1.n)))


def graph_orthogonal(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every non-root vertex of g1."""
    return _attach_copies(g1, g2, g1.non_root())


def _free_product_words(
    g1: RootedGraph, g2: RootedGraph, radius: int
) -> tuple[list[tuple], dict]:
    letters = {1: g1.non_root(), 2: g2.non_root()}
    words: list[tuple] = [()]

    def grow(prefix: tuple):
        if len(prefix) == radius:
            return
        for factor in (1, 2):
            if prefix and prefix[0][0] == factor:
                continue
            for v in letters[factor]:
                w = ((factor, v),) + prefix
                words.append(w)
                grow(w)

    grow(())
    words.sort(key=lambda w: (len(w), w))
    return words, {w: i for i, w in enumerate(words)}


def _free_product_edges(
    g1: RootedGraph, g2: RootedGraph, words: list[tuple], index: dict
) -> set[tuple[int, int]]:
    adjs = {1: g1.neighbors(), 2: g2.neighbors()}
    roots = {1: g1.root, 2: g2.root}
    edges: set[tuple[int, int]] = set()
    for w in words:
        wi = index[w]
        for factor in (1, 2):
            if w and w[0][0] == factor:
                head, rest = w[0][1], w[1:]
            else:
                head, rest = roots[factor], w
            for u in adjs[factor][head]:
                target = rest if u == roots[factor] else ((factor, u),) + rest
                ti = index.get(target)
                if ti is not None and ti != wi:
                    edges.add((min(wi, ti), max(wi, ti)))
    return edges


def free_product_ball(g1: RootedGraph, g2: RootedGraph, radius: int) -> RootedGraph:
    """Truncated free product: alternating words of length <= radius.

    Root spectral moments of order <= 2 * radius + 1 agree with the infinite
    free product (an order-n moment only explores words of length <= n/2).
    """
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    words, index = _free_product_words(g1, g2, radius)
    edges = _free_product_edges(g1, g2, words, index)
    return RootedGraph(len(words), index[()], frozenset(edges))


def free_product_branch(
    g1: RootedGraph, g2: RootedGraph, radius: int, factor: int = 1
) -> RootedGraph:
    """Induced subgraph of the truncated free product on the empty word and
    the words whose last letter comes from the chosen factor."""
    if factor not in (1, 2):
        raise InvalidParameter("factor must be 1 or 2")
    words, index = _free_product_words(g1, g2, radius)
    keep = [w for w in words if not w or w[-1][0] == factor]
    keep_index = {w: i for i, w in enumerate(keep)}
    edges_all = _free_product_edges(g1, g2, words, index)
    rev = {i: w for w, i in index.items()}
    edges = set()
    for a, b in edges_all:
        wa, wb = rev[a], rev[b]
        if wa in keep_index and wb in keep_index:
            ia, ib = keep_index[wa], keep_index[wb]
            edges.add((min(ia, ib), max(ia, ib)))
    return RootedGraph(len(keep), keep_index[()], frozenset(edges))


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------

def parse_graph(obj: dict) -> RootedGraph:
    if not isinstance(obj, dict):
        raise InvalidParameter("graph object must be a JSON object")
    try:
        return rooted_graph(int(obj["vertices"]), int(obj["root"]), obj.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"bad graph object: {exc}") from exc


def graph_to_json(g: RootedGraph) -> dict:
    return {
        "vertices": g.n,
        "root": g.root,
        "edges": [list(e) for e in sorted(g.edges)],
    }
