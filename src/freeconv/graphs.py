"""Rooted graphs and the products whose root spectra realize the convolutions.

Star product glues two graphs at their roots (boolean), the comb product
hangs a copy of the second graph on every vertex of the first (monotone),
and the orthogonal product hangs copies on every non-root vertex.  The
truncated free product is built as its natural decomposition (Accardi,
Lenczewski and Salapata, IDAQP 10, 2007): a branch is the alternating
orthogonal product g_f |- (g_o |- ...), the ball the star product of the
two branches.  Root spectral moments are walk counts on the edge lists,
exact integers, so all comparisons against the moment-level convolutions
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParameter

_WORD_LIMIT = 200_000


@dataclass(frozen=True)
class RootedGraph:
    """Finite simple graph with a distinguished root vertex."""

    n: int
    root: int
    edges: frozenset[tuple[int, int]]

    def non_root(self) -> list[int]:
        return [v for v in range(self.n) if v != self.root]


def rooted_graph(n: int, root: int, edges: Iterable[Sequence[int]]) -> RootedGraph:
    if n < 1:
        raise InvalidParameter("graph needs at least one vertex")
    if not 0 <= root < n:
        raise InvalidParameter("root outside vertex range")
    norm = set()
    for u, v in edges:
        if u == v:
            raise InvalidParameter("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameter(f"edge ({u},{v}) outside vertex range")
        norm.add((min(u, v), max(u, v)))
    return RootedGraph(n, root, frozenset(norm))


def path_graph(n: int, root: int = 0) -> RootedGraph:
    return rooted_graph(n, root, [(i, i + 1) for i in range(n - 1)])


def root_spectral_moments(g: RootedGraph, n_max: int) -> tuple[Fraction, ...]:
    """<A^n delta(root), delta(root)> for n = 1..n_max, exactly: walk counts
    on int neighbour lists, which never cancel, so no zero is filtered."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    vec = {g.root: 1}
    out = []
    for _ in range(n_max):
        nxt: dict[int, int] = {}
        for u, x in vec.items():
            for v in nbrs[u]:
                nxt[v] = nxt.get(v, 0) + x
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


def graph_star(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Glue the two graphs at their roots."""
    return _attach_copies(g1, g2, [g1.root])


def graph_comb(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every vertex of g1."""
    return _attach_copies(g1, g2, list(range(g1.n)))


def graph_orthogonal(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every non-root vertex of g1."""
    return _attach_copies(g1, g2, g1.non_root())


def _free_product(g1: RootedGraph, g2: RootedGraph, radius: int, factors: tuple[int, ...]) -> RootedGraph:
    """Alternating words of length <= radius, shortest first: a word w hangs
    a copy of each factor its first letter does not come from (the root: of
    `factors`), with root w and vertex v the word ((f, v),) + w.  A length's
    words, held as (first letter, index of the rest) and sorted so, continue
    the numbering in (length, word) order, root first."""
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    # the words of each length, by their first letter's factor, counted before any is built
    gs, sizes = (g1, g2), (g1.n - 1, g2.n - 1)
    count, total = [sizes[f - 1] if f in factors else 0 for f in (1, 2)], 1
    for _ in range(radius):
        total += sum(count)
        if total > _WORD_LIMIT:
            what = "ball" if factors == (1, 2) else "branch"
            raise InvalidParameter(f"a free-product {what} of radius {radius} would have more than {_WORD_LIMIT} words")
        count = [count[1] * sizes[0], count[0] * sizes[1]]
        if not any(count):
            break
    level = [(0, 0)]  # the newest words: factor of the first letter (0 at the root), index
    n, edges = 1, set()
    while n < total:
        copies = [(f, i) for first, i in level for f in ((3 - first,) if first else factors)]
        words = sorted(((f, v), i) for f, i in copies for v in gs[f - 1].non_root())
        index = {w: n + k for k, w in enumerate(words)}
        for f, i in copies:
            g = gs[f - 1]
            name = {v: index[(f, v), i] for v in g.non_root()}
            name[g.root] = i
            edges.update(tuple(sorted((name[u], name[v]))) for u, v in g.edges)
        n += len(words)
        level = [(f, index[(f, v), i]) for (f, v), i in words]
    return RootedGraph(n, 0, frozenset(edges))


def free_product_ball(g1: RootedGraph, g2: RootedGraph, radius: int) -> RootedGraph:
    """Truncated free product: alternating words of length <= radius.

    Root spectral moments of order <= 2 * radius + 1 agree with the infinite
    free product (an order-n moment only explores words of length <= n/2).
    """
    return _free_product(g1, g2, radius, (1, 2))


def free_product_branch(
    g1: RootedGraph, g2: RootedGraph, radius: int, factor: int = 1
) -> RootedGraph:
    """Induced subgraph of the truncated free product on the empty word and
    the words whose last letter comes from the chosen factor."""
    if factor not in (1, 2):
        raise InvalidParameter("factor must be 1 or 2")
    return _free_product(g1, g2, radius, (factor,))


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph(obj: dict) -> RootedGraph:
    """Graph from its JSON object; anything but integer `vertices` and `root`
    and a list of integer pairs as `edges` is rejected, not coerced."""
    if not isinstance(obj, dict):
        raise InvalidParameter("graph object must be a JSON object")
    for key in ("vertices", "root"):
        if not _is_int(obj.get(key)):
            raise InvalidParameter(f"graph {key!r} must be an integer, got {obj.get(key)!r}")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise InvalidParameter(f"graph 'edges' must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise InvalidParameter(f"graph edge must be a pair of integers, got {e!r}")
    return rooted_graph(obj["vertices"], obj["root"], edges)


def graph_to_json(g: RootedGraph) -> dict:
    return {
        "vertices": g.n,
        "root": g.root,
        "edges": [list(e) for e in sorted(g.edges)],
    }
