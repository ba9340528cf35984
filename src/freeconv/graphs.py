"""Rooted graphs and the products whose root spectra realize the convolutions.

A rooted graph acts through its adjacency operator: a `ModelOperator` on
the basis with the root as vector 0 and the other vertices after it in
increasing order.  Star product glues two graphs at their roots (boolean),
the comb product hangs a copy of the second graph on every vertex of the
first (monotone), and the orthogonal product hangs copies on every non-root
vertex.  The truncated free product is the free-product representation of
the two adjacency operators on the alternating words of length <= radius
(`opmodel.WordBasis` and `opmodel.free_product_rep`), so it shares that
basis's size cap; its branch keeps the empty word and the words whose last
letter comes from one factor.  Root spectral moments are walk counts on the
edge lists, exact integers, so all comparisons against the moment-level
convolutions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParameter
from .opmodel import ModelOperator, WordBasis, free_product_rep


@dataclass(frozen=True)
class RootedGraph:
    """Finite simple graph with a distinguished root vertex."""

    n: int
    root: int
    edges: frozenset[tuple[int, int]]

    def non_root(self) -> list[int]:
        return [v for v in range(self.n) if v != self.root]

    def adjacency(self) -> ModelOperator:
        """Adjacency operator with the root as basis vector 0 and the other
        vertices after it in increasing order."""
        label = {v: i for i, v in enumerate([self.root] + self.non_root())}
        entries = {}
        for u, v in self.edges:
            entries[label[u], label[v]] = entries[label[v], label[u]] = 1
        return ModelOperator(self.n, entries)


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


def _free_product(
    g1: RootedGraph, g2: RootedGraph, radius: int
) -> tuple[WordBasis, ModelOperator]:
    """Alternating words of length <= radius and the sum of the two lifted
    adjacency operators on them."""
    if radius < 1:
        raise InvalidParameter("radius must be >= 1")
    # a letter's index is below max(n1, n2), so this index-sum cap prunes no word
    basis = WordBasis.build(g1.n, g2.n, radius, radius * max(g1.n, g2.n))
    op = free_product_rep(g1.adjacency(), 1, basis) + free_product_rep(g2.adjacency(), 2, basis)
    return basis, op


def _induced(op: ModelOperator, keep: Sequence[int]) -> RootedGraph:
    """Graph on the kept basis indices, renumbered in order and rooted at the
    first, with an edge for every entry of `op` between two of them."""
    label = {i: k for k, i in enumerate(keep)}
    edges = set()
    for c, col in op.entries.items():
        for r in col:
            if r in label and c in label:
                a, b = label[r], label[c]
                edges.add((min(a, b), max(a, b)))
    return RootedGraph(len(label), 0, frozenset(edges))


def free_product_ball(g1: RootedGraph, g2: RootedGraph, radius: int) -> RootedGraph:
    """Truncated free product: alternating words of length <= radius.

    Root spectral moments of order <= 2 * radius + 1 agree with the infinite
    free product (an order-n moment only explores words of length <= n/2).
    """
    basis, op = _free_product(g1, g2, radius)
    return _induced(op, range(len(basis)))


def free_product_branch(
    g1: RootedGraph, g2: RootedGraph, radius: int, factor: int = 1
) -> RootedGraph:
    """Induced subgraph of the truncated free product on the empty word and
    the words whose last letter comes from the chosen factor."""
    if factor not in (1, 2):
        raise InvalidParameter("factor must be 1 or 2")
    basis, op = _free_product(g1, g2, radius)
    return _induced(op, [i for i, w in enumerate(basis.words) if not w or w[-1][0] == factor])


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
