"""Rooted graphs and the products whose root spectra realize the convolutions.

Star product glues two graphs at their roots (boolean), the comb product
hangs a copy of the second graph on every vertex of the first (monotone),
and the orthogonal product hangs copies on every non-root vertex.  The
truncated free product is built as its natural decomposition (Accardi,
Lenczewski and Salapata, IDAQP 10, 2007): a branch is the alternating
orthogonal product g_f |- (g_o |- ...), the ball the star product of the
two branches.  Its words are grown by `_alternating_words`, which also
builds the operator model's word basis.  Every product holds at most
200 000 vertices (`_WORD_LIMIT`), counted from the factors' sizes before
anything is built.  Root spectral moments are walk
counts on the edge lists, exact integers, so all comparisons against the
moment-level convolutions are exact.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

from .errors import InvalidParameter, _count, _is_int
from .measures import _known_keys

_WORD_LIMIT = 200_000


class RootedGraph(namedtuple("RootedGraph", "n root edges")):
    """Finite simple graph on the vertices 0..n - 1 with a distinguished
    root, its edges a frozenset of pairs (u, v), u < v."""

    __slots__ = ()

    def non_root(self) -> list[int]:
        return [v for v in range(self.n) if v != self.root]


def rooted_graph(n: int, root: int, edges: Iterable[Sequence[int]]) -> RootedGraph:
    """The one owner of the graph rules, checked in this order: `n` and
    `root` are ints and not bools, every edge is a list or tuple of two
    such ints, n >= 1, the root is one of the vertices, and every edge
    joins two distinct ones."""
    for key, x in (("vertices", n), ("root", root)):
        if not _is_int(x):
            raise InvalidParameter(f"graph {key!r} must be an integer, got {x!r}")
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise InvalidParameter(f"graph edge must be a pair of integers, got {e!r}")
        pairs.append(e)
    _count(n, 1, "graph 'vertices'")
    if not 0 <= root < n:
        raise InvalidParameter("root outside vertex range")
    norm = set()
    for u, v in pairs:
        if u == v:
            raise InvalidParameter("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameter(f"edge ({u},{v}) outside vertex range")
        edge = (min(u, v), max(u, v))
        if edge in norm:
            raise InvalidParameter(f"graph edge ({u},{v}) is listed twice")
        norm.add(edge)
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
    for _ in range(_count(n_max)):
        nxt: dict[int, int] = {}
        for u, x in vec.items():
            for v in nbrs[u]:
                nxt[v] = nxt.get(v, 0) + x
        vec = nxt
        out.append(Fraction(vec.get(g.root, 0)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def _attach_copies(g1: RootedGraph, g2: RootedGraph, what: str, n_hosts: int, hosts: Iterable[int]) -> RootedGraph:
    """g1 with a copy of g2 hung by its root at each of its n_hosts hosts.
    The vertex count comes from the sizes alone, and past 200 000
    `InvalidParameter` names the product before any host is read."""
    n = g1.n + n_hosts * (g2.n - 1)
    if n > _WORD_LIMIT:
        raise InvalidParameter(f"the {what} product would have {n} vertices, more than {_WORD_LIMIT}")
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
    return _attach_copies(g1, g2, "star", 1, [g1.root])


def graph_comb(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every vertex of g1."""
    return _attach_copies(g1, g2, "comb", g1.n, range(g1.n))


def graph_orthogonal(g1: RootedGraph, g2: RootedGraph) -> RootedGraph:
    """Attach a copy of g2 by its root to every non-root vertex of g1."""
    return _attach_copies(g1, g2, "orthogonal", g1.n - 1, (v for v in range(g1.n) if v != g1.root))


def _alternating_words(
    costs: Sequence[Mapping[int, int]], factor: Callable, cap: int, first: tuple[int, ...], what: str
) -> tuple[int, list[tuple[int, int, int, dict[int, int] | None]]]:
    """The free product of two rooted factors as its alternating words of
    total cost at most `cap`.

    costs[f - 1] counts factor f's letters by their positive cost, so the
    cap also bounds the length, and factor(f) gives its root and its
    letters (v, cost), v ascending.  A word w hangs a copy of each factor its
    first letter does not come from (the root: of `first`), whose root is w
    and whose letter v is the word ((f, v),) + w while that word is within
    the cap.  The words are counted by length, first factor and cost from
    `costs` alone, and past 200 000 `InvalidParameter` names `what` before
    `factor` is called, so nothing is built per vertex.  A length's words
    are grown from the last length's, each held as (first letter, index of
    the rest), and numbered in (length, word) order, root first.

    Returns the number of words and every copy, hosts in order, as
    (factor, host word, slab, vertex -> word index); the slab is the host's
    length plus one.  A copy with no letter within the cap is its root
    alone and carries None for the map.
    """
    count, total = {(0, 0): 1}, 1  # one length's words by first factor (0 at the root) and cost
    while count:
        grown: Counter = Counter()
        for (g, s), k in count.items():
            for f in (3 - g,) if g else first:
                for c, m in costs[f - 1].items():
                    if s + c <= cap:
                        grown[f, s + c] += k * m
        total += sum(grown.values())
        if total > _WORD_LIMIT:
            raise InvalidParameter(f"a {what} would have more than {_WORD_LIMIT} words")
        count = grown
    roots, letters = zip(*map(factor, (1, 2)))
    cheapest = [min(cs, default=cap + 1) for cs in costs]
    level = [(0, 0, 0)]  # the newest words: first factor (0 at the root), index, cost
    n, copies, slab = 1, [], 0
    while level:
        slab += 1
        hosts: tuple[list, list] = ([], [])
        for g, i, s in level:
            for f in (3 - g,) if g else first:
                if s + cheapest[f - 1] > cap:
                    copies.append((f, i, slab, None))
                else:
                    name = {roots[f - 1]: i}
                    copies.append((f, i, slab, name))
                    hosts[f - 1].append((name, s))
        # in (first letter, rest) order: factor, then letter, then host
        level = []
        for f in (1, 2):
            for v, c in letters[f - 1]:
                for name, s in hosts[f - 1]:
                    if s + c <= cap:
                        name[v] = n
                        level.append((f, n, s + c))
                        n += 1
    return n, copies


def _free_product(g1: RootedGraph, g2: RootedGraph, radius: int, first: tuple[int, ...]) -> RootedGraph:
    """The alternating words of length <= radius, every letter at cost 1, as
    a graph: each copy's edges relabelled by its words."""
    _count(radius, 1, "radius")
    gs = (g1, g2)
    what = "ball" if first == (1, 2) else "branch"
    n, copies = _alternating_words(
        [{1: g.n - 1} if g.n > 1 else {} for g in gs],  # every letter costs 1
        lambda f: (gs[f - 1].root, [(v, 1) for v in gs[f - 1].non_root()]),
        radius, first, f"free-product {what} of radius {radius}",
    )
    edges = set()
    for f, _, _, name in copies:
        # a copy is whole, or hung at a word of the full radius and its root alone
        if name:
            edges.update((a, b) if a < b else (b, a) for a, b in ((name[u], name[v]) for u, v in gs[f - 1].edges))
    return RootedGraph(n, 0, frozenset(edges))


def free_product_ball(g1: RootedGraph, g2: RootedGraph, radius: int) -> RootedGraph:
    """Truncated free product: alternating words of length <= radius.

    Root spectral moments of order <= 2 * radius + 1 agree with the infinite
    free product (an order-n moment only explores words of length <= n/2).
    """
    return _free_product(g1, g2, radius, (1, 2))


def _check_factor(factor: int) -> None:
    if not (_is_int(factor) and factor in (1, 2)):
        raise InvalidParameter(f"factor must be 1 or 2, got {factor!r}")


def free_product_branch(
    g1: RootedGraph, g2: RootedGraph, radius: int, factor: int = 1
) -> RootedGraph:
    """Induced subgraph of the truncated free product on the empty word and
    the words whose last letter comes from the chosen factor."""
    _check_factor(factor)
    return _free_product(g1, g2, radius, (factor,))


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------

def parse_graph(obj: dict) -> RootedGraph:
    """Graph from its JSON object, which holds `vertices`, `root` and a list
    as `edges` and no other key; `rooted_graph` checks the values, so
    nothing is coerced."""
    if not isinstance(obj, dict):
        raise InvalidParameter("graph object must be a JSON object")
    _known_keys(obj, ("vertices", "root", "edges"), "a graph")
    return rooted_graph(obj.get("vertices"), obj.get("root"), _json_edges(obj.get("edges")))


def _json_edges(edges) -> Iterator:
    """The `edges` of a graph object, checked to be a list only when
    `rooted_graph` reads them, after the vertex count and the root."""
    if not isinstance(edges, list):
        raise InvalidParameter(f"graph 'edges' must be a list, got {edges!r}")
    yield from edges


def graph_to_json(g: RootedGraph) -> dict:
    return {
        "vertices": g.n,
        "root": g.root,
        "edges": [list(e) for e in sorted(g.edges)],
    }
