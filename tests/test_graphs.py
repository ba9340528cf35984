import random
import time
from fractions import Fraction as F

import pytest

from freeconv import convolve, graphs
from freeconv.errors import InvalidParameter
from freeconv.measures import MeasureRep, bernoulli_symmetric
from freeconv.opmodel import ModelOperator


P2 = graphs.path_graph(2)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            graphs.rooted_graph(2, 5, [])
        with pytest.raises(InvalidParameter):
            graphs.rooted_graph(2, 0, [(0, 0)])
        with pytest.raises(InvalidParameter):
            graphs.rooted_graph(2, 0, [(0, 3)])

    @pytest.mark.parametrize(
        "n, root, edges, match",
        [
            (2.0, 0, [(0, 1)], "'vertices' must be an integer, got 2.0"),
            (True, 0, [], "'vertices' must be an integer, got True"),
            (3, 0.0, [(0, 1)], "'root' must be an integer, got 0.0"),
            (3, False, [(0, 1)], "'root' must be an integer, got False"),
            (3, 0, [(0, 1.5)], r"edge must be a pair of integers, got \(0, 1.5\)"),
            (3, 0, [(True, 2)], r"edge must be a pair of integers, got \(True, 2\)"),
            (3, 0, [(0, 1, 2)], r"edge must be a pair of integers, got \(0, 1, 2\)"),
            (3, 0, [5], "edge must be a pair of integers, got 5"),
        ],
        ids=["float-n", "bool-n", "float-root", "bool-root", "float-endpoint", "bool-endpoint", "triple", "int-edge"],
    )
    def test_ints_and_pairs_of_ints(self, n, root, edges, match):
        # `rooted_graph` owns the rules that `parse_graph` applied alone; a
        # float or bool was accepted, and an edge that is no pair escaped as
        # a ValueError or TypeError
        with pytest.raises(InvalidParameter, match=match):
            graphs.rooted_graph(n, root, edges)

    def test_json_round_trip(self):
        g = graphs.rooted_graph(4, 1, [(0, 1), (1, 2), (2, 3)])
        assert graphs.parse_graph(graphs.graph_to_json(g)) == g


class TestRootMoments:
    def test_isolated_vertex(self):
        g = graphs.rooted_graph(1, 0, [])
        assert graphs.root_spectral_moments(g, 4) == (F(0),) * 4

    def test_single_edge_is_symmetric_two_point(self):
        assert graphs.root_spectral_moments(P2, 5) == (F(0), F(1), F(0), F(1), F(0))

    def test_walk_equals_the_adjacency_operator_walk(self):
        # seeded graphs rooted anywhere, and free-product balls built from them
        rng = random.Random(2300)
        cases = [_random_graph(rng, rng.randint(1, 7), root=None) for _ in range(40)]
        for _ in range(10):
            g1 = _random_graph(rng, rng.randint(2, 4), root=None)
            g2 = _random_graph(rng, rng.randint(2, 4), root=None)
            cases.append(graphs.free_product_ball(g1, g2, 3))
        for g in cases:
            got = graphs.root_spectral_moments(g, 9)
            assert got == adjacency_root_moments(g, 9), g
            assert all(type(x) is F for x in got)


class TestProducts:
    def test_star_of_two_edges(self):
        g = graphs.graph_star(P2, P2)
        assert g.n == 3
        # center has degree 2
        assert graphs.root_spectral_moments(g, 4) == (F(0), F(2), F(0), F(4))

    def test_orthogonal_of_two_edges_is_path(self):
        g = graphs.graph_orthogonal(P2, P2)
        assert g.n == 2 + 1 * 1
        assert graphs.root_spectral_moments(g, 4) == (F(0), F(1), F(0), F(2))

    def test_comb_of_two_edges(self):
        g = graphs.graph_comb(P2, P2)
        assert g.n == 2 + 2 * 1
        bern = bernoulli_symmetric()
        want = convolve.monotone(bern, bern, 6).moments(6)
        assert graphs.root_spectral_moments(g, 6) == want

    def test_vertex_counts(self):
        g1 = graphs.path_graph(3)
        g2 = graphs.path_graph(4)
        assert graphs.graph_star(g1, g2).n == 3 + 4 - 1
        assert graphs.graph_comb(g1, g2).n == 3 + 3 * 3
        assert graphs.graph_orthogonal(g1, g2).n == 3 + 2 * 3


class TestFreeProduct:
    def test_radius_one_count(self):
        g1 = graphs.path_graph(3)
        g2 = graphs.path_graph(4)
        ball = graphs.free_product_ball(g1, g2, 1)
        assert ball.n == 1 + 2 + 3

    def test_two_edges_give_central_binomials(self):
        ball = graphs.free_product_ball(P2, P2, 6)
        assert graphs.root_spectral_moments(ball, 6) == (F(0), F(2), F(0), F(6), F(0), F(20))

    def test_branch_gives_subordinate_half(self):
        branch = graphs.free_product_branch(P2, P2, 8, factor=1)
        bern = bernoulli_symmetric()
        want = convolve.sfree(bern, bern, 6).moments(6)
        assert graphs.root_spectral_moments(branch, 6) == want

    def test_products_match_convolutions_on_random_graphs(self):
        rng = random.Random(43)
        for _ in range(5):
            g1 = _random_graph(rng, rng.randint(2, 4))
            g2 = _random_graph(rng, rng.randint(2, 4))
            r1 = MeasureRep.from_moments(graphs.root_spectral_moments(g1, 8))
            r2 = MeasureRep.from_moments(graphs.root_spectral_moments(g2, 8))
            pairs = [
                (graphs.graph_star(g1, g2), convolve.boolean),
                (graphs.graph_comb(g1, g2), convolve.monotone),
                (graphs.graph_orthogonal(g1, g2), convolve.orthogonal),
                (graphs.free_product_ball(g1, g2, 4), convolve.free),
                (graphs.free_product_branch(g1, g2, 4, factor=1), convolve.sfree),
            ]
            for graph, op in pairs:
                assert graphs.root_spectral_moments(graph, 8) == op(r1, r2, 8).moments(8)


class TestFreeProductAgainstWordEnumeration:
    def test_ball_and_branches_equal_the_reference(self):
        rng = random.Random(1200)
        for _ in range(200):
            g1 = _random_graph(rng, rng.randint(1, 5), root=None)
            g2 = _random_graph(rng, rng.randint(1, 5), root=None)
            radius = rng.randint(1, 5)
            case = (g1, g2, radius)
            assert graphs.free_product_ball(g1, g2, radius) == reference_free_product(*case), case
            for factor in (1, 2):
                assert graphs.free_product_branch(g1, g2, radius, factor) == reference_free_product(
                    *case, factor
                ), (case, factor)


class TestFreeProductDecomposition:
    """The branch of g1 * g2 is the alternating orthogonal product
    g_f |- (g_o |- (g_f |- ...)) and the ball the star product of the two
    branches, each renumbered by the word its vertices stand for."""

    def test_branches_and_ball_are_the_relabelled_products(self):
        rng = random.Random(2500)
        for _ in range(100):
            gs = {f: _random_graph(rng, rng.randint(1, 5), root=None) for f in (1, 2)}
            radius = rng.randint(1, 5)
            branches = {f: orthogonal_iterate(gs, radius, f) for f in (1, 2)}
            for f, (g, words) in branches.items():
                assert graphs.free_product_branch(gs[1], gs[2], radius, f) == by_sorted_words(g, words), (gs, radius, f)
            (b1, words1), (b2, words2) = branches[1], branches[2]
            star_words = words1 + [words2[x] for x in b2.non_root()]
            want = by_sorted_words(graphs.graph_star(b1, b2), star_words)
            assert graphs.free_product_ball(gs[1], gs[2], radius) == want, (gs, radius)

    def test_size_cap_stops_the_products(self):
        # 976 561 words in the ball and 488 281 in a branch of two 6-cliques at radius 8
        k6 = graphs.rooted_graph(6, 0, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        for build, what in ((graphs.free_product_ball, "ball"), (graphs.free_product_branch, "branch")):
            start = time.perf_counter()
            with pytest.raises(InvalidParameter, match=f"free-product {what} of radius 8 would have more than 200000 words"):
                build(k6, k6, 8)
            assert time.perf_counter() - start < 2.0


def orthogonal_iterate(gs, radius, f):
    """g_f |- (g_o |- ...) with `radius` factors, by `graph_orthogonal`, and
    the word each vertex stands for: g_f's vertex v is () at the root and
    ((f, v),) otherwise, and vertex x of the copy hung at v is
    word(x) + ((f, v),), copies numbered after g_f host by host."""
    g = gs[f]
    words = [() if v == g.root else ((f, v),) for v in range(g.n)]
    if radius == 1:
        return g, words
    h, inner = orthogonal_iterate(gs, radius - 1, 3 - f)
    for v in g.non_root():
        words += [inner[x] + ((f, v),) for x in h.non_root()]
    return graphs.graph_orthogonal(g, h), words


def by_sorted_words(g, words):
    """g renumbered by its vertices' words in (length, word) order."""
    order = sorted(range(g.n), key=lambda v: (len(words[v]), words[v]))
    label = {v: i for i, v in enumerate(order)}
    edges = frozenset(tuple(sorted((label[u], label[v]))) for u, v in g.edges)
    return graphs.RootedGraph(g.n, label[g.root], edges)


def adjacency_root_moments(g, n_max):
    """Reference: the root moments walked on the adjacency operator, with
    the root as basis vector 0 and the other vertices after it in order."""
    label = {v: i for i, v in enumerate([g.root] + g.non_root())}
    entries = {}
    for u, v in g.edges:
        entries[label[u], label[v]] = entries[label[v], label[u]] = 1
    a = ModelOperator(g.n, entries)
    vec = {0: F(1)}
    out = []
    for _ in range(n_max):
        vec = a.apply(vec)
        out.append(vec.get(0, F(0)))
    return tuple(out)


def _random_graph(rng, n, root=0):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    return graphs.rooted_graph(n, rng.randrange(n) if root is None else root, edges)


def reference_free_product(g1, g2, radius, factor=None):
    """Reference: the truncated free product built by enumerating the
    alternating words of non-root vertices directly, each letter a
    (factor, vertex) pair, and joining two words when one factor's
    adjacency moves the first letter (or the root) of one to the other.
    With `factor` it is the branch: the empty word and the words whose last
    letter comes from that factor."""
    letters = {1: g1.non_root(), 2: g2.non_root()}
    roots = {1: g1.root, 2: g2.root}
    adjs = {}
    for f, g in ((1, g1), (2, g2)):
        adjs[f] = [[] for _ in range(g.n)]
        for u, v in g.edges:
            adjs[f][u].append(v)
            adjs[f][v].append(u)
    words = [()]

    def grow(prefix):
        if len(prefix) == radius:
            return
        for f in (1, 2):
            if prefix and prefix[0][0] == f:
                continue
            for v in letters[f]:
                w = ((f, v),) + prefix
                words.append(w)
                grow(w)

    grow(())
    words.sort(key=lambda w: (len(w), w))
    if factor is not None:
        words = [w for w in words if not w or w[-1][0] == factor]
    index = {w: i for i, w in enumerate(words)}
    edges = set()
    for w, wi in index.items():
        for f in (1, 2):
            if w and w[0][0] == f:
                head, rest = w[0][1], w[1:]
            else:
                head, rest = roots[f], w
            for u in adjs[f][head]:
                ti = index.get(rest if u == roots[f] else ((f, u),) + rest)
                if ti is not None and ti != wi:
                    edges.add((min(wi, ti), max(wi, ti)))
    return graphs.RootedGraph(len(words), index[()], frozenset(edges))
