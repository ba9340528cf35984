import hashlib
import itertools
import math
import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from freeconv import convolve, opmodel, verify
from freeconv.errors import InvalidParameter, OrderExceeded
from freeconv.measures import (
    MeasureRep,
    bernoulli_symmetric,
    make_jacobi,
    point_mass,
    two_point,
    wigner,
)


def cut(j, d):
    """The truncated input of j's first d levels, whose factor is the path
    of d levels at any depth cap of at least d - 1."""
    return make_jacobi(j.alpha[:d], j.omega[: d - 1])


def thirds_model(depth=5):
    """Factors with entries over 3 and 6, whose words past the vacuum all
    have weights other than 1."""
    j3 = make_jacobi([F(1, 3), F(-2, 3), F(1, 6)], [F(1, 6) ** 2, F(5, 3) ** 2])
    j6 = make_jacobi([F(-1, 6), F(4, 3), F(0)], [F(2, 3) ** 2, F(1, 6) ** 2])
    return opmodel.FreeProductModel(j3, j6, depth_cap=depth)


def halves_and_thirds_model():
    """Factors whose operators have denominators 2 and 3."""
    jmu = make_jacobi([F(1, 2), 0], [1, 0])
    jnu = make_jacobi([F(1, 3), 1], [4, 0])
    return opmodel.FreeProductModel(jmu, jnu, depth_cap=4)


def small_model(seed=0, dim=4, depth=8):
    # the omegas end in a zero: the factor of dim levels realizes the
    # terminated measure exactly, so every moment of it is available for comparisons
    rng = random.Random(seed)
    alpha = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
    omega = [F(rng.randint(1, 2)) ** 2 for _ in range(dim - 1)]
    beta = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
    gamma = [F(rng.randint(1, 2)) ** 2 for _ in range(dim - 1)]
    jmu = make_jacobi(alpha, omega + [0])
    jnu = make_jacobi(beta, gamma + [0])
    return opmodel.FreeProductModel(jmu, jnu, depth_cap=depth)


class TestWordBasis:
    def test_two_dimensional_factors_give_zigzag_words(self):
        basis = opmodel.WordBasis.build((2, 2), 6)
        # one empty word plus two alternating words per length
        assert len(basis) == 1 + 2 * 6
        assert basis.words[0] == ()
        assert basis.words[1] == ((1, 1),)
        assert basis.words[2] == ((2, 1),)

    def test_ordering_is_length_then_lexicographic(self):
        basis = opmodel.WordBasis.build((3, 3), 2)
        lengths = [len(w) for w in basis.words]
        assert lengths == sorted(lengths)
        level1 = [w for w in basis.words if len(w) == 1]
        assert level1 == sorted(level1)

    def test_words_equal_the_recursive_enumeration(self):
        for d1 in range(1, 6):
            for d2 in range(1, 6):
                for depth in range(1, 9):
                    basis = opmodel.WordBasis.build((d1, d2), depth)
                    assert list(basis.words) == recursive_words((d1, d2), depth), (d1, d2, depth)

    def test_size_cap_stops_the_enumeration(self):
        # 2**25 - 1 words under the cap; they are counted before any is built
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match="word basis of depth cap 24 would have more than 200000 words"):
            opmodel.WordBasis.build((25, 25), 24)
        assert time.perf_counter() - start < 0.1

    def test_level_slabs_partition_words(self):
        # every alpha is nonzero, so every word's column holds its diagonal entry
        j = make_jacobi([1, 2, 3], [4, 5, 0])
        model = opmodel.FreeProductModel(j, j, depth_cap=4)
        last = model.depth_cap + 1
        for factor in (1, 2):
            slabs = {n: set(model.replica(factor, n).entries) for n in range(1, last + 1)}
            assert sorted(i for cols in slabs.values() for i in cols) == list(range(len(model.basis)))
            for n, words in slabs.items():
                assert words == level_indices(model.basis, factor, n), (factor, n)


def level_indices(basis, factor, n):
    """Reference slab: the words of length n - 1 not starting with the
    factor, plus the words of length n starting with it."""
    return {
        i
        for i, w in enumerate(basis.words)
        if (len(w) == n - 1 and (not w or w[0][0] != factor)) or (len(w) == n and w and w[0][0] == factor)
    }


def recursive_words(dims, depth_cap):
    """Reference: the alternating words of index sum at most the cap,
    grown depth first by prepending letters, then sorted
    length-lexicographically."""
    words = [()]

    def grow(prefix, weight):
        for factor in (1, 2):
            if prefix and prefix[0][0] == factor:
                continue
            for k in range(1, dims[factor - 1]):
                if weight + k > depth_cap:
                    break
                word = ((factor, k),) + prefix
                words.append(word)
                grow(word, weight + k)

    grow((), 0)
    return sorted(words, key=lambda w: (len(w), w))


def rational(op):
    """The operator's matrix as a column store of `Fraction`s: its int
    store over its denominator."""
    return {c: {r: F(v, op.den) for r, v in col.items()} for c, col in op.entries.items()}


def dense(op):
    """The operator as a full `Fraction` matrix, row by row."""
    m = [[F(0)] * op.size for _ in range(op.size)]
    for c, col in rational(op).items():
        for r, v in col.items():
            m[r][c] = v
    return m


def from_dense(m):
    return opmodel.ModelOperator(len(m), {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row)})


def assert_one_store(op):
    """No zero entry and no empty column."""
    assert all(col and all(v != 0 for v in col.values()) for col in op.entries.values())


class TestModelOperator:
    SIZE = 6

    def random_operators(self, seed, count=20):
        # entries from {-1, 1} on a sparse pattern, so sums and products cancel often
        rng = random.Random(seed)
        ops = []
        for _ in range(count):
            entries = {}
            for r in range(self.SIZE):
                for c in range(self.SIZE):
                    if rng.random() < 0.3:
                        entries[r, c] = F(rng.choice((-1, 1)), rng.choice((1, 2)))
                    elif rng.random() < 0.1:
                        entries[r, c] = F(0)
            ops.append(opmodel.ModelOperator(self.SIZE, entries))
        return ops

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arithmetic_equals_the_dense_reference(self, seed):
        n = self.SIZE
        ops = self.random_operators(seed)
        rng = random.Random(seed)
        for a, b in zip(ops, ops[1:]):
            da, db = dense(a), dense(b)
            assert_one_store(a)
            for got, want in (
                (a + b, [[da[r][c] + db[r][c] for c in range(n)] for r in range(n)]),
                (a - b, [[da[r][c] - db[r][c] for c in range(n)] for r in range(n)]),
                (a @ b, [[sum(da[r][k] * db[k][c] for k in range(n)) for c in range(n)] for r in range(n)]),
            ):
                assert_one_store(got)
                assert dense(got) == want
                assert got.equals(from_dense(want))
            vec = {i: F(rng.randint(-2, 2)) for i in range(n) if rng.random() < 0.5}
            want = [sum(da[r][c] * vec.get(c, 0) for c in range(n)) for r in range(n)]
            assert a.apply(vec) == {r: x for r, x in enumerate(want) if x != 0}
            assert a.equals(b) == (da == db)
            unit = [1] * n
            assert a.is_self_adjoint(unit) == (da == [list(row) for row in zip(*da)])
            sym = a + from_dense([list(row) for row in zip(*da)])
            assert sym.is_self_adjoint(unit)
            # W A is symmetric exactly when A is self-adjoint under weights W
            weights = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
            wa = [[weights[r] * da[r][c] for c in range(n)] for r in range(n)]
            assert a.is_self_adjoint(weights) == (wa == [list(row) for row in zip(*wa)])

    def test_cancellation_leaves_no_zero_and_no_empty_column(self):
        for a in self.random_operators(3):
            assert (a - a).entries == {}
            assert ((a + a) - a).entries == a.entries
        # column 2 of a @ b is 1 * 1 + 1 * (-1) = 0, and no other column is nonzero
        a = opmodel.ModelOperator(3, {(0, 0): F(1), (0, 1): F(1)})
        b = opmodel.ModelOperator(3, {(0, 2): F(1), (1, 2): F(-1)})
        assert (a @ b).entries == {}
        assert a.equals(a + (a @ b))
        assert not a.equals(a + b)
        assert not (a + b).equals(a)

    def test_float_entry_rejected(self):
        with pytest.raises(InvalidParameter, match="floats are not accepted"):
            opmodel.ModelOperator(self.SIZE, {(0, 0): F(1), (0, 5): 0.5})

    @pytest.mark.parametrize(
        "entries, match",
        [
            ({(0, 5): 1}, "outside"),
            ({(-1, 0): 1}, "outside"),
            ({(0, 0): "1/2"}, "ints or Fractions"),
            ({(0, 0): True}, "ints or Fractions"),
            ({(0, 0): 1 + 0j}, "ints or Fractions"),
        ],
        ids=["column-past-size", "negative-row", "string", "bool", "complex"],
    )
    def test_malformed_entry_rejected(self, entries, match):
        with pytest.raises(InvalidParameter, match=match):
            opmodel.ModelOperator(2, entries)

    @pytest.mark.parametrize(
        "combine",
        [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a @ b, lambda a, b: a.equals(b)],
        ids=["add", "sub", "matmul", "equals"],
    )
    def test_operators_of_two_sizes_are_refused(self, combine):
        # a size-3 sum held column 4, and two empty operators were equal
        small, large = opmodel.ModelOperator(3, {}), opmodel.ModelOperator(5, {(4, 4): 1})
        for a, b, sizes in ((small, large, "3 and 5"), (large, small, "5 and 3")):
            with pytest.raises(InvalidParameter, match=f"^operators on {sizes} basis vectors$"):
                combine(a, b)


class TestJacobiOperator:
    def test_point_mass_is_one_by_one(self):
        op = opmodel.jacobi_operator(point_mass(F(5, 2)).jacobi(), 1)
        assert rational(op) == {0: {0: F(5, 2)}}

    def test_symmetric_two_point_is_flip(self):
        op = opmodel.jacobi_operator(bernoulli_symmetric().jacobi(), 2)
        assert rational(op) == {1: {0: F(1)}, 0: {1: F(1)}}

    def test_constant_tail_moments(self):
        op = opmodel.jacobi_operator(wigner(0, 1).jacobi(), 8)
        vac = {0: F(1)}
        cur = vac
        moments = []
        for _ in range(15):
            cur = op.apply(cur)
            moments.append(opmodel.vec_dot(cur, vac))
        assert tuple(moments) == wigner(0, 1).moments(15)

    def test_irrational_root_stays_exact_on_monic_polynomials(self):
        # x p_0 = p_1 and x p_1 = 2 p_0 + p_1 / 2, with |p_1|^2 = 2
        j = make_jacobi([0, F(1, 2)], [2, 0])
        op = opmodel.jacobi_operator(j, 2)
        assert rational(op) == {0: {1: 1}, 1: {0: F(2), 1: F(1, 2)}}
        assert opmodel.monic_norms(j, 2) == [F(1), F(2)]
        assert op.is_self_adjoint([F(1), F(2)]) and not op.is_self_adjoint([1, 1])

    def test_terminated_measure_stays_on_its_support(self):
        # omega_1 = 0: p_2 has norm 0, so column 1 does not reach it
        j = make_jacobi([1, 2], [F(1, 3), 0])
        op = opmodel.jacobi_operator(j, 4)
        assert rational(op) == {0: {0: F(1), 1: 1}, 1: {0: F(1, 3), 1: F(2)}}
        assert opmodel.monic_norms(j, 4) == [F(1), F(1, 3), F(0), F(0)]

    def test_depth_guard(self):
        with pytest.raises(OrderExceeded, match="2 truncated recursion levels"):
            opmodel.jacobi_operator(make_jacobi([0, 0], [1]), 4)


class TestFreeProductRep:
    def test_representation_is_self_adjoint_under_the_word_weights(self):
        model = small_model()
        assert model.x1.is_self_adjoint(model.weights)
        assert model.x2.is_self_adjoint(model.weights)
        assert not model.x1.is_self_adjoint([1] * len(model.basis))
        # a word's weight is the product of its letters' |p_k|^2
        w1, w2 = model.factor_weights
        assert model.weights[model.basis.index[((1, 2), (2, 1), (1, 3))]] == w1[2] * w2[1] * w1[3]

    def test_vacuum_moments_are_free_convolution(self):
        model = small_model(seed=1)
        mu = MeasureRep.from_jacobi(model.mu_jacobi)
        nu = MeasureRep.from_jacobi(model.nu_jacobi)
        order = model.depth_cap
        loc = convolve.free(mu, nu, order).moments(order)
        got = model.state_moments(model.total(), order)
        assert tuple(got) == loc

    def test_irrational_root_pair_is_exact_at_depth_40(self):
        # omega = 2 and 27/16 have no rational square root
        mu, nu = two_point(F(1, 3), -1, 2), two_point(F(1, 4), 0, 3)
        model = opmodel.FreeProductModel(mu, nu, depth_cap=40)
        got = model.state_moments(model.total(), 40)
        assert all(type(x) is F for x in got)
        assert tuple(got) == convolve.free(mu, nu, 40).moments(40)
        assert got[5] == F(117571, 16)

    def test_state_moments_use_the_word_weights(self):
        # v = X1 X2 vac spreads over words of several weights; by
        # self-adjointness <A^n v, v> = phi(X2 X1 A^n X1 X2) in the vacuum,
        # whose one word has weight 1
        model = thirds_model()
        x1, x2, total = model.x1, model.x2, model.total()
        vac = model.vacuum()
        vec = x1.apply(x2.apply(vac))
        assert len({model.weights[k] for k in vec}) > 1

        def phi(ops):
            cur = vac
            for op in reversed(ops):
                cur = op.apply(cur)
            return cur.get(0, 0)

        want = [phi([x2, x1] + [total] * n + [x1, x2]) / phi([x2, x1, x1, x2]) for n in range(1, 6)]
        assert model.state_moments(total, 5, vec=vec) == want

    @pytest.mark.parametrize("depth", [3, 6, 10])
    def test_tail_and_two_point_are_exact_through_the_cap_order_and_no_further(self, depth):
        # the tail's path reaches the cap, the two-point law's stops at its 2 levels
        mu, nu = wigner(F(1, 2), 2), two_point(F(1, 3), -1, 2)
        model = opmodel.FreeProductModel(mu, nu, depth_cap=depth)
        assert model.basis.dims == (depth + 1, 2)
        order = 2 * depth + 1
        got = model.state_moments(model.total(), order + 1)
        want = convolve.free(mu, nu, order + 1).moments(order + 1)
        assert tuple(got[:order]) == want[:order]
        assert got[order] != want[order]

    def test_operator_of_another_size_rejected(self):
        model = small_model()
        for size in (len(model.basis) - 1, len(model.basis) + 1):
            with pytest.raises(InvalidParameter, match="basis vectors"):
                model.state_moments(opmodel.ModelOperator(size, {(0, 0): 1}), 2)

    def test_finite_factor_gets_no_letter_past_its_levels(self):
        # the two levels of a terminated recursion make the whole path, so no
        # word holds p_2, whose norm is 0, and every weight is positive
        j = make_jacobi([1, 2], [F(1, 3), 0])
        model = opmodel.FreeProductModel(j, j, depth_cap=4)
        assert model.basis.dims == (2, 2)
        assert all(k == 1 for w in model.basis.words for _, k in w)
        assert all(w > 0 for w in model.weights)
        with pytest.raises(InvalidParameter, match="not in the basis"):
            model.word_vector(((1, 2),))

    def test_state_of_norm_zero_rejected(self):
        model = small_model(dim=2, depth=4)
        with pytest.raises(InvalidParameter, match="norm 0"):
            model.state_moments(model.total(), 2, vec={model.basis.index[((1, 1),)]: F(0)})

    @pytest.mark.parametrize("key", [-1, 7, 99, 10**6])
    def test_state_key_outside_the_basis_rejected(self, key):
        # a negative key would read a weight from the end, a large one past it
        model = opmodel.FreeProductModel(two_point(F(1, 3), -1, 2), two_point(F(1, 4), 0, 3), depth_cap=3)
        bad = {key: F(1)}
        with pytest.raises(InvalidParameter, match="outside the 7 basis vectors"):
            model.state_moments(model.total(), 3, vec=bad)
        for xi, eta in ((bad, model.vacuum()), (model.vacuum(), bad)):
            with pytest.raises(InvalidParameter, match="outside the 7 basis vectors"):
                opmodel.orthogonality_check(model.x1, model.x2, xi, eta, 2, model.weights)

    def test_centered_alternating_products_vanish(self):
        model = small_model(seed=2)
        mu_m = MeasureRep.from_jacobi(model.mu_jacobi).moments(6)
        nu_m = MeasureRep.from_jacobi(model.nu_jacobi).moments(6)
        for powers in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (1, 1, 1, 1)]:
            vec = model.vacuum()
            for i, p in enumerate(reversed(powers)):
                pos = len(powers) - 1 - i
                op = model.x1 if pos % 2 == 0 else model.x2
                mean = (mu_m if pos % 2 == 0 else nu_m)[p - 1]
                cur = vec
                for _ in range(p):
                    cur = op.apply(cur)
                vec = {k: cur.get(k, 0) - mean * vec.get(k, 0) for k in set(cur) | set(vec)}
            assert opmodel.vec_dot(vec, model.vacuum()) == 0


class TestReplicas:
    def test_sum_reassembles_representation(self):
        model = small_model(seed=3)
        for factor, lam in ((1, model.x1), (2, model.x2)):
            acc = opmodel.ModelOperator(len(model.basis), {})
            for n in range(1, model.depth_cap + 2):
                acc = acc + model.replica(factor, n)
            assert acc.equals(lam)

    def test_distant_replicas_annihilate(self):
        model = small_model(seed=4)
        for n, m in [(1, 3), (2, 4), (1, 4)]:
            assert not (model.replica(1, n) @ model.replica(1, m)).entries

    def test_first_replica_acts_like_factor(self):
        model = small_model(seed=5)
        mu = MeasureRep.from_jacobi(model.mu_jacobi)
        got = model.state_moments(model.replica(1, 1), 7)
        assert tuple(got) == mu.moments(7)

    def test_level_guard(self):
        model = small_model()
        with pytest.raises(InvalidParameter, match="replica level"):
            model.replica(1, model.depth_cap + 2)


def compress(op, keep):
    """Reference replica: the entries with row and column both kept."""
    entries = {(r, c): v for c, col in rational(op).items() for r, v in col.items() if r in keep and c in keep}
    return opmodel.ModelOperator(op.size, entries)


def refuse_arithmetic(self, other, op):
    raise AssertionError("operator arithmetic after the model was built")


def replica_sums(model):
    """Reference replicas and branches: compressions to the slabs and
    their alternating sums."""
    last = model.depth_cap + 1
    replicas = {
        (i, n): compress(x, level_indices(model.basis, i, n))
        for i, x in ((1, model.x1), (2, model.x2))
        for n in range(1, last + 1)
    }
    branches = {}
    for i in (1, 2):
        for k in range(1, last + 1):
            want = opmodel.ModelOperator(len(model.basis), {})
            for n in range(k, last + 1, 2):
                want = want + replicas[i, n]
            for n in range(k + 1, last + 1, 2):
                want = want + replicas[3 - i, n]
            branches[i, k] = want
    return replicas, branches


def free_product_rep(a, factor, basis):
    """Reference representation, word by word: on a word starting with the
    factor the operator mixes that first letter (and contracts it away
    through its vacuum component); on any other word it acts through the
    factor's vacuum vector, prepending a letter.  Images outside the basis
    are dropped."""
    cols = {}
    for ci, w in enumerate(basis.words):
        b, rest = (w[0][1], w[1:]) if w and w[0][0] == factor else (0, w)
        col = {}
        for r, v in a.entries.get(b, {}).items():
            ri = basis.index.get(rest if r == 0 else ((factor, r),) + rest)
            if ri is not None:
                col[ri] = v
        if col:
            cols[ci] = col
    return opmodel.ModelOperator._of(len(basis), cols, a.den)


def factor_input(rng, kind):
    """A factor of a seeded recursion: kind n = 1..4 is a finite one of n
    levels, 5 one truncated to 3 levels, 6 a constant tail."""
    if kind <= 4:
        return complete_jacobi(rng, kind)
    if kind == 5:
        return cut(complete_jacobi(rng, 6), 3)
    return wigner(F(rng.randint(-3, 3), 2), F(rng.randint(1, 3), rng.randint(1, 2))).jacobi()


def test_model_equals_the_word_by_word_representation():
    # six kinds of factor on each side, depth cap 1-5: 180 models
    rng = random.Random(175)
    for kinds in itertools.product(range(1, 7), repeat=2):
        for depth in range(1, 6):
            jmu, jnu = (factor_input(rng, kind) for kind in kinds)
            model = opmodel.FreeProductModel(jmu, jnu, depth_cap=depth)
            case = (kinds, depth)
            for factor, x in ((1, model.x1), (2, model.x2)):
                want = free_product_rep(model.factors[factor - 1], factor, model.basis)
                assert (x.entries, x.den) == (want.entries, want.den), case
            weights = [math.prod(model.factor_weights[f - 1][k] for f, k in w) for w in model.basis.words]
            assert model.weights == weights, case
            replicas, branches = replica_sums(model)
            for key, want in replicas.items():
                assert rational(model.replica(*key)) == rational(want), (case, key)
            for key, want in branches.items():
                assert rational(model.branch(*key)) == rational(want), (case, key)


class TestFactorOutsideOneAndTwo:
    # a factor index other than 1 or 2 read another factor's operators, or raised a bare IndexError;
    # True was read as 1, and 1.0 or 2.0 raised a bare TypeError
    model = small_model(seed=2, dim=3, depth=3)

    @pytest.mark.parametrize("factor", [0, 3, True, 1.0, 2.0])
    def test_replica_rejects_it(self, factor):
        with pytest.raises(InvalidParameter, match="factor must be 1 or 2"):
            self.model.replica(factor, 1)

    @pytest.mark.parametrize("factor", [0, 3, True, 1.0, 2.0])
    def test_branch_rejects_it(self, factor):
        with pytest.raises(InvalidParameter, match="factor must be 1 or 2"):
            self.model.branch(factor, 1)


@pytest.mark.parametrize(
    "model",
    [
        small_model(seed=14, dim=4, depth=6),
        opmodel.FreeProductModel(wigner(F(1, 2), 2), small_model(seed=15, dim=3, depth=2).nu_jacobi, depth_cap=5),
    ],
    ids=["equal-paths", "tail-and-finite"],
)
def test_replicas_and_branches_equal_their_definitions(model, monkeypatch):
    replicas, branches = replica_sums(model)
    total = model.x1 + model.x2
    # the model assembles all three from columns it built once
    monkeypatch.setattr(opmodel.ModelOperator, "_combine", refuse_arithmetic)
    assert model.total().entries == total.entries
    assert model.total() is model.total()
    for (i, n), want in replicas.items():
        assert rational(model.replica(i, n)) == rational(want), (i, n)
    for (i, k), want in branches.items():
        assert rational(model.branch(i, k)) == rational(want), (i, k)


def test_cancelling_pair_has_an_empty_total():
    # x1 = a and x2 = -a on the one-word space: their sum has no column, and
    # the empty word lies in slab 1 of both factors, so branch(1, 1) is x1
    a = F(3, 2)
    model = opmodel.FreeProductModel(point_mass(a), point_mass(-a), depth_cap=3)
    replicas, branches = replica_sums(model)
    assert model.total().entries == {}
    assert model.total().equals(replicas[1, 1] + replicas[2, 1])
    assert rational(model.branch(1, 1)) == rational(branches[1, 1]) == {0: {0: a}}
    for (i, k), want in branches.items():
        assert rational(model.branch(i, k)) == rational(want), (i, k)
    assert model.state_moments(model.total(), 3) == [0, 0, 0]


@pytest.mark.parametrize(
    "model",
    [
        thirds_model(),
        halves_and_thirds_model(),
        opmodel.FreeProductModel(wigner(F(1, 3), F(4, 9)), thirds_model().nu_jacobi, depth_cap=4),
        opmodel.FreeProductModel(point_mass(F(3, 2)), point_mass(F(-3, 2)), depth_cap=3),
    ],
    ids=["thirds", "halves-and-thirds", "tail-and-truncated", "cancelling"],
)
def test_model_operators_are_ints_over_one_denominator(model):
    d1, d2 = model.basis.dims
    den = math.lcm(opmodel.jacobi_operator(model.mu_jacobi, d1).den, opmodel.jacobi_operator(model.nu_jacobi, d2).den)
    last = model.depth_cap + 1
    ops = [*model.factors, model.x1, model.x2, model.total()]
    ops += [model.replica(i, n) for i in (1, 2) for n in range(1, last + 1)]
    ops += [model.branch(i, k) for i in (1, 2) for k in range(1, last + 1)]
    assert {op.den for op in ops} == {den}
    assert all(type(v) is int for op in ops for col in op.entries.values() for v in col.values())
    # the factors carry their own rationals over the shared denominator
    assert rational(model.factors[0]) == rational(opmodel.jacobi_operator(model.mu_jacobi, d1))
    assert rational(model.factors[1]) == rational(opmodel.jacobi_operator(model.nu_jacobi, d2))


def test_factors_over_2_and_3_share_the_denominator_6():
    model = halves_and_thirds_model()
    assert [opmodel.jacobi_operator(j, 2).den for j in (model.mu_jacobi, model.nu_jacobi)] == [2, 3]
    assert model.total().den == 6
    mu, nu = MeasureRep.from_jacobi(model.mu_jacobi), MeasureRep.from_jacobi(model.nu_jacobi)
    assert tuple(model.state_moments(model.total(), 9)) == convolve.free(mu, nu, 9).moments(9)


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__")


def test_operator_arithmetic_and_moment_chains_do_no_fraction_arithmetic(monkeypatch):
    model = thirds_model()
    x1, x2, total = model.x1, model.x2, model.total()
    calls = []
    for name in FRACTION_ARITHMETIC:
        def counted(*args, _real=getattr(F, name)):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(F, name, counted)
    assert (x1 + x2).equals(total) and (total - x1).equals(x2)
    assert not (model.replica(1, 1) @ model.replica(1, 3)).entries
    assert x1.is_self_adjoint(model.weights) and total.is_self_adjoint(model.weights)
    assert not calls
    # only the state's bra is rational: the chain adds no Fraction operation
    model.state_moments(total, 2, vec=model.word_vector(((1, 1),)))
    setup, calls[:] = len(calls), []
    model.state_moments(total, 9, vec=model.word_vector(((1, 1),)))
    assert len(calls) == setup


def fraction_state_moments(model, op, n_max, vec):
    """Reference: the moment chain on `Fraction` columns, divided by the
    state's norm at every step."""
    vec_bra = opmodel.bra(vec, model.weights)
    norm = opmodel.vec_dot(vec, vec_bra)
    out, cur = [], vec
    for _ in range(n_max):
        cur = op.apply(cur)
        out.append(opmodel.vec_dot(cur, vec_bra) / norm)
    return out


def test_state_moments_equal_the_fraction_chain():
    model = thirds_model()
    # an operator with no column, on the words of index sum at most 2
    capped = thirds_model(depth=2)
    empty = capped.x1 - capped.x1
    assert not empty.entries

    def state(m):
        # entries over 5 and 7, which no entry of the thirds model has
        idx = m.basis.index
        return {0: F(2, 5), idx[((2, 1),)]: F(-3, 7), idx[((1, 1), (2, 1))]: F(1, 35)}

    cases = [
        (model, model.total(), model.vacuum()),
        (model, model.branch(1, 2), model.word_vector(((2, 1),))),
        (model, model.x1, state(model)),
        (model, model.total(), state(model)),
        (capped, empty, state(capped)),
    ]
    for m, op, v in cases:
        got = m.state_moments(op, 7, vec=v)
        assert got == fraction_state_moments(m, op, 7, v)
        assert all(type(x) is F for x in got)
    assert capped.state_moments(empty, 3, vec=state(capped)) == [0, 0, 0]


def complete_jacobi(rng, levels):
    alpha = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(levels)]
    omega = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(levels - 1)]
    return make_jacobi(alpha, omega + [0])


@pytest.mark.parametrize("seed", [0, 1])
def test_vacuum_moments_exact_through_the_certified_order_and_no_further(seed):
    # factors with 7 levels, whole or cut to truncated inputs of d1 and d2
    # levels: the first moment off the free convolution is order 2D + 2, or
    # 2d for the least d <= D of a cut factor
    rng = random.Random(seed)
    jmu, jnu = complete_jacobi(rng, 7), complete_jacobi(rng, 7)
    want = convolve.free(MeasureRep.from_jacobi(jmu), MeasureRep.from_jacobi(jnu), 14).moments(14)
    for depth, d1, d2 in [
        (2, 6, 6), (3, 6, 6), (4, 6, None), (6, None, None), (5, 6, 6),
        (6, 2, 2), (6, 3, None), (6, None, 3), (4, 4, 4), (5, 3, 4),
    ]:
        model = opmodel.FreeProductModel(cut(jmu, d1) if d1 else jmu, cut(jnu, d2) if d2 else jnu, depth_cap=depth)
        order = 2 * min(depth + 1, d1 or 8, d2 or 8) - 1
        got = model.state_moments(model.total(), order + 1)
        assert tuple(got[:order]) == want[:order], (depth, d1, d2)
        assert got[order] != want[order], (depth, d1, d2)


def word_state_order(depth, dims, word):
    """The order through which the state at `word` is exact: min(2(D - s),
    2t) + 1, with t the least over the letters of a cut factor, dims[f - 1]
    levels (None for a whole one), of its levels - 1 minus the letter's
    index plus the index sum in front of it."""
    t, front = depth, 0
    for factor, index in word:
        if dims[factor - 1]:
            t = min(t, front + dims[factor - 1] - 1 - index)
        front += index
    return min(2 * (depth - front), 2 * t) + 1


@pytest.mark.parametrize("seed", [0, 1])
def test_word_state_moments_exact_through_the_certified_order_and_no_further(seed):
    # against a model of the whole 7-level factors at depth 8, exact at
    # these words through order 2(8 - s) + 1 >= 7
    rng = random.Random(seed)
    jmu, jnu = complete_jacobi(rng, 7), complete_jacobi(rng, 7)
    ref = opmodel.FreeProductModel(jmu, jnu, depth_cap=8)
    for depth, dims, word, binding in [
        (2, (6, 6), ((1, 1),), "cap, one letter"),
        (3, (6, 6), ((1, 1), (2, 1)), "cap, two letters"),
        (4, (None, None), ((2, 2), (1, 1)), "cap, whole factors"),
        (8, (4, 4), ((1, 2), (2, 1)), "largest letter first"),
        (8, (4, 4), ((1, 1), (2, 3)), "largest letter second"),
        (8, (4, 4), ((2, 1), (1, 1), (2, 3)), "largest letter third"),
        (8, (4, None), ((1, 1), (2, 3)), "largest letter of a whole factor"),
    ]:
        d1, d2 = dims
        model = opmodel.FreeProductModel(cut(jmu, d1) if d1 else jmu, cut(jnu, d2) if d2 else jnu, depth_cap=depth)
        order = word_state_order(depth, dims, word)
        got = model.state_moments(model.total(), order + 1, vec=model.word_vector(word))
        want = ref.state_moments(ref.total(), order + 1, vec=ref.word_vector(word))
        assert got[:order] == want[:order], binding
        assert got[order] != want[order], binding
    # behind a letter of index 1, the index-3 letter reaches level 4 only
    # after 4 steps, not the 2 that 4 - 1 - 3 allows; a whole factor's
    # letter bounds nothing
    assert word_state_order(8, (4, 4), ((1, 1), (2, 3))) == 2 * (1 + 4 - 1 - 3) + 1 == 3
    assert word_state_order(8, (4, None), ((1, 1), (2, 3))) == 2 * (4 - 1 - 1) + 1 == 5


class TestBranches:
    def test_recursion_peels_one_replica(self):
        model = small_model(seed=6)
        for j, k in [(1, 1), (2, 1), (1, 2)]:
            lhs = model.branch(j, k)
            rhs = model.replica(j, k) + model.branch(3 - j, k + 1)
            assert lhs.equals(rhs)

    def test_branches_sum_to_total(self):
        model = small_model(seed=7)
        assert (model.branch(1) + model.branch(2)).equals(model.total())

    def test_vacuum_branch_moments_are_subordinate_halves(self):
        model = small_model(seed=8)
        mu = MeasureRep.from_jacobi(model.mu_jacobi)
        nu = MeasureRep.from_jacobi(model.nu_jacobi)
        order = 6
        assert tuple(model.state_moments(model.branch(1), order)) == convolve.sfree(
            mu, nu, order
        ).moments(order)
        assert tuple(model.state_moments(model.branch(2), order)) == convolve.sfree(
            nu, mu, order
        ).moments(order)

    def test_branch_law_persists_at_deeper_states(self):
        model = small_model(seed=9)
        mu = MeasureRep.from_jacobi(model.mu_jacobi)
        nu = MeasureRep.from_jacobi(model.nu_jacobi)
        eta = model.word_vector(((2, 1),))
        got = model.state_moments(model.branch(1, 2), 5, vec=eta)
        assert tuple(got) == convolve.sfree(mu, nu, 5).moments(5)

    def test_branches_boolean_independent(self):
        model = small_model(seed=10)
        b1, b2 = model.branch(1), model.branch(2)
        vac = model.vacuum()

        def phi(ops):
            cur = vac
            for op in reversed(ops):
                cur = op.apply(cur)
            return opmodel.vec_dot(cur, vac)

        for k1, k2, k3 in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]:
            lhs = phi([b1] * k1 + [b2] * k2 + [b1] * k3)
            rhs = phi([b1] * k1) * phi([b2] * k2) * phi([b1] * k3)
            assert lhs == rhs

    def test_first_replica_with_rest_is_monotone_pair(self):
        model = small_model(seed=11)
        x = model.replica(1, 1)
        z = model.total() - x
        vac = model.vacuum()

        def phi(ops):
            cur = vac
            for op in reversed(ops):
                cur = op.apply(cur)
            return opmodel.vec_dot(cur, vac)

        for p1, q, p2 in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 3, 2)]:
            assert phi([x] * p1 + [z] * q + [x] * p2) == phi([z] * q) * phi(
                [x] * (p1 + p2)
            )
            assert phi([x] * p1 + [z] * q) == phi([z] * q) * phi([x] * p1)


class TestOrthogonalityCheck:
    def test_replica_branch_pair_is_clean(self):
        model = small_model(seed=12)
        rep = opmodel.orthogonality_check(
            model.replica(1, 1),
            model.branch(2, 2),
            model.vacuum(),
            model.word_vector(((1, 1),)),
            3,
            model.weights,
        )
        assert rep.ok, rep.violations[:3]

    def test_generic_free_pair_fails(self):
        model = small_model(seed=13)
        rep = opmodel.orthogonality_check(
            model.x1, model.x2, model.vacuum(), model.word_vector(((1, 1),)), 3, model.weights
        )
        assert not rep.ok
        assert rep.violations


def orthogonality_check_reference(a, b, xi, eta, n_max, weights):
    """The orthogonality check as first written: every monomial is applied
    from scratch, one `ModelOperator.apply` per letter, and every inner
    product sums over the weights on `Fraction`s.  Kept as the reference
    for the shared-chain version."""

    def dot(u, v):
        return sum((x * v.get(k, 0) * weights[k] for k, x in u.items()), F(0))

    ops = {"a": a, "b": b}
    n_xi = dot(xi, xi)
    n_eta = dot(eta, eta)

    words = [()]
    frontier = [()]
    for _ in range(n_max):
        nxt = []
        for w in frontier:
            for letter in ("a", "b"):
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt

    def apply_word(word, vec):
        for letter in reversed(word):
            vec = ops[letter].apply(vec)
        return vec

    suffix = {w: apply_word(w, xi) for w in words}
    lefts = {w: apply_word(tuple(reversed(w)), xi) for w in words}

    a_pow = [xi]
    for _ in range(2 * n_max):
        a_pow.append(a.apply(a_pow[-1]))

    psi_b = [1]
    cur = eta
    for _ in range(n_max):
        cur = b.apply(cur)
        psi_b.append(dot(cur, eta) / n_eta)

    violations = []
    checked = 0

    for p in range(1, n_max + 1):
        for q in range(1, n_max + 1):
            vec = apply_word(("a",) * p + ("b",) * q, xi)
            val = dot(vec, xi) / n_xi
            checked += 1
            if val != 0:
                violations.append(f"phi(a^{p} b^{q}) = {val}")
            vec = apply_word(("b",) * q + ("a",) * p, xi)
            val = dot(vec, xi) / n_xi
            checked += 1
            if val != 0:
                violations.append(f"phi(b^{q} a^{p}) = {val}")

    for w2 in words:
        base = suffix[w2]
        for q in range(1, n_max + 1):
            v_q = apply_word(("a",) * q, base)
            phi_a2w2 = dot(v_q, xi) / n_xi
            for s in range(1, n_max + 1):
                v_s = apply_word(("b",) * s, v_q)
                for p in range(1, n_max + 1):
                    v_p = apply_word(("a",) * p, v_s)
                    v_plain = a_pow[p + q] if w2 == () else apply_word(("a",) * (p + q), base)
                    for w1 in words:
                        bra = lefts[w1]
                        lhs = dot(v_p, bra) / n_xi
                        phi_w1a1 = dot(a_pow[p], bra) / n_xi
                        rhs = psi_b[s] * (
                            dot(v_plain, bra) / n_xi - phi_w1a1 * phi_a2w2
                        )
                        checked += 1
                        if lhs != rhs:
                            violations.append(
                                "phi(w1 a^%d b^%d a^%d w2) mismatch at w1=%s w2=%s: %s vs %s"
                                % (p, s, q, "".join(w1) or "1", "".join(w2) or "1", lhs, rhs)
                            )
    return opmodel.OrthogonalityReport(not violations, checked, violations)


def recorded_orthogonality_checks(names, inputs, run=True):
    """((a, b, xi, eta, n_max, weights), report) of every orthogonality
    check that the named verify checks make on `inputs`.  With `run=False`
    only the arguments are recorded, and each check is answered by a clean
    report."""
    calls = []
    real = opmodel.orthogonality_check

    def record(*args):
        report = real(*args) if run else opmodel.OrthogonalityReport(True, 0, [])
        calls.append((args, report))
        return report

    with pytest.MonkeyPatch.context() as m:
        m.setattr(opmodel, "orthogonality_check", record)
        for name in names:
            verify.run_check(name, inputs)
    return calls


REFERENCE_CASES = (
    ["x1-x2"]
    + [f"replica-branch-{i}" for i in range(1, 7)]
    + ["tensor-path3-path2", "irrational-x1-x2", "irrational-replica-branch"]
    + ["thirds-x1-x2", "thirds-replica-branch"]
)
FAILING_CASES = ("x1-x2", "irrational-x1-x2", "thirds-x1-x2")


@pytest.fixture(scope="module")
def reference_cases():
    # the verify model's random factors, on a smaller word space
    rng = random.Random(7)
    jmu = verify.random_square_omega_jacobi(rng)
    jnu = verify.random_square_omega_jacobi(rng)
    model = opmodel.FreeProductModel(cut(jmu, 4), cut(jnu, 4), depth_cap=6)
    names = [
        "generic-free-pair-fails-orthogonality",
        "replica-branch-pairs-pass-orthogonality",
        "tensor-pair-of-graphs-passes-orthogonality",
    ]
    calls = recorded_orthogonality_checks(names, SimpleNamespace(seed=7, model=model), run=False)
    cases = [args[:4] + args[5:] for args, _ in calls]
    # omega = 2 has no rational square root: the weights are not squares
    irr = make_jacobi([0, 0], [F(2)])
    model_i = opmodel.FreeProductModel(irr, irr, depth_cap=10)
    word = model_i.word_vector(((1, 1),))
    cases.append((model_i.x1, model_i.x2, model_i.vacuum(), word, model_i.weights))
    cases.append((model_i.replica(1, 1), model_i.branch(2, 2), model_i.vacuum(), word, model_i.weights))
    # entries over 3 and 6, and states with fractional entries, so the
    # integer check scales every operator and vector by more than 1
    model_3 = thirds_model()
    idx = model_3.basis.index
    xi = {0: F(2, 3), idx[((2, 1),)]: F(-5, 6)}
    eta = {idx[((1, 1),)]: F(3, 2), idx[((2, 2),)]: F(-1, 3)}
    cases.append((model_3.x1, model_3.x2, xi, eta, model_3.weights))
    eta = {idx[((1, 1),)]: F(2, 3), idx[((1, 2),)]: F(-5, 6)}
    cases.append((model_3.replica(1, 1), model_3.branch(2, 2), {0: F(-4, 3)}, eta, model_3.weights))
    assert len(cases) == len(REFERENCE_CASES)
    return dict(zip(REFERENCE_CASES, cases))


class TestOrthogonalityCheckAgainstReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_report_equals_the_reference_in_every_field(self, reference_cases, case):
        a, b, xi, eta, weights = reference_cases[case]
        for n_max in (1, 2, 3):
            got = opmodel.orthogonality_check(a, b, xi, eta, n_max, weights)
            want = orthogonality_check_reference(a, b, xi, eta, n_max, weights)
            assert got == want, n_max
        # the cases reach both outcomes
        assert got.ok == (case not in FAILING_CASES)
        if case == "thirds-x1-x2":
            # condition (i) fails too, so its text comes from scaled integers
            assert any(v.startswith("phi(a^") for v in got.violations)


class TestOrthogonalityCheckSpeed:
    # sha256 of the violation lines, one per line, as the reference gives them
    VIOLATIONS_SHA256 = {
        3: "3c108cd6127f12b4674d0318c6fe10624b0db40f70690192a6080de8bc046bd1",
        7: "263edb83229099ebf951fe51b7daa1bd4c9f65c289a5040acdce10f57cd6676e",
    }

    @pytest.mark.parametrize("seed", [3, 7])
    def test_generic_free_pair_check_within_bound(self, seed):
        # on a 2-core machine under Python 3.11 the check takes about 0.02 s
        # by rows, and counting its violations formats none of them (the
        # digest's 6 093 texts take about 0.045 s more); dot by dot on
        # integers it took about 0.05 s, on Fraction chains about 0.7 s, and
        # applying every monomial from scratch about 6 s
        inputs = verify.suite_inputs("opmodel", seed)
        start = time.perf_counter()
        ((_, report),) = recorded_orthogonality_checks(["generic-free-pair-fails-orthogonality"], inputs)
        elapsed = time.perf_counter() - start
        assert (report.ok, report.checked, len(report.violations)) == (False, 6093, 6093)
        digest = hashlib.sha256("\n".join(report.violations).encode()).hexdigest()
        assert digest == self.VIOLATIONS_SHA256[seed]
        assert elapsed < 1.0, elapsed
