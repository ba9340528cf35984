"""Truncated operator model on the two-factor word space.

The state space is spanned by the empty word plus alternating words of
letters (factor, basis_index); a letter with factor i and index k stands
for p_k, the monic orthogonal polynomial of degree k of factor i's
measure.  Factor operators act by prepending, replacing or contracting
the first letter, which is the free-product representation restricted to
the truncated basis; images that would leave the basis are dropped, and
the certified-order rules below say how far moments are still exact.

Certified orders: the one cap is the depth cap D on a word's index sum,
which also bounds its length, since every index is at least 1.  A factor
takes the first d levels of its input, d = D + 1 for a `wigner` tail and
min(D + 1, levels) for a finite or truncated recursion, so only a
truncated recursion of at most D levels stops before the cap.  The moments
of the total in the state at a word of index sum s are exact through order
min(2(D - s), 2t) + 1, where t is the least, over the word's letters from
a truncated factor, of d - 1 minus the letter's index plus the index sum
in front of it (t = d - 1 at the vacuum, and no bound without a truncated
factor).  At the vacuum that is 2D + 1, or 2d - 1 for the least d of a
truncated factor.  A moment of order n sums the walks of n steps from the
word back to it.  A step adds or removes a letter of index 1 at the front
or moves the first letter's index by one, so a deeper letter's index moves
only once the letters in front are stripped, one index per step.  The
index sum and that cost rise by at most one per step and must come back
down, so a walk of n steps stays within n // 2 of each, inside the
truncated space for n up to the bound.  A finite factor's path is its
whole operator, and a path of D + 1 levels holds every index the cap
allows, so neither adds a bound.  In a state on several words the least of
their orders holds.  The bound is tight: on seeded factors, the next order
differs at the vacuum from the free convolution and at words of length up
to 3 from a deeper model, for the cap and for a truncated factor.

A factor acts as multiplication by x on its monic polynomials,
x p_k = p_(k+1) + alpha_k p_k + omega_(k-1) p_(k-1) (Gautschi,
*Orthogonal Polynomials*, OUP 2004, section 1.3), so every entry is a
rational of the input and no square root is taken.  That basis is
orthogonal but not orthonormal: |p_k|^2 = omega_0 ... omega_(k-1).  A
word's weight is the product of its letters' weights, the inner product
of two vectors is sum_w u_w v_w weight(w), and the operators are
self-adjoint under it rather than symmetric.  `bra` folds the weights
into one side, so a plain `vec_dot` gives the inner product.

Operators are held by column, the one form every reader wants, as ints
over a denominator `den`.  A model puts both factors over one, which its
representations, total, replicas and branches then share.

A factor's operator is a rooted path whose vertex k is the letter of
index k (Hora & Obata, *Quantum Probability and Spectral Analysis of
Graphs*, Springer 2007), so the word space is the free product of the two
paths, with letter k at cost k and the depth cap as the cost cap.
`graphs._alternating_words`, which also builds the graph free product,
grows its words and the copies of the paths they hang.  A factor's
representation is its operator relabelled through each of its copies.  A
copy hung at a word of length n lies in slab n + 1, so a word's slab is its
length, plus one unless it starts with the factor.  A replica is the
copies of one slab, and a branch the copies of alternating slabs of the
two factors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

from .errors import InvalidParameter
from .graphs import _alternating_words, _check_factor
from .measures import JacobiParams, _as_jacobi, _over_lcm
from .series import _frac

Word = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Word basis
# ---------------------------------------------------------------------------

class WordBasis(namedtuple("WordBasis", "words dims depth_cap index copies")):
    """Alternating words of index sum at most the depth cap.

    Factor f of `dims[f - 1]` levels is the rooted path 0 - 1 - ... -
    (dims[f - 1] - 1), whose vertex k is the letter of index k at cost k,
    so the basis is the words of the free product of the two paths under
    the depth cap, as `graphs` grows them: length-lexicographic with the
    factor breaking ties, so matrices are reproducible across runs, and
    counted first, so a basis past 200 000 words raises `InvalidParameter`
    before any is built.  `copies` are the copies of the paths the words
    hang, as (factor, host word, slab, vertex -> word index), the map None
    for a copy that is its root alone.  The cap bounds the basis without
    touching any word reachable within the certified orders, since one
    operator application raises the total index by at most one.

    `index` maps each word to its position.  `len(basis)` is the word
    count, not the field count, so another basis is built, never
    `_replace`d.  A basis compares, hashes and prints by its words, dims
    and depth cap alone, since `index` and `copies` follow from them.
    """

    __slots__ = ()

    @classmethod
    def build(cls, dims: tuple[int, int], depth_cap: int) -> "WordBasis":
        if depth_cap < 1:
            raise InvalidParameter("depth cap must be >= 1")
        if min(dims) < 1:
            raise InvalidParameter("factor dimension must be >= 1")
        n, copies = _alternating_words(
            [dict.fromkeys(range(1, d), 1) for d in dims],  # letter k costs k
            lambda f: (0, [(k, k) for k in range(1, dims[f - 1])]),
            depth_cap, (1, 2), f"word basis of depth cap {depth_cap}",
        )
        words: list[Word] = [()] * n
        for factor, host, _, name in copies:
            rest = words[host]
            for k, i in (name or {}).items():
                if k:
                    words[i] = ((factor, k),) + rest
        return cls(tuple(words), tuple(dims), depth_cap, {w: i for i, w in enumerate(words)}, copies)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other):
        return self[:3] == other[:3] if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other):
        return self[:3] != other[:3] if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:3])

    def __repr__(self) -> str:
        return f"WordBasis(words={self.words!r}, dims={self.dims!r}, depth_cap={self.depth_cap!r})"


# ---------------------------------------------------------------------------
# Sparse operators
# ---------------------------------------------------------------------------

class ModelOperator:
    """Sparse matrix `entries / den` with int entries on an indexed basis.

    The one store is by column, `entries[c] = {r: int}`, with no zero entry
    and no empty column.  The constructor takes values at `(r, c)` in
    0..size - 1, each an int or a `Fraction` as `_frac` reads it, and sets
    `den` to the lcm of their denominators.  Operators are never changed in
    place, so they may share columns.
    """

    __slots__ = ("size", "entries", "den")

    def __init__(self, size: int, entries: Mapping[tuple[int, int], object]):
        for (r, c), v in entries.items():
            _frac(v)  # an int or a Fraction, else InvalidParameter
            if not (0 <= r < size and 0 <= c < size):
                raise InvalidParameter(f"entry ({r}, {c}) outside the {size} basis vectors")
        den = math.lcm(*(v.denominator for v in entries.values()))
        cols: dict = {}
        for (r, c), v in entries.items():
            if v:
                cols.setdefault(c, {})[r] = v.numerator * (den // v.denominator)
        self.size, self.entries, self.den = size, cols, den

    @classmethod
    def _of(cls, size: int, cols: dict, den: int) -> "ModelOperator":
        """Operator on an int column store that already holds no zero entry
        and no empty column."""
        op = cls.__new__(cls)
        op.size, op.entries, op.den = size, cols, den
        return op

    def _over(self, den: int) -> "ModelOperator":
        """The same matrix over `den`, a multiple of the operator's own."""
        if den == self.den:
            return self
        k = den // self.den
        cols = {c: {r: v * k for r, v in col.items()} for c, col in self.entries.items()}
        return ModelOperator._of(self.size, cols, den)

    def __add__(self, other: "ModelOperator") -> "ModelOperator":
        return self._combine(other, add)

    def __sub__(self, other: "ModelOperator") -> "ModelOperator":
        return self._combine(other, sub)

    def _combine(self, other: "ModelOperator", op) -> "ModelOperator":
        den = math.lcm(self.den, other.den)
        cols = dict(self._over(den).entries)
        for c, col in other._over(den).entries.items():
            out = dict(cols.get(c, ()))
            for r, v in col.items():
                x = op(out.get(r, 0), v)
                if x != 0:
                    out[r] = x
                else:
                    del out[r]
            if out:
                cols[c] = out
            else:
                del cols[c]
        return ModelOperator._of(self.size, cols, den)

    def __matmul__(self, other: "ModelOperator") -> "ModelOperator":
        own = self.entries
        cols = {}
        for c, col in other.entries.items():
            # a column that meets none of ours maps to zero (distant slabs)
            if not own.keys().isdisjoint(col) and (out := apply_columns(own, col)):
                cols[c] = out
        return ModelOperator._of(self.size, cols, self.den * other.den)

    def apply(self, vec: dict) -> dict:
        """The matrix applied to a vector of rationals, on ints over den * d_v
        for d_v the lcm of the vector's denominators."""
        d_v, xs = _over_lcm(vec.values())
        d = self.den * d_v
        return {r: Fraction(x, d) for r, x in apply_columns(self.entries, dict(zip(vec, xs))).items()}

    def is_self_adjoint(self, weights: Sequence, columns: Iterable[int] | None = None) -> bool:
        """<A u, v> = <u, A v> in the inner product that gives basis vector
        i the weight weights[i]: W A is symmetric, on the weights' ints.
        With `columns`, only the entries of those columns are compared with
        their mirrors."""
        cols = self.entries
        read = [(c, cols[c]) for c in (cols if columns is None else columns) if c in cols]
        # the weights of those columns and their rows only
        w = _int_vector({k: weights[k] for k in {c for c, _ in read}.union(*(col for _, col in read))})
        return all(w[r] * v == w[c] * cols.get(r, {}).get(c, 0) for c, col in read for r, v in col.items())

    def equals(self, other: "ModelOperator") -> bool:
        """Equal matrices, also when a sum has cancelled to a smaller den:
        over a common den, with no zero stored, the stores are equal."""
        den = math.lcm(self.den, other.den)
        return self._over(den).entries == other._over(den).entries


def apply_columns(cols: dict[int, dict], vec: dict) -> dict:
    """The operator with column store `cols` applied to a sparse vector."""
    out: dict = {}
    for c, x in vec.items():
        for r, v in cols.get(c, {}).items():
            out[r] = out.get(r, 0) + v * x
    return {k: v for k, v in out.items() if v != 0}


def vec_dot(u: dict, v: dict):
    if len(u) > len(v):
        u, v = v, u
    total = 0
    for k, x in u.items():
        y = v.get(k)
        if y is not None:
            total += x * y
    return total


def bra(vec: dict, weights: Sequence) -> dict:
    """`vec` with each entry times its basis vector's weight, so that
    `vec_dot(u, bra(v, weights))` is the weighted inner product <u, v>."""
    return {k: x * weights[k] for k, x in vec.items()}


# ---------------------------------------------------------------------------
# Factor operators and the free-product representation
# ---------------------------------------------------------------------------

def jacobi_operator(j: JacobiParams, d: int) -> ModelOperator:
    """Multiplication by x on a measure's first d monic orthogonal
    polynomials: column k is {k - 1: omega_(k-1), k: alpha_k, k + 1: 1}.

    Vacuum moments of powers reproduce the measure's moments up to order
    2d - 1.  Once omega_k = 0, p_(k+1) has norm 0 and is left out, so a
    terminated measure's operator never leaves its support.
    """
    if d < 1:
        raise InvalidParameter("dimension must be >= 1")
    alphas, omegas = j.prefix(d)
    entries: dict = {(k, k): a for k, a in enumerate(alphas)}
    for k, w in enumerate(omegas):
        entries[k, k + 1] = w
        entries[k + 1, k] = 1 if w else 0
    return ModelOperator(d, entries)


def monic_norms(j: JacobiParams, d: int) -> list[Fraction]:
    """|p_k|^2 = omega_0 ... omega_(k-1) for k < d: the weights under which
    `jacobi_operator(j, d)` is self-adjoint."""
    return list(accumulate(j.prefix(d)[1], mul, initial=Fraction(1)))


class FreeProductModel:
    """Both factor operators represented on the word space of one depth cap.

    Factor f is the path of its input's first `basis.dims[f - 1]` levels:
    D + 1 for a `wigner` tail and min(D + 1, levels) for a finite or
    truncated recursion, at depth cap D.  The words are those of index sum
    at most D, and the module docstring states the orders this certifies.
    A factor's representation is its Jacobi operator relabelled through
    each copy of its path that the words hang: column k of the copy at
    host w is word k of the copy (w itself at k = 0), and a row outside the
    basis is dropped.  Every word lies in one copy of each factor, so the
    copies' columns never overlap, and the copies of one slab make the
    factor's replica of that slab."""

    def __init__(self, mu, nu, depth_cap: int):
        self.mu_jacobi, self.nu_jacobi = js = (_as_jacobi(mu), _as_jacobi(nu))
        dims = [depth_cap + 1 if j.tail is not None else min(depth_cap + 1, len(j.alpha)) for j in js]
        self.basis = basis = WordBasis.build(dims, depth_cap)
        a1, a2 = (jacobi_operator(j, d) for j, d in zip(js, dims))
        den = math.lcm(a1.den, a2.den)  # shared by every operator built from the factors
        self.factors = (a1._over(den), a2._over(den))
        self.factor_weights = tuple(monic_norms(j, d) for j, d in zip(js, dims))
        size = len(basis)
        # a word's weight is its letter's norm times its host word's
        self.weights = weights = [Fraction(1)] * size
        # per factor, slab n's columns at index n
        groups = tuple([{} for _ in range(depth_cap + 2)] for _ in (1, 2))
        reps: tuple[dict, dict] = ({}, {})
        for factor, host, slab, name in basis.copies:
            norms, cols = self.factor_weights[factor - 1], self.factors[factor - 1].entries
            out, rep = groups[factor - 1][slab], reps[factor - 1]
            name = name or {0: host}  # a copy of its root alone
            whole = len(name) == basis.dims[factor - 1]  # else cut by the cap: rows outside it are dropped
            for k, i in name.items():
                if k:
                    weights[i] = norms[k] * weights[host]
                if (col := cols.get(k)) and (col := {name[r]: v for r, v in col.items() if whole or r in name}):
                    out[i] = rep[i] = col
        self._slabs = tuple([ModelOperator._of(size, cols, den) for cols in g] for g in groups)
        self.x1, self.x2 = (ModelOperator._of(size, cols, den) for cols in reps)
        self._total = self.x1 + self.x2

    @property
    def depth_cap(self) -> int:
        return self.basis.depth_cap

    def total(self) -> ModelOperator:
        return self._total

    def replica(self, factor: int, n: int) -> ModelOperator:
        """Compression of the factor's representation to its n-th slab: the
        columns of that slab, which the representation maps into itself."""
        _check_factor(factor)
        if n < 1 or n > self.depth_cap + 1:
            raise InvalidParameter(f"replica level {n} outside 1..{self.depth_cap + 1}")
        return self._slabs[factor - 1][n]

    def branch(self, factor: int, k: int = 1) -> ModelOperator:
        """Alternating sum of replicas from level k on: the truncated branch,
        the factor's slabs k, k + 2, ... and the other's k + 1, k + 3, ...

        Every column lies in one slab of each factor, so a branch column is
        the one factor's column, or the total's where both factors select it;
        the columns are assembled with no arithmetic."""
        _check_factor(factor)
        if k < 1:
            raise InvalidParameter("branch level must be >= 1")
        last = self.depth_cap + 1
        if k > last:
            raise InvalidParameter(f"branch level {k} outside the truncated space")
        mine, other, total = self._slabs[factor - 1], self._slabs[2 - factor], self._total.entries
        cols: dict = {}
        for n in range(k, last + 1, 2):
            cols.update(mine[n].entries)
        for n in range(k + 1, last + 1, 2):
            for c, col in other[n].entries.items():
                if c not in cols:
                    cols[c] = col
                elif c in total:
                    cols[c] = total[c]
                else:
                    del cols[c]
        return ModelOperator._of(self._total.size, cols, self._total.den)

    def vacuum(self) -> dict:
        return {0: Fraction(1)}

    def word_vector(self, word: Word) -> dict:
        idx = self.basis.index.get(tuple(word))
        if idx is None:
            raise InvalidParameter(f"word {word} not in the basis")
        return {idx: Fraction(1)}

    def state_moments(self, op: ModelOperator, n_max: int, vec: dict | None = None):
        """<op^n v, v>/<v, v> for n = 1..n_max, in the weighted inner product.

        The chain runs on ints: v and its bra are each put over the lcm of
        their denominators, and the n-th dot is divided by den^n times the
        0-th."""
        if op.size != len(self.basis):
            raise InvalidParameter(f"operator on {op.size} basis vectors, the model has {len(self.basis)}")
        if vec is None:
            vec = self.vacuum()
        cur = _int_state(vec, self.weights)
        vec_bra = _int_vector(bra(vec, self.weights))
        scale = vec_dot(cur, vec_bra)
        if not scale:
            raise InvalidParameter(f"state vector {vec} has norm 0")
        out = []
        for _ in range(n_max):
            cur = apply_columns(op.entries, cur)
            scale *= op.den
            out.append(Fraction(vec_dot(cur, vec_bra), scale))
        return out


def _int_vector(vec: dict) -> dict:
    """`vec` times the lcm of its denominators, on ints."""
    return dict(zip(vec, _over_lcm(vec.values())[1]))


def _int_state(vec: dict, weights: Sequence) -> dict:
    """`_int_vector` of a state vector whose keys all index `weights`."""
    for k in vec:
        if not 0 <= k < len(weights):
            raise InvalidParameter(f"state key {k} outside the {len(weights)} basis vectors")
    return _int_vector(vec)


# ---------------------------------------------------------------------------
# Orthogonality report
# ---------------------------------------------------------------------------

class OrthogonalityReport(namedtuple("OrthogonalityReport", "ok checked violations")):
    """Outcome of `orthogonality_check`: whether it holds, how many
    identities were checked, and the violation texts, a sequence of str."""

    __slots__ = ()


class _Violations(Sequence):
    """Violation texts of one orthogonality check, held as raw int tuples
    and formatted only when an item is read, so `len` builds no text.

    An item of condition (i) is (order, p, q, L): order 0 for a^p b^q, 1
    for b^q a^p.  An item of (ii) is (p, s, q, i1, i2, L, R), with w1 and
    w2 the words i1 and i2.  L and R are the scaled sides of the check's
    docstring; a text divides them by the powers of d_a, d_b, n_xi and
    n_eta that they carry.  The sequence equals any sequence of the same
    texts, a list among them.
    """

    __slots__ = ("raw", "words", "d_a", "d_b", "n_xi", "n_eta")

    def __init__(self, words: list[tuple[str, ...]], d_a: int, d_b: int, n_xi: int, n_eta: int):
        self.raw: list[tuple] = []
        self.words, self.d_a, self.d_b, self.n_xi, self.n_eta = words, d_a, d_b, n_xi, n_eta

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._text(item) for item in self.raw[i]]
        return self._text(self.raw[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))

    def _text(self, item: tuple) -> str:
        d_a, d_b, n_xi = self.d_a, self.d_b, self.n_xi
        if len(item) == 4:
            order, p, q, L = item
            label = f"b^{q} a^{p}" if order else f"a^{p} b^{q}"
            return f"phi({label}) = {Fraction(L, d_a**p * d_b**q * n_xi)}"
        p, s, q, i1, i2, L, R = item
        w1, w2 = self.words[i1], self.words[i2]
        d = d_a ** (p + q + w1.count("a") + w2.count("a")) * d_b ** (s + w1.count("b") + w2.count("b")) * n_xi
        return "phi(w1 a^%d b^%d a^%d w2) mismatch at w1=%s w2=%s: %s vs %s" % (
            p, s, q, "".join(w1) or "1", "".join(w2) or "1", Fraction(L, d), Fraction(R, d * self.n_eta * n_xi)
        )


def orthogonality_check(
    a: ModelOperator,
    b: ModelOperator,
    xi: dict,
    eta: dict,
    n_max: int,
    weights: Sequence,
) -> OrthogonalityReport:
    """Exhaustive two-state orthogonality test over bounded monomials.

    Condition (i): the first state kills every product of one power of `a`
    and one power of `b`, in either order.  Condition (ii): with powers of
    `a` on both sides of a power of `b` and arbitrary monomials w1, w2 in
    a, b outside, the first-state expectation factors through the second
    state's value on the middle power.  Violations are reported, not
    raised, in a fixed order: (i) by p, q; (ii) by w2, q, s, p, w1, with
    words in length-lexicographic order.  Both states need a nonzero norm,
    and each operator must be self-adjoint under `weights` on the columns
    the check applies it at; `InvalidParameter` is raised otherwise.

    Every dot is the inner product with basis weights `weights`, under
    which `a` and `b` must be self-adjoint, and the check moves letters
    across a dot by that: phi(a^p b^q) = <b^q xi, a^p xi> = phi(b^q a^p),
    and phi(w1 a^p u) = <u, a^p w1* xi>, with w1* the reversed word.  So
    the left vectors a^p w1* xi are built once, n_max |words| steps of
    `a`, and for each (w2, q, s, p) one pass through a transposed index
    of them (basis key -> (w1, weighted entry)) gives the row of dots
    against every w1.  The row of the left side is compared with the row
    of the right side in one list comparison, and only a row that differs
    is walked for its violations.  Plain = <a^(p+q) w2 xi, w1* xi> is the
    row of a^q w2 xi at p, so no chain runs past n_max steps.

    The dots run on ints: a and b are their stores, scaled by d_a = a.den
    and d_b = b.den, and xi, eta and the weights (only where a left vector
    or eta is supported) by the lcm d_xi, d_eta, d_w of their own
    denominators.  Both conditions are homogeneous.  A raw dot with p
    letters a and q letters b between two xi's is the rational one times
    d_a^p d_b^q d_xi^2 d_w, so (i) holds when it is 0.  Each side of (ii)
    is a product of three dots, so d_w cancels from it and from its text.
    With n_xi = <xi, xi> and n_eta = <eta, eta> scaled, L the raw left
    side, P_b = <b^s eta, eta>, P_w = <w1 a^p xi, xi> and
    P_q = <a^q w2 xi, xi>, the powers of d_a and d_b agree on both sides,
    and (ii) holds when

        L n_eta n_xi == R,  R = P_b (Plain n_xi - P_w P_q).

    A violation is kept as its ints, and its text is built when read: the
    left side is L / d and the right side R / (d n_eta n_xi), with
    d = d_a^(p+q) d_b^s scale(w1) scale(w2) n_xi, where a word's scale is
    d_a and d_b to its letter counts.
    """
    cols = {"a": a.entries, "b": b.entries}
    read: dict[str, set] = {"a": set(), "b": set()}  # the columns each operator is applied at
    xi, eta = _int_state(xi, weights), _int_state(eta, weights)

    def act(letter: str, vec: dict) -> dict:
        read[letter].update(vec)
        return apply_columns(cols[letter], vec)

    def chain(letter: str, vec: dict, n: int) -> list[dict]:
        """[vec, op vec, ..., op^n vec] for the operator named `letter`."""
        out = [vec]
        for _ in range(n):
            out.append(act(letter, out[-1]))
        return out

    words: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(n_max):
        frontier = [w + (letter,) for w in frontier for letter in ("a", "b")]
        words.extend(frontier)

    # suffix[w] = w applied to xi; words come shortest first, so the suffix
    # w[1:] is always ready
    suffix = {(): xi}
    for w in words[1:]:
        suffix[w] = act(w[0], suffix[w[1:]])
    # lefts[p][j] = a^p w_j* xi, the words being closed under reversal
    lefts = [[suffix[w[::-1]] for w in words]]
    for _ in range(n_max):
        lefts.append([act("a", v) for v in lefts[-1]])
    w_int = _int_vector({k: weights[k] for k in set(eta).union(*(v for vecs in lefts for v in vecs))})
    xi_bra, eta_bra = bra(xi, w_int), bra(eta, w_int)
    n_xi, n_eta = vec_dot(xi, xi_bra), vec_dot(eta, eta_bra)
    if not (n_xi and n_eta):
        raise InvalidParameter("orthogonality states need a nonzero norm")
    # index[p][k] lists (j, weight_k * lefts[p][j][k])
    index: list[dict[int, list]] = [{}]
    for vecs in lefts[1:]:
        t: dict[int, list] = {}
        for j, v in enumerate(vecs):
            for k, x in v.items():
                t.setdefault(k, []).append((j, x * w_int[k]))
        index.append(t)

    def row(vec: dict, p: int) -> list:
        """<vec, lefts[p][j]> for every word j, in one pass over vec."""
        out = [0] * len(words)
        t = index[p]
        for k, x in vec.items():
            for j, y in t.get(k, ()):
                out[j] += x * y
        return out

    P_b = [vec_dot(v, eta_bra) for v in chain("b", eta, n_max)]
    P_w = [None] + [row(xi, p) for p in range(1, n_max + 1)]
    violations = _Violations(words, a.den, b.den, n_xi, n_eta)
    raw = violations.raw

    # condition (i)
    b_xi = chain("b", xi, n_max)
    for p in range(1, n_max + 1):
        a_bra = bra(lefts[p][0], w_int)
        for q in range(1, n_max + 1):
            if L := vec_dot(b_xi[q], a_bra):
                raw += ((0, p, q, L), (1, p, q, L))

    # condition (ii)
    c = n_eta * n_xi
    for i2, w2 in enumerate(words):
        a_w2 = chain("a", suffix[w2], n_max)
        for q in range(1, n_max + 1):
            P_q = vec_dot(a_w2[q], xi_bra)
            # R / P_b by p and w1
            base = [None] + [
                [plain * n_xi - pw * P_q for plain, pw in zip(row(a_w2[q], p), P_w[p])]
                for p in range(1, n_max + 1)
            ]
            for s, v in enumerate(chain("b", a_w2[q], n_max)[1:], 1):
                for p in range(1, n_max + 1):
                    Ls = row(v, p)
                    Rs = [P_b[s] * x for x in base[p]]
                    if [L * c for L in Ls] != Rs:
                        raw += ((p, s, q, i1, i2, L, R) for i1, (L, R) in enumerate(zip(Ls, Rs)) if L * c != R)
    for letter, op in (("a", a), ("b", b)):
        if not op.is_self_adjoint(weights, read[letter]):
            raise InvalidParameter(f"operator {letter} is not self-adjoint under the weights")
    checked = 2 * n_max**2 + len(words) ** 2 * n_max**3
    return OrthogonalityReport(not raw, checked, violations)
