"""The input grammar fuzzed through `cli.main`.

Measure and graph documents are drawn from README's grammar and then, in
most examples, mutated: a literal outside the grammar, an extra or a
missing key, a level after a zero omega, a value of the wrong type, an
empty list, a boolean or a file cut short.  Recursion coefficients come
with any number of omegas up to two past the alphas, a zero or negative
one among them, and with tails of variance 0 or below that may have
levels after them; atoms and graphs may break one rule of their own; and
a `moments` document may carry the views `convolve` prints beside it.  The
options are drawn as well, out of range or given to the wrong operation.
Every run must exit 0, 2, 3 or 6 without a traceback, print nothing to
stdout when it fails, and every accepted `convolve` output must read back
to the moments it prints.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from freeconv.cli import main  # noqa: E402
from freeconv.measures import MeasureRep, measure_to_json, parse_measure  # noqa: E402

EXIT_CODES = (0, 2, 3, 6)
OPS = ("free", "boolean", "monotone", "orthogonal", "sfree", "orthogonal-iter")
GRAPH_OPS = ("orthogonal", "comb", "star", "free-ball")
DELTA0 = {"type": "atoms", "atoms": [["0", "1"]]}

BAD_LITERALS = ("1.5", "1e3", " 1/2 ", "+1", "1_0", "\u0661", "1/0", "1/-2", "0x10", "", "-", 1.5, True, False)
# values that replace any node of a document: wrong types, empty containers
# and booleans
WRONG_TYPES = (True, False, None, 1.5, 3, "0123", [], {}, [[]], ["0"], {"kind": "wigner"})
EXTRA_KEYS = ("n", "tial", "Atoms", "weights", "kind", "type", "m", "a", "edges")


def literal(lo=-4, hi=4):
    """A rational as README writes it: a JSON integer, "p" or "p/q"."""
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(str),
        st.tuples(st.integers(lo, hi), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )


@st.composite
def atoms(draw):
    locs = draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(locs), max_size=len(locs)))
    return [(x, Fraction(w, sum(weights))) for x, w in zip(locs, weights)]


@st.composite
def atoms_doc(draw):
    """Atoms, or atoms that break one rule: none at all, an atom that is no
    pair, a weight that is not positive, weights that do not sum to 1, or a
    location given twice."""
    pairs = draw(atoms())
    broken = draw(st.sampled_from([None] * 6 + ["none", "pair", "weight", "sum", "twice"]))
    if broken == "twice":  # the first atom split into two halves at its location
        (x, w), *rest = pairs
        pairs = [(x, w / 2), (x, w / 2), *rest]
    pairs = [[str(x), str(w)] for x, w in pairs]
    if broken == "none":
        pairs = []
    elif broken == "pair":
        pairs[-1] = pairs[-1][:1]
    elif broken in ("weight", "sum"):
        pairs[-1][1] = draw(st.sampled_from(["0", "-" + pairs[-1][1]])) if broken == "weight" else "2"
    return {"type": "atoms", "atoms": pairs}


@st.composite
def moments_doc(draw):
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):  # moments of a measure, else any list of literals
        pairs = draw(atoms())
        m = [str(sum(w * x**k for x, w in pairs)) for k in range(1, n + 1)]
    else:
        m = draw(st.lists(literal(), min_size=n, max_size=n))
    return {"type": "moments", "m": m}


@st.composite
def jacobi_doc(draw):
    """d alphas, d = 0 among them, and in half of the draws d - 1 omegas,
    else any number from 0 to d + 2, so that an omega without its alpha
    turns up with and without a tail; a `wigner` tail of variance 0 may have
    levels after it."""
    d = draw(st.one_of(st.integers(1, 5), st.just(0)))
    n = max(d - 1, 0) if draw(st.booleans()) else draw(st.integers(0, d + 2))
    doc = {
        "type": "jacobi",
        "alpha": draw(st.lists(literal(), min_size=d, max_size=d)),
        "omega": draw(st.lists(literal(1, 4), min_size=n, max_size=n)),
    }
    tail = draw(st.sampled_from([None, "truncate", "wigner"]))
    if tail == "truncate":
        doc["tail"] = {"kind": "truncate"}
    elif tail == "wigner":
        doc["tail"] = {"kind": "wigner", "a": draw(literal()), "b": draw(st.one_of(st.sampled_from(["0", "-1"]), literal(0, 4)))}
    if doc["omega"] and draw(st.booleans()):  # a zero omega, with or without levels after it, or a negative one
        doc["omega"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(["0", "-1"]))
    return doc


@st.composite
def printed_doc(draw):
    """A measure as `convolve` prints it: moments with the views they give."""
    return measure_to_json(MeasureRep.from_atoms(draw(atoms())), draw(st.integers(1, 8)))


measure_doc = st.one_of(atoms_doc(), moments_doc(), jacobi_doc(), printed_doc())


@st.composite
def graph_doc(draw):
    """A rooted graph, or one that breaks one rule: no vertex, the root or
    an edge's end outside the vertices, or a self-loop."""
    n = draw(st.integers(1, 4))
    arcs = [[u, v] for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(arcs), unique_by=frozenset)) if arcs else []
    doc = {"vertices": n, "root": draw(st.integers(0, n - 1)), "edges": edges}
    broken = draw(st.sampled_from([None] * 8 + ["vertices", "root", "edge", "self-loop"]))
    if broken == "vertices":
        doc["vertices"] = 0
    elif broken == "root":
        doc["root"] = draw(st.sampled_from([-1, n]))
    elif broken:
        doc["edges"] = [*edges, [0, n if broken == "edge" else 0]]
    return doc


def nodes(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


class Text(str):
    """A file's text, written as it is: a document cut short."""


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated(draw, documents):
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        found = list(nodes(doc))[::-1]  # the whole document last
        leaves = [p for p, n in found if not isinstance(n, (dict, list))]
        dicts = [(p, n) for p, n in found if isinstance(n, dict)]
        kind = draw(st.sampled_from(["literal", "type", "extra key", "missing key", "zero omega", "cut"]))
        if kind == "literal" and leaves:
            doc = replaced(doc, draw(st.sampled_from(leaves)), draw(st.sampled_from(BAD_LITERALS)))
        elif kind == "type":
            path, _ = draw(st.sampled_from(found))
            doc = replaced(doc, path, draw(st.sampled_from(WRONG_TYPES)))
        elif kind == "extra key" and dicts:
            path, node = draw(st.sampled_from(dicts))
            doc = replaced(doc, path, {**node, draw(st.sampled_from(EXTRA_KEYS)): draw(literal())})
        elif kind == "missing key" and any(n for _, n in dicts):
            path, node = draw(st.sampled_from([(p, n) for p, n in dicts if n]))
            key = draw(st.sampled_from(sorted(node)))
            doc = replaced(doc, path, {k: v for k, v in node.items() if k != key})
        elif kind == "zero omega" and isinstance(doc, dict) and isinstance(doc.get("omega"), list) and doc["omega"]:
            k = draw(st.integers(0, len(doc["omega"]) - 1))
            doc = replaced(doc, ("omega", k), "0")
            if draw(st.booleans()):  # a level, or a tail, after it
                extra = {"alpha": [*doc.get("alpha", []), "1"]} if draw(st.booleans()) else {
                    "tail": {"kind": "wigner", "a": "0", "b": "1"}}
                doc = {**doc, **extra}
        elif kind == "cut":
            text = json.dumps(doc)
            return Text(text[: draw(st.integers(0, len(text) - 1))])
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code, out, err):
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: "), (out, err)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(directory, name, doc):
    path = directory / name
    path.write_text(doc if isinstance(doc, Text) else json.dumps(doc))
    return str(path)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    mu=mutated(measure_doc),
    nu=st.one_of(st.just(DELTA0), mutated(measure_doc)),
    op=st.sampled_from(OPS),
    order=st.one_of(st.integers(1, 12), st.just(0)),
    iterations=st.integers(0, 4),
    misused=st.sampled_from([False] * 5 + [True]),
)
def test_convolve_exits_with_a_code_and_its_output_reads_back(directory, mu, nu, op, order, iterations, misused):
    argv = ["convolve", op, write(directory, "mu.json", mu), write(directory, "nu.json", nu), "--order", str(order)]
    if (op == "orthogonal-iter") != misused:  # only orthogonal-iter takes it, and needs it
        argv += ["--iterations", str(iterations)]
    code, out, err = run(argv)
    check_exit(code, out, err)
    if code == 0:
        printed = json.loads(out)
        assert parse_measure(printed).moments(order) == tuple(Fraction(m) for m in printed["m"])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    mu=mutated(measure_doc),
    bad=st.sampled_from(
        [[]] * 10 + [["--points", "1"], ["--xmax", "inf"], ["--xmin", "nan"], ["--epsilon", "0"], ["--epsilon", "inf"]]
    ),
)
def test_density_exits_with_a_code(directory, mu, bad):
    check_exit(*run(["density", write(directory, "mu.json", mu), "--points", "3", *bad]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    g1=mutated(graph_doc()),
    g2=mutated(graph_doc()),
    op=st.sampled_from(GRAPH_OPS),
    radius=st.sampled_from([None, 1, 2, 3]),
    moments=st.integers(1, 6),
    bad=st.sampled_from([[]] * 8 + [["--moments", "0"], ["--radius", "0"], ["--radius", "1", "--moments", "4"]]),
)
def test_graph_exits_with_a_code(directory, g1, g2, op, radius, moments, bad):
    argv = ["graph", op, write(directory, "g1.json", g1), write(directory, "g2.json", g2), "--moments", str(moments)]
    if radius is not None and op == "free-ball":  # the glued products refuse --radius
        argv += ["--radius", str(radius)]
    check_exit(*run([*argv, *bad]))
