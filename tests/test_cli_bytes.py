"""`convolve` and `graph` stdout pinned byte for byte against committed
expected files.

Each `convolve` case runs one operation at one order on five input pairs
that cover every measure form: atoms, moments, recursion coefficients with
a wigner tail, and truncated recursion coefficients, plus a point mass at 0
so that the finite-support path and the atom output run too.  Each `graph`
case runs one product on four pairs of graphs rooted at a non-zero vertex,
so the numbering of the product's vertices and edges is pinned too.  The
expected files in ``tests/cli_expected/`` hold the concatenated stdout of
the pairs, so a changed rational or edge fails on its own line.  They also
hold the `verify --suite all` stdout at seeds 7 and 1978123090; pytest
runs seed 7, and CI diffs the console script's seed-1978123090 run.

The order-80 stdout of the six operations on one larger pair is pinned by
its sha256 digest.  To regenerate the files, and print the digests to
paste into `HIGH_ORDER_SHA256`, after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from freeconv.cli import main

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_expected")

MEASURES = {
    "atoms": {"type": "atoms", "atoms": [["-1", "1/3"], ["1/2", "1/2"], ["2", "1/6"]]},
    # the uniform measure on [0, 1]
    "moments": {"type": "moments", "m": [f"1/{n + 1}" for n in range(1, 25)]},
    "wigner": {
        "type": "jacobi",
        "alpha": ["1/2", "-1"],
        "omega": ["1/3"],
        "tail": {"kind": "wigner", "a": "0", "b": "1"},
    },
    # 13 levels: exact moments up to order 25
    "truncated": {
        "type": "jacobi",
        "alpha": [f"{(-1) ** k}/{k + 2}" for k in range(13)],
        "omega": [f"{k + 1}/{k + 3}" for k in range(12)],
        "tail": {"kind": "truncate"},
    },
    # the identity of every operation on the right: the output carries atoms
    "delta": {"type": "atoms", "atoms": [["0", "1"]]},
}
PAIRS = (
    ("atoms", "moments"),
    ("moments", "wigner"),
    ("wigner", "truncated"),
    ("truncated", "atoms"),
    ("atoms", "delta"),
)
OPS = ("free", "boolean", "monotone", "orthogonal", "sfree", "orthogonal-iter")
ORDERS = (10, 24)
CASES = [(op, order) for op in OPS for order in ORDERS]

# the `TestEmissionSpeed` pair of test_cli.py (4 atoms and 3 atoms): its
# recursion coefficients grow long only past order 24, so its order-80
# stdout is pinned too, by sha256 rather than by a file
HIGH_ORDER = 80
HIGH_ORDER_MEASURES = {
    "mu": {"type": "atoms", "atoms": [["-2", "1/6"], ["-3/2", "1/12"], ["-1/2", "1/2"], ["1/2", "1/4"]]},
    "nu": {"type": "atoms", "atoms": [["-3", "5/12"], ["-1", "1/3"], ["1", "1/4"]]},
}
HIGH_ORDER_SHA256 = {
    "free": "ebcbe60cde24545ab30334fe0b3bf97128447e0cf2f77e4f2ce000b26f5be3c5",
    "boolean": "13b25067caaa278aaaba1246c21d90962209cd0cfea667b5b5a3ddcbbdda9760",
    "monotone": "9242ecde50057facd82ea121e8aabb0cab25c168a8b7f8725e8bc8e99bd2052d",
    "orthogonal": "63d537579c0baa9ebec34d95680eb2d56c54bee2c5838d289778a31b4fbb598e",
    "sfree": "49211f8c3fb2108b712bd625c9faf100cf2605c441eceb4a59d357ef8ed5bbc8",
    "orthogonal-iter": "d07ec1ff49493145fb995ec4c8fe23682656022629b5cbae28b0b5829dc3f716",  # 3 iterations
}

GRAPHS = {
    # a triangle with a pendant vertex, rooted on the triangle; edges unsorted
    "paw": {"vertices": 4, "root": 2, "edges": [[2, 0], [1, 2], [0, 1], [3, 2]]},
    # a path rooted at an inner vertex
    "path": {"vertices": 4, "root": 1, "edges": [[0, 1], [1, 2], [2, 3]]},
    # a path rooted at its last vertex
    "leaf": {"vertices": 3, "root": 2, "edges": [[0, 1], [1, 2]]},
    # an isolated root beside an edge
    "lone": {"vertices": 3, "root": 1, "edges": [[0, 2]]},
}
GRAPH_PAIRS = (("paw", "path"), ("path", "leaf"), ("leaf", "paw"), ("lone", "paw"))
GRAPH_OPS = ("star", "comb", "orthogonal", "free-ball")


VERIFY_SEEDS = (7, 1978123090)


def expected_path(op, order):
    return os.path.join(EXPECTED_DIR, f"{op}-{order}.txt")


def graph_expected_path(op):
    return os.path.join(EXPECTED_DIR, f"graph-{op}.txt")


def verify_expected_path(seed):
    return os.path.join(EXPECTED_DIR, f"verify-all-{seed}.txt")


def write_inputs(objects, directory):
    paths = {}
    for name, obj in objects.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return paths


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return buf.getvalue()


def render(op, order, directory):
    """Concatenated stdout of all pairs, each under a header line."""
    paths = write_inputs(MEASURES, directory)
    out = []
    for mu, nu in PAIRS:
        argv = ["convolve", op, paths[mu], paths[nu], "--order", str(order)]
        if op == "orthogonal-iter":
            argv += ["--iterations", "3"]
        out.append(f"# {op} {mu} {nu} --order {order}\n{stdout_of(argv)}")
    return "".join(out)


def high_order_digest(op, directory, iterations=3):
    paths = write_inputs(HIGH_ORDER_MEASURES, directory)
    argv = ["convolve", op, paths["mu"], paths["nu"], "--order", str(HIGH_ORDER)]
    if op == "orthogonal-iter":
        argv += ["--iterations", str(iterations)]
    return hashlib.sha256(stdout_of(argv).encode("utf-8")).hexdigest()


def render_graph(op, directory):
    """Concatenated stdout of all graph pairs, each under a header line."""
    paths = write_inputs(GRAPHS, directory)
    flags = ["--moments", "7"] + (["--radius", "3"] if op == "free-ball" else [])
    out = []
    for g1, g2 in GRAPH_PAIRS:
        argv = ["graph", op, paths[g1], paths[g2]] + flags
        out.append(f"# graph {op} {g1} {g2} {' '.join(flags)}\n{stdout_of(argv)}")
    return "".join(out)


@pytest.mark.parametrize("op,order", CASES, ids=[f"{op}-{order}" for op, order in CASES])
def test_convolve_stdout_matches_expected_file(op, order, tmp_path):
    got = render(op, order, str(tmp_path))
    with open(expected_path(op, order), encoding="utf-8") as fh:
        expected = fh.read()
    assert got.splitlines() == expected.splitlines()
    assert got == expected


@pytest.mark.parametrize("op", OPS)
def test_convolve_stdout_at_order_80_matches_its_digest(op, tmp_path):
    assert high_order_digest(op, str(tmp_path)) == HIGH_ORDER_SHA256[op]


def test_iterations_that_fix_every_moment_print_the_sfree_bytes(tmp_path):
    # m iterations fix 2m + 2 moments of the s-free half: 39 fix all 80
    iterations = HIGH_ORDER // 2 - 1
    assert high_order_digest("orthogonal-iter", str(tmp_path), iterations) == HIGH_ORDER_SHA256["sfree"]


@pytest.mark.parametrize("op", GRAPH_OPS)
def test_graph_stdout_matches_expected_file(op, tmp_path):
    got = render_graph(op, str(tmp_path))
    with open(graph_expected_path(op), encoding="utf-8") as fh:
        expected = fh.read()
    assert got.splitlines() == expected.splitlines()
    assert got == expected


def test_verify_stdout_matches_expected_file():
    got = stdout_of(["verify", "--suite", "all", "--seed", str(VERIFY_SEEDS[0])])
    with open(verify_expected_path(VERIFY_SEEDS[0]), encoding="utf-8") as fh:
        expected = fh.read()
    assert got.splitlines() == expected.splitlines()
    assert got == expected


if __name__ == "__main__":
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for op, order in CASES:
            with open(expected_path(op, order), "w", encoding="utf-8") as fh:
                fh.write(render(op, order, tmp))
        for op in GRAPH_OPS:
            with open(graph_expected_path(op), "w", encoding="utf-8") as fh:
                fh.write(render_graph(op, tmp))
    for seed in VERIFY_SEEDS:
        with open(verify_expected_path(seed), "w", encoding="utf-8") as fh:
            fh.write(stdout_of(["verify", "--suite", "all", "--seed", str(seed)]))
    with tempfile.TemporaryDirectory() as tmp:
        for op in OPS:
            print(f"HIGH_ORDER_SHA256[{op!r}] = {high_order_digest(op, tmp)!r}")
