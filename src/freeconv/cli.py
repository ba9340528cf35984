"""Command-line interface.

Subcommands: `convolve` (the five operations on measure files), `density`
(Stieltjes inversion on a grid, CSV), `graph` (rooted-graph products with
root moments), and `verify` (the deterministic identity suites).

Exit codes: 0 success / all checks pass, 1 a verify check failed; any
other failure exits with the `exit_code` of the `FreeconvError` it raised
(see :mod:`freeconv.errors`).  `density` refuses a truncated recursion
with `OrderExceeded`: `JacobiParams.prefix` will not read past its last
level, and finitely many levels fix no density.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import convolve
from .errors import FreeconvError, InvalidParameter
from .graphs import (
    free_product_ball,
    graph_comb,
    graph_orthogonal,
    graph_star,
    graph_to_json,
    parse_graph,
    root_spectral_moments,
)
from .measures import (
    _in_full,
    fraction_to_str,
    measure_to_json,
    parse_measure,
    stieltjes_density,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1


# the glued products by name, in the order `freeconv graph` lists them
# before `free-ball`
GLUED_PRODUCTS = {"orthogonal": graph_orthogonal, "comb": graph_comb, "star": graph_star}


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct: a repeated key is refused, not
    overwritten by its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    """The JSON document in the file, decoded once, its integers in full; an
    unreadable file, malformed or too deeply nested JSON and a repeated key
    raise `InvalidParameter`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read(), object_pairs_hook=_unique_keys, parse_int=lambda s: _in_full(int, s))
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc


def _print_measure(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
        return
    for i, m in enumerate(obj["m"], start=1):
        print(f"m[{i}] = {m}")
    if "jacobi" in obj:
        print("alpha =", " ".join(obj["jacobi"]["alpha"]))
        print("omega =", " ".join(obj["jacobi"]["omega"]))
    if "atoms" in obj:
        for loc, w in obj["atoms"]:
            print(f"atom at {loc} with weight {w}")


def cmd_convolve(args) -> int:
    if args.op == "orthogonal-iter":
        if args.iterations is None:
            raise InvalidParameter("orthogonal-iter needs an iteration count")
        op = lambda mu, nu, order: convolve.orthogonal_iterated(mu, nu, args.iterations, order)
    elif args.iterations is not None:
        raise InvalidParameter(f"--iterations is only for orthogonal-iter, not {args.op}")
    else:
        op = convolve.OPERATIONS[args.op]
    for flag, value in (("--iterations", args.iterations), ("--order", args.order)):
        if value is not None and value < 1:
            raise InvalidParameter(f"{flag} must be >= 1, got {value}")
    result = op(parse_measure(_load_json(args.mu)), parse_measure(_load_json(args.nu)), args.order)
    _print_measure(measure_to_json(result, args.order), args.output)
    return EXIT_OK


def cmd_density(args) -> int:
    for flag, value in (("--xmin", args.xmin), ("--xmax", args.xmax)):
        if not math.isfinite(value):
            raise InvalidParameter(f"{flag} must be finite, got {value}")
    if args.points < 2:
        raise InvalidParameter("need at least two grid points")
    if not 0 < args.epsilon < math.inf:
        raise InvalidParameter(f"--epsilon must be finite and > 0, got {args.epsilon}")
    rep = parse_measure(_load_json(args.measure))
    step = (args.xmax - args.xmin) / (args.points - 1)
    grid = [args.xmin + i * step for i in range(args.points)]
    rows = stieltjes_density(rep, grid, epsilon=args.epsilon)
    print("x,f")
    for x, f in rows:
        print(f"{x:.12g},{f:.12g}")
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.radius is not None and args.op != "free-ball":
        raise InvalidParameter(f"--radius is only for free-ball, not {args.op}")
    radius = 6 if args.radius is None else args.radius
    for flag, value in (("--moments", args.moments), ("--radius", radius)):
        if value < 1:
            raise InvalidParameter(f"{flag} must be >= 1, got {value}")
    # a walk changes the word length by at most one per step, so the ball
    # determines the root moments only up to order 2 * radius + 1
    if args.op == "free-ball" and args.moments > 2 * radius + 1:
        raise InvalidParameter(
            f"a free-ball of radius {radius} determines only "
            f"{2 * radius + 1} root moments, {args.moments} requested"
        )
    g1 = parse_graph(_load_json(args.g1))
    g2 = parse_graph(_load_json(args.g2))
    if args.op == "free-ball":
        g = free_product_ball(g1, g2, radius)
    else:
        g = GLUED_PRODUCTS[args.op](g1, g2)
    out = {
        "graph": graph_to_json(g),
        "moments": [fraction_to_str(m) for m in root_spectral_moments(g, args.moments)],
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite, n_max=args.n_max, seed=args.seed)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}{detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print(f"first failure: {failed[0].name}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Convolutions of compactly supported probability measures "
        "(boolean, monotone, orthogonal, subordinate/s-free, free), exact at "
        "moment level, with graph products and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convolve", help="convolve two measure files")
    p.add_argument("op", choices=[*convolve.OPERATIONS, "orthogonal-iter"])
    p.add_argument("mu", help="left measure JSON file")
    p.add_argument("nu", help="right measure JSON file")
    p.add_argument("--order", type=int, default=10, help="number of exact moments")
    p.add_argument(
        "--iterations", type=int, default=None, help="iteration count for orthogonal-iter"
    )
    p.add_argument("--output", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("density", help="Stieltjes-inversion density on a grid (CSV)")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--points", type=int, default=601)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("graph", help="rooted-graph products and root moments")
    p.add_argument("op", choices=[*GLUED_PRODUCTS, "free-ball"])
    p.add_argument("g1", help="first graph JSON file")
    p.add_argument("g2", help="second graph JSON file")
    p.add_argument("--radius", type=int, default=None, help="word-length cap for free-ball, 6 if not given")
    p.add_argument("--moments", type=int, default=6, help="number of root moments")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FreeconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
