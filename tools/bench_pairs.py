"""Alternating parent/change pairs of the benchmark, with quartiles and wins.

    python3 tools/bench_pairs.py --parent DIR --change DIR --parent-commit SHA \\
        --seed-base N --out BENCH_<n>.json

DIR is a checkout of each side without ``__pycache__`` (``git archive``
gives one); each side runs its own ``perfbench/run.py`` from its own
directory, untraced.  For each workload of the change's ``BENCHMARK.json``,
at its ``run_seconds``, each of ``PAIRS`` pairs p runs both sides at seed
N + 100 i + p, where i counts the workloads from 1 in that order; odd pairs
run the parent first.  Each result is the last stdout line of ``run.py``.  The output
holds every run and, per workload and end-to-end metric, each side's
quartiles and the number of pairs in which the change is strictly better,
in the direction ``BENCHMARK.json`` gives for the metric.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10  # the fewest alternating pairs a gain may be claimed on


def schedule(workloads: list[str], pairs: int, seed_base: int) -> list[tuple[str, int, int, str]]:
    """(workload, pair, seed, side) in run order."""
    out = []
    for i, workload in enumerate(workloads, 1):
        for p in range(1, pairs + 1):
            sides = ("parent", "change") if p % 2 else ("change", "parent")
            out.extend((workload, p, seed_base + 100 * i + p, side) for side in sides)
    return out


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's q1/median/q3 (exclusive
    quartiles), the pairs the change wins and the pair count."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        summary[workload] = {}
        for metric in better:
            sides = {}
            for side in ("parent", "change"):
                values = [r["result"]["metrics"][metric]["value"] for r in mine if r["side"] == side]
                q1, median, q3 = statistics.quantiles(values, n=4)
                sides[side] = {"q1": q1, "median": median, "q3": q3}
            wins = 0
            for pair in by_pair.values():
                parent, change = pair["parent"][metric]["value"], pair["change"][metric]["value"]
                wins += change > parent if better[metric] == "higher" else change < parent
            summary[workload][metric] = {**sides, "change_wins": wins, "pairs": len(by_pair)}
    return summary


def run_one(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        # run.py imports the program in-process and in fresh set-up probes;
        # bytecode left on one side only moves its setup_s and peak_rss_mb
        if any(Path(checkout).rglob("__pycache__")):
            ap.error(f"{checkout} holds __pycache__; run on checkouts without compiled bytecode")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = {w["name"]: float(bench["run_seconds"]) for w in bench["workloads"]}

    runs = []
    for workload, pair, seed, side in schedule(list(seconds), PAIRS, args.seed_base):
        checkout = args.parent if side == "parent" else args.change
        start = time.monotonic()
        result = run_one(checkout, workload, seed, seconds[workload])
        runs.append({"workload": workload, "side": side, "pair": pair, "seed": seed, "result": result})
        metric, took = result["metrics"]["req_per_s"]["value"], time.monotonic() - start
        print(f"{workload} pair {pair} {side}: req_per_s {metric:.4g} ({took:.0f} s)", file=sys.stderr)

    ranges = ", ".join(
        f"{w} at {s:g} s (seeds {args.seed_base + 100 * i + 1}-{args.seed_base + 100 * i + PAIRS})"
        for i, (w, s) in enumerate(seconds.items(), 1)
    )
    out = {
        "script": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "parent_commit": args.parent_commit,
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "note": (
            f"{PAIRS} alternating parent/change pairs per workload, odd pairs run the parent "
            f"first; {ranges}; each result is the last stdout line of run.py, each side run from "
            "its own checkout by tools/bench_pairs.py"
        ),
        "summary_by_workload": summarize(runs, better),
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
