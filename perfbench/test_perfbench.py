"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The traced runs take about three minutes in all (verify-all dominates).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "series.coeff_mults",
    "series.max_coeff_bits",
    "measures.max_coeff_bits",
    "opmodel.apply.entries_scanned",
    "convolve.compositions_per_request",
)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT, seconds: float = 1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, proc.stdout
    return res["metrics"]


@pytest.fixture(scope="module")
def traced():
    """Two traced runs with one seed per workload."""
    return {w: [result(bench(w, 3, 1)) for _ in range(2)] for w in workloads.WORKLOADS}


def test_counts_repeat_exactly(traced):
    for workload, (a, b) in traced.items():
        keys = [k for k in a if k.endswith(".calls") or k in COUNTS]
        assert len(keys) == 11
        for k in keys:
            assert a[k] == b[k], (workload, k)


def test_opmodel_runs_only_under_verify(traced):
    for workload in ("free-highorder", "cli-interactive"):
        assert traced[workload][0]["opmodel.apply.calls"]["value"] == 0
    assert traced["verify-all"][0]["opmodel.apply.calls"]["value"] > 0


def test_free_highorder_composition_count(traced):
    # two s-free halves of ceil(24/2) + 1 compositions each, plus the monotone step
    m = traced["free-highorder"][0]
    assert m["convolve.compositions_per_request"]["value"] == 27
    assert m["trace.listed_frac"]["value"] >= 0.9


def test_metric_names_match_benchmark_json(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    untraced = result(bench("cli-interactive", 3, 0))
    assert set(untraced) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert untraced[m["name"]]["unit"] == m["unit"] and untraced[m["name"]]["value"] > 0
    for metrics in traced.values():
        assert set(metrics[0]) == {m["name"] for m in spec["per_layer"]}


def test_inputs_follow_the_seed():
    a = workloads.build("cli-interactive", 5, os.path.join(ROOT, ".perfbench", "test-a"))
    b = workloads.build("cli-interactive", 5, os.path.join(ROOT, ".perfbench", "test-b"))
    c = workloads.build("cli-interactive", 6, os.path.join(ROOT, ".perfbench", "test-c"))
    strip = lambda reqs: [(tuple(map(os.path.basename, r.argv)), r.meta) for r in reqs]  # noqa: E731
    assert strip(a) == strip(b) and strip(a) != strip(c)
    for d in ("test-a", "test-b", "test-c"):
        shutil.rmtree(os.path.join(ROOT, ".perfbench", d))


def test_oracles_on_known_laws():
    bern = [Fraction(1 - k % 2) for k in range(1, 7)]  # symmetric +-1 coin
    assert checks.free_moments(bern, bern) == [0, 2, 0, 6, 0, 20]  # arcsine
    assert checks.boolean_moments(bern, bern) == [0, 2, 0, 4, 0, 8]
    p2 = {"vertices": 2, "root": 0, "edges": [[0, 1]]}
    assert checks.root_moments(p2, 4) == [0, 1, 0, 1]


def test_checker_rejects_one_wrong_rational():
    from freeconv import convolve, graphs, measures

    req = workloads.Request(
        ("convolve", "free", "mu", "nu", "--order", "6"), "convolve",
        {"op": "free", "order": 6, "mu": {"type": "atoms", "atoms": [["-1", "1/2"], ["1", "1/2"]]},
         "nu": {"type": "atoms", "atoms": [["-1", "1/2"], ["1", "1/2"]]}},
    )
    checker = checks.Checker(measures, convolve, graphs)
    rep = convolve.free(*(measures.parse_measure(req.meta[k]) for k in ("mu", "nu")), 6)
    good = json.dumps(measures.measure_to_json(rep, 6), indent=2) + "\n"
    assert checker.check(req, 0, good) is None
    assert checker.check(req, 0, good.replace('"20"', '"21"', 1)) is not None
    assert checker.check(req, 2, good) is not None


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("free-highorder", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_scales_by_the_nearest_kernel_calls():
    sampler = hostspeed.Sampler()
    n = 3 * hostspeed.MIN_SAMPLES
    sampler.at = [float(i) for i in range(n)]
    # the host runs at half speed for the first third, at full speed after
    sampler.samples = [2 * hostspeed.KERNEL_NOMINAL_S] * (n // 3) + [hostspeed.KERNEL_NOMINAL_S] * (n - n // 3)
    slow = 0.5 ** hostspeed.ELASTICITY
    assert sampler.scale(0, 0) == slow  # widened to the first MIN_SAMPLES calls
    assert sampler.scale(n - 1, n + 5) == 1.0  # widened back from the end
    assert sampler.scale(0, n - 1) == 1.0  # every call: the median is at full speed
    assert sampler.scale(-10, -5) == slow


def test_sampler_time_is_not_counted_as_the_programs():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.busy == sum(sampler.samples) < 0.3
