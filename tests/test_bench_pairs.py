"""The pairing script's schedule and summary, on canned results."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def canned(workload, pair, side, **metrics):
    return {
        "workload": workload,
        "side": side,
        "pair": pair,
        "seed": 0,
        "result": {"metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}},
    }


def test_schedule_alternates_and_runs_the_parent_first_in_odd_pairs():
    got = bench_pairs.schedule(["a", "b"], 3, 2400)
    assert got == [
        ("a", 1, 2501, "parent"), ("a", 1, 2501, "change"),
        ("a", 2, 2502, "change"), ("a", 2, 2502, "parent"),
        ("a", 3, 2503, "parent"), ("a", 3, 2503, "change"),
        ("b", 1, 2601, "parent"), ("b", 1, 2601, "change"),
        ("b", 2, 2602, "change"), ("b", 2, 2602, "parent"),
        ("b", 3, 2603, "parent"), ("b", 3, 2603, "change"),
    ]


def test_summary_counts_wins_in_the_metric_direction():
    # higher rate is better, lower latency is better; a tie is not a win
    parent = [(10, 5.0), (12, 4.0), (11, 6.0), (9, 5.0)]
    change = [(11, 5.0), (12, 3.0), (13, 7.0), (8, 4.0)]
    runs = []
    for p, ((pr, pl), (cr, cl)) in enumerate(zip(parent, change), 1):
        runs.append(canned("w", p, "parent", rate=pr, lat=pl))
        runs.append(canned("w", p, "change", rate=cr, lat=cl))
    got = bench_pairs.summarize(runs, {"rate": "higher", "lat": "lower"})
    assert list(got) == ["w"]
    assert got["w"]["rate"]["change_wins"] == 2
    assert got["w"]["lat"]["change_wins"] == 2
    assert got["w"]["rate"]["pairs"] == got["w"]["lat"]["pairs"] == 4
    # exclusive quartiles of 9, 10, 11, 12
    assert got["w"]["rate"]["parent"] == {"q1": 9.25, "median": 10.5, "q3": 11.75}
    assert got["w"]["lat"]["change"] == {"q1": 3.25, "median": 4.5, "q3": 6.5}


def test_summary_reproduces_the_committed_record_of_its_layout():
    record = json.loads((ROOT / "BENCH_23.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    got = bench_pairs.summarize(record["runs"], better)
    want = record["summary_by_workload"]
    assert got == want
