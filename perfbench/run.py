"""freeconv benchmark: one workload, one closed loop with a single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, so the benchmark measures the checkout it sits in.  Requests go
through ``freeconv.cli.main(argv)`` in this process with stdout captured,
so argument parsing, JSON input and output emission are inside the timing
and interpreter start is not.

``--trace 0`` runs the request list at least once and then on until the
summed latency reaches ``--seconds``, and reports the end-to-end metrics.
Its times are scaled to one host speed by the sampler in ``hostspeed.py``,
which times a fixed kernel every 10 ms in the same process; the unscaled
figures are printed beside them.  ``--trace 1`` runs a fixed prefix of the
request list three times (warm-up, untraced, traced) and reports per-layer
metrics from the traced pass, per request, in unscaled seconds.

Every output is checked outside the timed region (see ``checks.py``); a
request whose output is wrong counts as failed.  Set-up time is the median
of several fresh interpreters that each import the program and build the
inputs.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9

CALL_SPANS = (
    "series.substitute_into_shifted",
    "series.mul",
    "series.reciprocal",
    "convolve.sfree",
    "opmodel.apply",
    "cli.build_parser",
)
SELF_SPANS = (
    "series.substitute_into_shifted",
    "series.mul",
    "series.reciprocal",
    "convolve.sfree",
    "convolve.free",
    "measures.moments_to_jacobi",
    "measures.jacobi_to_atoms",
    "measures.parse_measure",
    "measures.measure_to_json",
    "measures.stieltjes_density",
    "partitions.orthogonal_moment_combinatorial",
    "partitions.free_cumulants_from_moments",
    "partitions.noncrossing_partitions",
    "opmodel.apply",
    "opmodel.orthogonality_check",
    "opmodel.FreeProductModel",
    "opmodel.WordBasis.build",
    "graphs.free_product_ball",
    "graphs.root_spectral_moments",
    "cli.build_parser",
    "cli.main",
    "verify.suite_partitions",
    "verify.suite_convolutions",
    "verify.suite_opmodel",
)


class Loop:
    """Runs requests through the CLI and checks each distinct one once."""

    def __init__(self, cli, checker, requests, fresh: bool):
        self.cli = cli
        self.checker = checker
        self.requests = requests
        self.fresh = fresh
        self.first = {}  # request index -> (output hash, failure reason or None)
        self.failures: list[tuple[tuple[str, ...], str]] = []
        self.attempted = 0
        self.sampler = None  # a running hostspeed.Sampler, whose time is not the program's
        self.span = (0.0, 0.0)  # perf_counter interval of the last request

    def reload(self) -> None:
        """Drop every freeconv module and import the CLI again, untimed."""
        for name in [n for n in sys.modules if n == "freeconv" or n.startswith("freeconv.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("freeconv.cli")

    def call(self, argv) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main  # looked up per call: the tracer may rebind it
        sampled = self.sampler.busy if self.sampler else 0.0
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed request, not a failed run
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
        self.span = (t0, t1)
        dt = t1 - t0
        if self.sampler:
            dt -= self.sampler.busy - sampled
        if code != 0 and err.getvalue():
            out.write("\nstderr: " + err.getvalue())
        return code, out.getvalue(), dt

    def step(self, index: int) -> float:
        req = self.requests[index]
        code, out, dt = self.call(req.argv)
        self.attempted += 1
        digest = hashlib.sha256(f"{code}\n{out}".encode()).digest()
        if index not in self.first:
            self.first[index] = (digest, self.checker.check(req, code, out))
        first_digest, reason = self.first[index]
        if reason is None and digest != first_digest:
            reason = "output differs from an earlier run of the same request"
        if reason is not None:
            self.failures.append((req.argv, reason))
        return dt

    def digest(self) -> tuple[str, int]:
        """SHA-256 over the outputs of the distinct requests run, in list order."""
        h = hashlib.sha256()
        done = 0
        for i in range(len(self.requests)):
            if i not in self.first:
                break
            h.update(self.first[i][0])
            done += 1
        return h.hexdigest(), done


def setup_probe(workload: str, seed: int, workdir: str) -> float:
    """Seconds one fresh interpreter takes to import the program and build
    the workload's inputs."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_untraced(loop: Loop, seconds: float, probe) -> dict:
    """Closed loop over the request list, at least once through and on
    until the summed latency reaches ``seconds``.  Set-up probes are spread
    over the run; the sampler pauses while one runs.  Every time is kept
    with its interval and scaled to the nominal host speed at the end."""
    runs: list[tuple[int, float, tuple[float, float]]] = []
    setups: list[tuple[float, tuple[float, float]]] = []
    sampler = loop.sampler = hostspeed.Sampler()

    def probe_paused():
        sampler.stop()
        t0 = time.perf_counter()
        setups.append((probe(), (t0, time.perf_counter())))
        sampler.start()

    sampler.start()
    try:
        probe_paused()
        busy = 0.0
        i = 0
        while busy < seconds or i < len(loop.requests):
            if loop.fresh:
                loop.reload()
            index = i % len(loop.requests)
            dt = loop.step(index)
            runs.append((index, dt, loop.span))
            busy += dt
            i += 1
            if len(setups) < SETUP_SAMPLES and busy >= len(setups) * seconds / (SETUP_SAMPLES - 1):
                probe_paused()
        while len(setups) < SETUP_SAMPLES:
            probe_paused()
    finally:
        sampler.stop()
        loop.sampler = None

    print(f"{i} runs of {len(loop.requests)} distinct requests; latency = median run of each request")
    print(f"host speed: {len(sampler.samples)} kernel samples, median "
          f"{statistics.median(sampler.samples) * 1e3:.4f} ms against "
          f"{hostspeed.KERNEL_NOMINAL_S * 1e3:.4f} ms nominal")
    unscaled = _latency_metrics([(j, dt) for j, dt, _ in runs], len(loop.requests),
                                [t for t, _ in setups])
    print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items()))
    metrics = _latency_metrics([(j, dt * sampler.scale(*span)) for j, dt, span in runs],
                               len(loop.requests), [t * sampler.scale(*span) for t, span in setups])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def _latency_metrics(runs, n: int, setups) -> dict:
    """A request's latency is the median of its runs; rate and percentiles
    are taken over the distinct requests, so each weighs the same however
    often it ran."""
    times: list[list[float]] = [[] for _ in range(n)]
    for index, dt in runs:
        times[index].append(dt)
    lat = [statistics.median(ts) for ts in times]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if n > 1 else lat[0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "req_per_s": (n / sum(lat), "1/s"),
        "req_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "req_p90_ms": (p90 * 1e3, "ms"),
    }


def timed_pass(loop: Loop, n: int, tr: tracing.Tracer | None = None) -> float:
    total = 0.0
    for i in range(n):
        if loop.fresh:
            loop.reload()
        if tr is not None:
            if loop.fresh or i == 0:
                tracing.install(tr)
            tr.request = i
        # Outputs are checked on the warm-up pass only: checks call into the
        # program, which must not happen while it is wrapped.
        total += loop.step(i)
    return total


def run_traced(loop: Loop, workload: str) -> dict:
    n = min(workloads.TRACE_REQUESTS[workload], len(loop.requests))
    timed_pass(loop, n)  # warm-up
    untraced = timed_pass(loop, n)
    tr = tracing.Tracer()
    traced = timed_pass(loop, n, tr)

    calls, self_s = tr.summary()
    metrics = {}
    for name in CALL_SPANS:
        metrics[name + ".calls"] = (calls[name] / n, "calls/req")
    for name in SELF_SPANS:
        metrics[name + ".self_s"] = (self_s[name] / n, "s/req")
    metrics["series.coeff_mults"] = (tr.counts["series.coeff_mults"] / n, "mults/req")
    metrics["series.max_coeff_bits"] = (tr.max_bits["series"], "bits")
    metrics["convolve.compositions_per_request"] = (tr.compositions_under_convolve() / n, "calls/req")
    metrics["measures.max_coeff_bits"] = (tr.max_bits["measures"], "bits")
    metrics["opmodel.apply.entries_scanned"] = (
        tr.counts["opmodel.apply.entries_scanned"] / n, "entries/req")
    metrics["trace.listed_frac"] = (sum(self_s[s] for s in SELF_SPANS) / traced, "frac")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")

    shares = {layer: 0.0 for layer in tracing.LAYERS}
    for name, t in self_s.items():
        shares[name.split(".", 1)[0]] += t / traced
    print("layer shares of traced time: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    print(f"traced {n} requests in {traced:.3f} s, untraced {untraced:.3f} s, "
          f"{len(tr.span_start)} spans")
    spans_path = os.path.join(ROOT, ".perfbench", f"spans-{workload}.json")
    tr.dump(spans_path)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freeconv", "__init__.py")):
        print(f"error: no freeconv sources under {SRC}", file=sys.stderr)
        return 2

    rundir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    try:
        sys.path.insert(0, SRC)
        import freeconv
        from freeconv import cli, convolve, graphs, measures

        if os.path.dirname(os.path.abspath(freeconv.__file__)) != os.path.join(SRC, "freeconv"):
            print(f"error: imported freeconv from {freeconv.__file__}", file=sys.stderr)
            return 2
        requests = workloads.build(args.workload, args.seed, os.path.join(rundir, "inputs"))
        loop = Loop(cli, checks.Checker(measures, convolve, graphs), requests,
                    args.workload in workloads.FRESH_PROGRAM)

        if args.trace:
            metrics = run_traced(loop, args.workload)
        else:
            probe_dir = os.path.join(rundir, "setup")
            metrics = run_untraced(
                loop, args.seconds, lambda: setup_probe(args.workload, args.seed, probe_dir))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    digest, done = loop.digest()
    failed = len(loop.failures)
    for argv, reason in loop.failures[:5]:
        print(f"FAILED {' '.join(argv[:2])}: {reason}")
    print(f"workload={args.workload} seed={args.seed} attempted={loop.attempted} "
          f"failed={failed} failed_frac={failed / loop.attempted:.4f}")
    print(f"output sha256={digest} over the first {done}/{len(requests)} distinct requests")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
