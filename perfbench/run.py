#!/usr/bin/env python3
"""Benchmark of the ivhs pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  NAME is one of the workloads in ``workloads.py``, or ``all``,
which runs each workload in its own process and prints every result.

The run makes the workload's rounds of operations from the seed, then runs
the operations in a closed loop, one after another and cycling through the
rounds, until S seconds have passed and a round has ended; every output is
checked.  With ``--trace 0`` it reports the end-to-end metrics; ``setup_s``
is the median of several fresh processes that each import ivhs and generate
the inputs.
With ``--trace 1`` it runs every operation twice, once under the span
tracer and once without (alternating which goes first), and reports
per-layer self time and counters per traced operation, plus the tracer's
cost in operations per second; the spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the sample count and the percentile behind ``op_tail_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify-fermat", "verify-dense", "symm-grid", "frame-fiber")
SETUP_REPEATS = 7
# One BLAS thread, recorded with every result, so that hosts with different
# core counts measure the same single-threaded program.
BLAS_THREADS = 1
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples beyond it
CHILD_TIMEOUT = 170


def _prepare() -> None:
    """Make ``src/`` importable, or exit: the benchmark needs the program."""
    if not (SRC / "ivhs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ivhs sources under {SRC}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]


def _environment() -> dict:
    import numpy as np

    import ivhs

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "prime": ivhs.DEFAULT_PRIME,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing ivhs and generating the inputs."""
    t0 = perf_counter()
    import ivhs  # noqa: F401
    from workloads import WORKLOADS as table

    table[workload].make_rounds(seed)
    print(perf_counter() - t0)


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Tally:
    """Attempts, failures and the first failure's description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, w, op, call) -> float | None:
        """Run one operation and check it.  Return its wall time, or None
        when it raised or its output was wrong, so that a failed operation
        never enters the timing samples."""
        # Start each operation without the previous one's garbage, as a
        # fresh CLI process would: collection pauses and peak memory then
        # belong to the operation that caused them.
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call(op)
        except Exception:  # any raise is a failed operation; keep running
            self._fail(f"{op!r} raised:\n{traceback.format_exc()}")
            return None
        seconds = perf_counter() - t0
        mismatch = w.check(op, out)
        if mismatch:
            self._fail(f"{op!r}: {mismatch}")
            return None
        return seconds

    def _fail(self, text: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = text
            print(f"perfbench: failed operation: {text}", file=sys.stderr)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    above it, or the median when there are too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _keep(times: list[float], seconds: float | None) -> None:
    if seconds is not None:
        times.append(seconds)


def run_untraced(w, rounds, seconds: float, tally: Tally) -> tuple[list[float], dict]:
    times = []
    start = perf_counter()
    r = 0
    while not tally.attempted or perf_counter() - start < seconds:
        for op in rounds[r % len(rounds)]:
            _keep(times, tally.record(w, op, w.run))
        r += 1
    if not times:
        sys.exit("perfbench: every operation failed; no result")
    pct, tail_s = tail(times)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return times, {"metrics": metrics, "tail_percentile": pct}


def run_traced(w, rounds, seconds: float, tally: Tally, spans_path: Path) -> tuple[list[float], dict]:
    from tracing import OP_SPAN, TIMED_LAYERS, SpanRecorder, Tracer

    rec = SpanRecorder()
    tracer = Tracer(rec)
    traced, plain = [], []
    hits = misses = 0

    def traced_call(op):
        nonlocal hits, misses
        before = tracer.basis_cache_info()
        tracer.install()
        i = rec.begin(OP_SPAN)
        try:
            return w.run(op)
        finally:
            rec.finish(i)
            tracer.uninstall()
            after = tracer.basis_cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses

    start = perf_counter()
    r = 0
    ops = 0
    while not tally.attempted or perf_counter() - start < seconds:
        for op in rounds[r % len(rounds)]:
            # The very first operation runs traced, so the trace sees the
            # cold polyring.basis cache; then the order alternates.
            order = ((traced, traced_call), (plain, w.run))
            for times, call in order[::-1] if ops % 2 else order:
                _keep(times, tally.record(w, op, call))
            ops += 1
        r += 1
    rec.write(spans_path)
    if not traced or not plain:
        sys.exit("perfbench: every operation failed; no result")

    n = len(traced)
    own = rec.self_times()
    c = rec.counts
    metrics = {f"{layer}_s": (own[layer] / n, "s/op") for layer in TIMED_LAYERS}
    metrics.update({
        "linalg.elim_calls": (c["elim_calls"] / n, "count/op"),
        "linalg.elim_entries": (c["elim_entries"] / n, "count/op"),
        "fields.coerce_calls": (c["coerce_calls"] / n, "count/op"),
        "polyring.basis_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "jacobian.dense_pieces": (c["dense_pieces"] / n, "count/op"),
        "jacobian.monomial_pieces": (c["monomial_pieces"] / n, "count/op"),
        "jacobian.action_entries": (c["action_entries"] / n, "count/op"),
        "symmetrizers.unknowns": (c["unknowns"] / n, "count/op"),
        "symmetrizers.spaces_per_op": (c["spaces"] / n, "count/op"),
        "trace.other_s": (own["other"] / n, "s/op"),
        "trace.ops_per_s": (n / sum(traced), "1/s"),
        "trace.overhead_ops_per_s": (len(plain) / sum(plain) - n / sum(traced), "1/s"),
        "trace.spans": (len(rec.start) / n, "count/op"),
    })
    pct, _ = tail(traced)
    return traced, {"metrics": metrics, "tail_percentile": pct, "spans_file": str(spans_path)}


def run_one(workload: str, seed: int, seconds: float, trace: bool, max_ops: int = 0) -> int:
    setup_s = None if trace else measure_setup(workload, seed)
    from workloads import WORKLOADS as table

    w = table[workload]
    rounds = w.make_rounds(seed)
    if max_ops:
        rounds = [rounds[0][:max_ops]]
    tally = Tally()
    if trace:
        spans = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
        times, result = run_traced(w, rounds, seconds, tally, spans)
    else:
        times, result = run_untraced(w, rounds, seconds, tally)
        result["metrics"]["setup_s"] = (setup_s, "s")
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": _environment(),
        "samples": len(times),
        "tail_percentile": result["tail_percentile"],
        "failed_frac": tally.failed / tally.attempted,
        "first_failure": tally.first_failure,
    }
    if "spans_file" in result:
        info["spans_file"] = result["spans_file"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that its peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"perfbench: {workload} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="run only this many operations of the first round (self-check)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.max_ops)


if __name__ == "__main__":
    sys.exit(main())
