#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json and pairings.json name each other's metrics and
workloads consistently; runs every workload on a tiny operation list, with
and without tracing, and asserts that every named metric is emitted with
its unit, that no operation failed and that every output was correct; and
runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's own files, where it must exit non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200, w
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_pairings(spec: dict, pairings: dict) -> None:
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for p in pairings["pairings"]:
        assert p["layer_metric"] in layer and p["end_to_end"] in e2e and p["workload"] in workloads, p
    for p in pairings["no_change"]:
        assert p["workload"] in workloads, p


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_run(spec: dict, workload: str, trace: int) -> None:
    out = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--max-ops", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics {got}, want {want}"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, f"{workload}: {name} is {metric['value']}"


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark must fail, not report."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode != 0, "the benchmark ran without the program's sources"
        assert '"metrics"' not in out.stdout, "the benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_pairings(spec, json.loads((HERE / "pairings.json").read_text()))
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"ok  {w['name']} trace={trace}", flush=True)
    check_bare_directory(spec)
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
