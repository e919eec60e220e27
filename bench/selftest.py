"""Toy-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at toy size (n = 4 drawings, a handful of CLI
queries) in both trace modes and checks the result line's schema, that
every metric BENCHMARK.json names is reported with its unit, and that
the correctness gate runs: with a wrong reference planted, the run must
report incorrect answers.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_toy(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.3", "--trace", str(trace), "--toy"])
    if code != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {code}")
    *_, report_line, result_line = out.getvalue().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def problems_in(workload: str, trace: int) -> list[str]:
    report, result = run_toy(workload, trace)
    where = f"{workload} trace={trace}"
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        found.append(f"{where}: gate reports failures {report['failures']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        found.append(f"{where}: attempted {result['attempted']!r}")
    if report["seed"] != 7:
        found.append(f"{where}: seed not recorded")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != expected:
        found.append(f"{where}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(reported) ^ set(expected))} or units")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{where}: {name} = {value!r}")
        if not trace and value <= 0:
            found.append(f"{where}: end-to-end metric {name} is {value}")
    return found


def planted_reference_is_caught() -> list[str]:
    saved = workloads.BAXTER_NUMBERS
    workloads.BAXTER_NUMBERS = tuple(v + 1 for v in saved)
    try:
        _, result = run_toy("exhaustive_n6", 0)
    finally:
        workloads.BAXTER_NUMBERS = saved
    if result["correct"] or result["failed"] < 1:
        return ["a wrong Baxter reference went unnoticed by the gate"]
    return []


def main() -> int:
    found = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            found += problems_in(workload, trace)
    found += planted_reference_is_caught()
    for problem in found:
        print(problem)
    print("selftest", "FAILED" if found else "ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
