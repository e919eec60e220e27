"""rectflip benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload exhaustive_n6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` every timed pass is untraced and the result carries
the end-to-end metrics.  With ``--trace 1`` untraced passes fill half
the time, one traced pass follows, and the result carries the per-layer
metrics.  Every answer is checked (see ``workloads.py``) before the last
line is printed:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON report with the seed, the machine, the
sample counts, the error rate and the first failure messages.
``--toy`` shrinks every workload to a size the self-test can afford.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("rectangulation", "flips", "bijection", "permutation", "order", "flipgraph", "cli")
# Set-up takes tens of milliseconds, so it is repeated before every pass,
# spreading its samples over the run, and the median is reported.
SETUP_REPEATS = 5


def load_rectflip() -> SimpleNamespace:
    """Import the package afresh, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "rectflip" or m.startswith("rectflip.")]:
        del sys.modules[name]
    package = importlib.import_module("rectflip")
    mods = {name: importlib.import_module(f"rectflip.{name}") for name in MODULES}
    return SimpleNamespace(package=package, modules=mods, **mods)


def git_revision() -> str:
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: always one observed sample, never a blend of
    two calls of very different size, which matters with 7 or 8 samples."""
    return sorted(samples)[max(math.ceil(q * len(samples)), 1) - 1]


@dataclass
class PassRecord:
    wall: float
    outputs: list  # the first pass keeps its Ops, later ones fingerprints
    errors: list
    seconds: list


def set_up(workload, seed: int, times: list[float]):
    """Import plus input generation, repeated; returns the last result."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        rf = load_rectflip()
        state = workload.setup(rf, seed)
        times.append(time.perf_counter() - start)
    return rf, state


def run_pass(workload, rf, state, span, first: bool) -> PassRecord:
    workloads.clear_caches(rf)
    gc.collect()
    p = workloads.Pass(span)
    start = time.perf_counter()
    workload.run_pass(rf, state, p)
    wall = time.perf_counter() - start
    # answers are digested after the clock stops
    outputs = p.ops if first else [workloads.fingerprint(o.output) for o in p.ops]
    return PassRecord(wall, outputs, [o.error for o in p.ops], [o.seconds for o in p.ops])


def timed_passes(workload, seed: int, budget: float, setups: list[float]):
    """Untraced passes until the next one would overrun the budget; at least one."""
    passes: list[PassRecord] = []
    spent = 0.0
    while True:
        rf, state = set_up(workload, seed, setups)
        passes.append(run_pass(workload, rf, state, contextlib.nullcontext, not passes))
        spent += passes[-1].wall
        if spent + statistics.median(p.wall for p in passes) > budget:
            return passes, rf, state


def count_failures(workload, rf, state, passes, messages: list[str]) -> tuple[int, int]:
    """Run the gate on the first pass and compare later passes with it."""
    first_ops = passes[0].outputs
    gate = workloads.Gate()
    try:
        workload.gate(rf, state, first_ops, gate)
    except Exception as exc:  # the gate itself must never hide a failure
        gate.check(False, -1, f"gate raised {exc!r}")
    reference = [workloads.fingerprint(o.output) for o in first_ops]
    attempted = failed = 0
    for number, record in enumerate(passes):
        for i, error in enumerate(record.errors):
            attempted += 1
            wrong = list(gate.failures.get(i, ())) if number == 0 else []
            if error is not None:
                wrong.append(f"{first_ops[i].label}: {error.strip().splitlines()[-1]}")
            elif number and record.outputs[i] != reference[i]:
                wrong.append(f"{first_ops[i].label}: pass {number + 1} answer differs from pass 1")
            if wrong:
                failed += 1
                messages.extend(f"pass {number + 1} op {i}: {m}" for m in wrong)
    if -1 in gate.failures:
        failed += 1
        attempted += 1
        messages.extend(gate.failures[-1])
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rectflip" / "__init__.py").is_file():
        print(f"rectflip sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload](toy=args.toy)
    setups: list[float] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, rf, state = timed_passes(workload, args.seed, budget, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced_wall = statistics.median(p.wall for p in passes)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "machine": machine(),
        "setup_samples": len(setups),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(rf.modules, rf.package)
        try:
            passes.append(run_pass(workload, rf, state, tracer.span, first=False))
            cache = rf.flipgraph.build.cache_info()
        finally:
            tracer.uninstall()
        traced_wall = passes[-1].wall
        layer = spans.layer_metrics(tracer, cache)
        overhead = traced_wall - untraced_wall
        layer["bench.trace_overhead_s"] = (overhead, "s")
        report["traced_wall_s"] = traced_wall
        report["untraced_wall_s"] = untraced_wall
        metrics = layer
    else:
        # Percentiles are taken per pass and their median reported, so
        # that they do not depend on how many passes fit the time.
        per_pass = [[s * 1e3 for s in p.seconds] for p in passes]
        report["latency_samples_per_pass"] = len(per_pass[0])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (untraced_wall, "s"),
            "latency_p50_ms": (statistics.median(percentile(p, 0.5) for p in per_pass), "ms"),
            "latency_p90_ms": (statistics.median(percentile(p, 0.9) for p in per_pass), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    messages: list[str] = []
    attempted, failed = count_failures(workload, rf, state, passes, messages)
    report["error_rate"] = failed / attempted
    report["failures"] = messages[:20]
    print(json.dumps({"report": report}))
    for message in messages[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
