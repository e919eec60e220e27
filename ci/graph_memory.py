"""Fail when build(7) needs more memory than its budget.

Builds the flip graph on all 2,074 drawings of size 7 in a fresh child
process and reads that child's peak resident set size.  Exits 0 when it
is at most the budget and 1 otherwise, printing the measured peak.

    PYTHONPATH=src python3 ci/graph_memory.py

The budget, 40 MB, sits between the 20-24 MB that build(7) peaks
at when each drawing keeps only its matrix and boxes and the 46-50 MB it
took when every drawing also cached its wall geometry (Python 3.10 to
3.13 on a 2-CPU x86-64 Linux host).
"""

from __future__ import annotations

import resource
import subprocess
import sys

BUDGET_MB = 40.0

CHILD = "from rectflip.flipgraph import build; assert len(build(7).nodes) == 2074"


def main() -> int:
    subprocess.run([sys.executable, "-c", CHILD], check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    peak_mb = peak / (1024 * 1024 if sys.platform == "darwin" else 1024)
    verdict = "ok" if peak_mb <= BUDGET_MB else "over budget"
    print(f"build(7) peak RSS {peak_mb:.1f} MB, budget {BUDGET_MB:.0f} MB: {verdict}")
    return 0 if peak_mb <= BUDGET_MB else 1


if __name__ == "__main__":
    sys.exit(main())
