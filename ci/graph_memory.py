"""Fail when build(7), grouping S_8, verify_inversion(8), verify_inversion(9)
or enumerating the Baxter permutations of size 10 needs more memory than
its budget.

Each check runs in a fresh child process, which prints its own peak
resident set size when its work is done.  Exits 0 when every peak is at
most its budget and 1 otherwise, printing each measured peak.

    PYTHONPATH=src python3 ci/graph_memory.py

build(7) builds the flip graph on all 2,074 drawings of size 7.  Its
budget, 40 MB, sits between the 20-24 MB that build(7) peaks at when
each drawing keeps only its matrix and boxes and the 46-50 MB it took
when every drawing also cached its wall geometry.

_fibers(8) groups all 40,320 words of size 8 into the 10,754 fibers of
rho.  Its budget, 26 MB, sits between the 19-23 MB it peaked at when the
words were keyed by the bytes of their boxes, with one grid drawn per
fiber as the fibers are consumed, and the 29-33 MB it took when every
word was drawn and keyed by its matrix.  The prefix walk of S_8 that
groups them keeps each word as bytes under its fiber's key and nothing
else, and peaks at 20.1 MB; it peaked at 23.2 MB while it also kept
each word's inversion mask (Python 3.11.7).

verify_inversion(8) checks that each of those 10,754 fibers is a
weak-order interval.  It walks each fiber's interval up from its lower
extreme and compares the words reached with the fiber's members, so
beside the grouping it holds only sets the size of one fiber.  Its
budget, 32 MB, sits above the 21-25 MB it peaks at now (21.2, 25.1,
23.4 and 23.3 MB on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0) and
below the 34.3 MB it took on Python 3.11.7 when every word's mask was
computed on its own and held in a dict keyed by the word.  Sizing each
interval by a popcount over n!-bit bitsets, one per value pair, peaked
at 24-28 MB (28.2 MB on Python 3.11.7).

verify_inversion(9) runs the same check on the 58,202 fibers of the
362,880 words of size 9.  Its budget, 85 MB, sits between the
68-73 MB the walk peaks at (67.9, 72.0, 70.4 and 70.3 MB on Python
3.10.13, 3.11.7, 3.12.1 and 3.13.0) and the 96.4 MB that the n!-bit
bitsets took on Python 3.11.7, so the bitsets would fail it.  It takes
5-13 s, the slowest check here; the bitsets took 34 s.

enumerate_avoiders(10, BAXTER) lists all 326,240 Baxter permutations of
size 10.  Its budget, 70 MB, sits between the 55-59 MB it peaks at when
the levels grow as bytes and the sorted last level is turned into tuples
in place, and the 74-78 MB it takes when the tuples are built as a
second list while the bytes are still held.  Growing the levels as
tuples took 62-66 MB.

All figures are for Python 3.10 to 3.13 on a 2-CPU x86-64 Linux host.
"""

from __future__ import annotations

import subprocess
import sys

CHECKS = (
    (
        "build(7)",
        40.0,
        "from rectflip.flipgraph import build; assert len(build(7).nodes) == 2074",
    ),
    (
        "_fibers(8)",
        26.0,
        "from rectflip.flipgraph import _fibers; "
        "assert sum(1 for _ in _fibers(8)) == 10754",
    ),
    (
        "verify_inversion(8)",
        32.0,
        "from rectflip.flipgraph import verify_inversion; "
        "report = verify_inversion(8); "
        "assert report.ok and report.checked == 10754",
    ),
    (
        "verify_inversion(9)",
        85.0,
        "from rectflip.flipgraph import verify_inversion; "
        "report = verify_inversion(9); "
        "assert report.ok and report.checked == 58202",
    ),
    (
        "enumerate_avoiders(10, BAXTER)",
        70.0,
        "from rectflip.permutation import BAXTER, enumerate_avoiders; "
        "assert len(enumerate_avoiders(10, BAXTER)) == 326240",
    ),
)

REPORT_PEAK = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


def peak_mb(code: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_PEAK}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    return int(out.split()[-1]) / (1024 * 1024 if sys.platform == "darwin" else 1024)


def main() -> int:
    ok = True
    for name, budget, code in CHECKS:
        peak = peak_mb(code)
        verdict = "ok" if peak <= budget else "over budget"
        print(f"{name} peak RSS {peak:.1f} MB, budget {budget:.0f} MB: {verdict}")
        ok = ok and peak <= budget
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
