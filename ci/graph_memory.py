"""Fail when build(7), grouping S_8, verify_inversion(8), verify_inversion(9)
or enumerating the avoiders of size 10 of any of the five pattern classes
needs more memory than its budget, or when an enumeration lists other
words than it did before each prefix carried its forbidden slots.

Each check runs in a fresh child process, which prints its own peak
resident set size when its work is done.  Exits 0 when every peak is at
most its budget and 1 otherwise, printing each measured peak; a check
whose answer is wrong fails its child process and stops the script.

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
each word's inversion mask.  Each fiber's boxes are now checked to tile
the square without drawing a grid, and it peaks at 19.6-19.9 MB
(Python 3.11.7).

verify_inversion(8) checks that each of those 10,754 fibers is a
weak-order interval.  It walks each fiber's interval up from its lower
extreme and compares the words reached with the fiber's members, so
beside the grouping it holds only sets the size of one fiber.  Its
budget, 32 MB, sits above the 21-25 MB it peaked at while it drew a
grid for each fiber (21.2, 25.1, 23.4 and 23.3 MB on Python 3.10.13,
3.11.7, 3.12.1 and 3.13.0) and the 23.0 MB it peaks at on Python 3.11.7
now that it peels each fiber's boxes, and below the 34.3 MB it took on
Python 3.11.7 when every word's mask was computed on its own and held
in a dict keyed by the word.  Sizing each interval by a popcount over
n!-bit bitsets, one per value pair, peaked at 24-28 MB (28.2 MB on
Python 3.11.7).

verify_inversion(9) runs the same check on the 58,202 fibers of the
362,880 words of size 9.  Its budget, 85 MB, sits between the
68-73 MB the walk peaked at with a grid per fiber (67.9, 72.0, 70.4 and
70.3 MB on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0; 68.7 MB on Python
3.11.7 without the grids) and the 96.4 MB that the n!-bit bitsets took
on Python 3.11.7, so the bitsets would fail it.  It takes 4-13 s, the
slowest check here; the bitsets took 34 s.

enumerate_avoiders(10, BAXTER) lists all 326,240 Baxter permutations of
size 10.  Its budget, 70 MB, sits between the 55-59 MB it peaks at when
the levels grow as bytes and the last level, already in order, is
turned into tuples in place, and the 74-78 MB it takes when the tuples
are built as a second list while the bytes are still held.  Growing the
levels as tuples took 62-66 MB, and keeping each word of the last level
in a pair with its forbidden-slot mask took 96.6 MB, so the last level
carries no masks.  Its parents carry no mask tables either: keeping
them alive into the last level took enumerate_avoiders(10, SEPARABLE)
from 42.8 to 52.9 MB.  Now that each level grows in order and nothing
is sorted, Baxter peaks at 58.9 MB (59.4 MB with the final sort), and
so do the 326,240 twisted Baxter and rightmost-class permutations
(59.0-59.1 and 58.9-59.0 MB), under the same 70 MB budget.  The 206,098
separable permutations of size 10 peak at 42.8 MB (43.3 MB with the
sort) and the 183,666 permutations of the S class at 39.7-39.8 MB
(40.2 MB), under 50 MB; these peaks are for Python 3.11.7.
Each check also compares the SHA-256 of the words' bytes, joined in
order, with a pinned digest: for Baxter and separable, that of the list
that enumeration returned when it rebuilt every completing interval of
every prefix; for the other three, that of the list it returned when it
sorted its last level.  The digest is taken after the peak is read,
since importing hashlib alone adds about 3.7 MB.

All figures are for Python 3.10 to 3.13 on a 2-CPU x86-64 Linux host.
"""

from __future__ import annotations

import subprocess
import sys

# (name, budget in MB, code, SHA-256 of the words the code leaves in
# ``words``, or None)
CHECKS = (
    (
        "build(7)",
        40.0,
        "from rectflip.flipgraph import build; assert len(build(7).nodes) == 2074",
        None,
    ),
    (
        "_fibers(8)",
        26.0,
        "from rectflip.flipgraph import _fibers; "
        "assert sum(1 for _ in _fibers(8)) == 10754",
        None,
    ),
    (
        "verify_inversion(8)",
        32.0,
        "from rectflip.flipgraph import verify_inversion; "
        "report = verify_inversion(8); "
        "assert report.ok and report.checked == 10754",
        None,
    ),
    (
        "verify_inversion(9)",
        85.0,
        "from rectflip.flipgraph import verify_inversion; "
        "report = verify_inversion(9); "
        "assert report.ok and report.checked == 58202",
        None,
    ),
    (
        "enumerate_avoiders(10, BAXTER)",
        70.0,
        "from rectflip.permutation import BAXTER, enumerate_avoiders; "
        "words = enumerate_avoiders(10, BAXTER); "
        "assert len(words) == 326240",
        "6c437337b79b50b326032badf26af512d3c12de54931f97c2a69d3051d5e2377",
    ),
    (
        "enumerate_avoiders(10, TWISTED_BAXTER)",
        70.0,
        "from rectflip.permutation import TWISTED_BAXTER, enumerate_avoiders; "
        "words = enumerate_avoiders(10, TWISTED_BAXTER); "
        "assert len(words) == 326240",
        "3e556fdc650a2f848d4311e875327b98775d6b41e7b5f9177b0c3a5a0c09023e",
    ),
    (
        "enumerate_avoiders(10, RIGHTMOST)",
        70.0,
        "from rectflip.permutation import RIGHTMOST, enumerate_avoiders; "
        "words = enumerate_avoiders(10, RIGHTMOST); "
        "assert len(words) == 326240",
        "a4085c1bb9a537016ac31ad6c19773f611c20ca58f13d72877b9c9fcb0ec3854",
    ),
    (
        "enumerate_avoiders(10, S_CLASS)",
        50.0,
        "from rectflip.permutation import S_CLASS, enumerate_avoiders; "
        "words = enumerate_avoiders(10, S_CLASS); "
        "assert len(words) == 183666",
        "af9f18b5c4dc83b0191a38bcc5cad87774b4f2816ff6bb8bfc87884d2da2da9b",
    ),
    (
        "enumerate_avoiders(10, SEPARABLE)",
        50.0,
        "from rectflip.permutation import SEPARABLE, enumerate_avoiders; "
        "words = enumerate_avoiders(10, SEPARABLE); "
        "assert len(words) == 206098",
        "4720185d0e0a16a90727d4ec352669f51dd6e4c086ddc83c0c2a926285c52d83",
    ),
)

REPORT_PEAK = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"

# Runs after the peak is printed: importing hashlib maps libcrypto, which
# adds about 3.7 MB of resident memory.
CHECK_DIGEST = """
import hashlib
found = hashlib.sha256()
for word in words:
    found.update(bytes(word))
assert found.hexdigest() == {!r}
"""


def peak_mb(code: str, digest: str | None) -> float:
    after = "" if digest is None else CHECK_DIGEST.format(digest)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_PEAK}\n{after}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    return int(out.split()[-1]) / (1024 * 1024 if sys.platform == "darwin" else 1024)


def main() -> int:
    ok = True
    for name, budget, code, digest in CHECKS:
        peak = peak_mb(code, digest)
        verdict = "ok" if peak <= budget else "over budget"
        print(f"{name} peak RSS {peak:.1f} MB, budget {budget:.0f} MB: {verdict}")
        ok = ok and peak <= budget
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
