"""Fail unless each pinned one-line edit of src/rectflip makes the verify
suites that must catch it fail.

Each edit replaces one line of one module, found by its text, in a copy
of src/ in a temporary directory.  A fresh child process then runs the
five verify suites for n = 1..6 on that copy and prints the ones that
fail; a suite fails when one of its reports is not ok or when it raises.
The unedited copy runs first, and there every suite must pass.  Exits 0
when each edit is caught by every suite listed for it, and 1 when a
listed suite passes under its edit or when an edit's line does not occur
exactly once in its module.  Suites that fail beyond those listed are
printed, not counted.

    python3 ci/mutants.py

A refactor that moves or rewrites a target line must update its row.  A
row whose suite starts to pass shows that the suite no longer checks
what the edit breaks, for example because it compares a fast path with
itself.  The first row is why the table exists: characterization passes
under it, since the union and the intersection of the two sides do not
change.  The whole run takes about 4.5 s on a 2-CPU x86-64 Linux host
(Python 3.11.7).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rectflip"

SUITES = {
    "counts": "verify_counts",
    "main": "verify_theorem_main",
    "lr": "verify_theorem_lr",
    "char": "verify_characterization",
    "inversion": "verify_inversion",
}

# (what the edit does, module, line as it is, line as edited, suites that
# must fail); lines are compared without their indentation, which the
# edit keeps.
EDITS = (
    (
        "Barcelona edges classed rotation_lr",
        "flips.py",
        "return FlipClass(FlipKind.ROTATION_BARCELONA), recut",
        "return FlipClass(FlipKind.ROTATION_LR), recut",
        {"main", "lr"},
    ),
    (
        "recut at the other end of the edge",
        "flips.py",
        "pivot = edge.start if edge.matched_start else edge.end if edge.matched_end else edge.line",
        "pivot = edge.end if edge.matched_start else edge.start if edge.matched_end else edge.line",
        {"counts", "main", "lr", "char"},
    ),
    (
        "recut with the two labels swapped",
        "flips.py",
        "a, b = edge.labels",
        "b, a = edge.labels",
        {"counts", "main", "lr", "char"},
    ),
    (
        "value swaps skip k = n - 1",
        "flipgraph.py",
        "for k in range(1, fg.n):",
        "for k in range(1, fg.n - 1):",
        {"main", "char"},
    ),
    (
        "covers over twisted-Baxter words",
        "order.py",
        "from .permutation import BAXTER, Word, enumerate_avoiders",
        "from .permutation import TWISTED_BAXTER as BAXTER, Word, enumerate_avoiders",
        {"lr", "char"},
    ),
    (
        "_run_box stretching the wrong way",
        "rectangulation.py",
        "if above & 1:",
        "if not above & 1:",
        set(SUITES),
    ),
    (
        # Not placed | 1 << d: _run_box ignores bit d, so that reads the
        # same box and is no mutant.
        "run-box table filled for the placed set one value down",
        "flipgraph.py",
        "(slice(4 * d, 4 * d + 4), d + 1, 1 << d, bytes(_run_box(d, placed, n)))",
        "(slice(4 * d, 4 * d + 4), d + 1, 1 << d, bytes(_run_box(d, placed >> 1, n)))",
        {"counts", "inversion"},
    ),
    (
        "box slide leaves the neighbour level with the corner's top",
        "rectangulation.py",
        "movers = [k for k in beside if boxes[k].top >= t]",
        "movers = [k for k in beside if boxes[k].top > t]",
        {"counts", "main", "lr", "char"},
    ),
    (
        "box peel looks right at column right",
        "rectangulation.py",
        "for lo, hi, bit in starting.get(right + 1, ()):",
        "for lo, hi, bit in starting.get(right, ()):",
        {"inversion"},
    ),
)

CHILD = f"""
import json, sys
from rectflip import flipgraph
assert flipgraph.__file__.startswith(sys.argv[1]), "not the edited copy"
failed = []
for name, suite in {SUITES!r}.items():
    try:
        ok = all(getattr(flipgraph, suite)(n).ok for n in range(1, 7))
    except Exception:
        ok = False
    if not ok:
        failed.append(name)
print(json.dumps(failed))
"""


def target_count(module: str, line: str) -> int:
    """How many lines of the module read ``line``, indentation aside."""
    text = (PACKAGE / module).read_text()
    return sum(1 for have in text.splitlines() if have.strip() == line)


def failing_suites(src: Path) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(src)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    # A copy that cannot even be imported fails every suite.
    return set(json.loads(done.stdout)) if done.returncode == 0 else set(SUITES)


def named(suites: set[str]) -> str:
    return ", ".join(name for name in SUITES if name in suites)


def edited(path: Path, old: str, new: str) -> str:
    lines = path.read_text().splitlines(keepends=True)
    for i, have in enumerate(lines):
        if have.strip() == old:
            lines[i] = have.replace(old, new)
    return "".join(lines)


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(PACKAGE, src / "rectflip", ignore=skip)
        failed = failing_suites(src)
        print(f"unedited: {named(failed) or 'no suite'} failed")
        ok = not failed
        for what, module, old, new, must in EDITS:
            found = target_count(module, old)
            if found != 1:
                print(f"{what}: {module} has {found} lines reading {old!r}")
                ok = False
                continue
            path = src / "rectflip" / module
            original = path.read_text()
            path.write_text(edited(path, old, new))
            failed = failing_suites(src)
            path.write_text(original)
            missed = must - failed
            line = f"{what}: {named(failed) or 'no suite'} failed"
            if failed - must:
                line += f" ({named(failed - must)} unlisted)"
            if missed:
                line += f"; MISSED by {named(missed)}"
                ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
