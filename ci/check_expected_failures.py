"""Pass only when no test failed, errored or was skipped.

Reads the JUnit XML that ``pytest --junitxml`` writes and exits 0 when
every test passed.  It exits 1 otherwise, naming each offending test,
and also when the file holds no test at all.
Every test must pass (notes/decisions.md records why criteria 02 and
10 were corrected rather than allowed to fail).

    python3 ci/check_expected_failures.py junit.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET


def main(path: str) -> int:
    failed, skipped, total = set(), set(), 0
    for case in ET.parse(path).getroot().iter("testcase"):
        total += 1
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(name)
        if case.find("skipped") is not None:
            skipped.add(name)
    problems = [f"failed: {n}" for n in failed] + [f"skipped: {n}" for n in skipped]
    print(f"{total} tests, {len(failed)} failed, {len(skipped)} skipped")
    if not total:
        problems.append("no test ran")
    for line in sorted(problems):
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} JUNIT_XML")
    sys.exit(main(sys.argv[1]))
