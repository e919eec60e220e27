"""Pass only when the failed tests are exactly the two by-design failures.

Reads the JUnit XML that ``pytest --junitxml`` writes and exits 0 when
the set of failed or errored tests is exactly acceptance criteria 02 and
10 (see notes/decisions.md) and no test was skipped.  It exits 1 when
any other test fails or is skipped, or when either of the two passes.

    python3 ci/check_expected_failures.py junit.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_02_eight_rectangle_representatives",
    "tests.test_acceptance::test_criterion_10_simple_flip_components_and_connectivity",
}


def main(path: str) -> int:
    failed, skipped, total = set(), set(), 0
    for case in ET.parse(path).getroot().iter("testcase"):
        total += 1
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(name)
        if case.find("skipped") is not None:
            skipped.add(name)
    problems = [f"unexpected failure: {n}" for n in failed - EXPECTED_FAILURES]
    problems += [f"passed, meant to fail: {n}" for n in EXPECTED_FAILURES - failed]
    problems += [f"skipped: {n}" for n in skipped]
    print(f"{total} tests, {len(failed)} failed, {len(skipped)} skipped")
    for line in sorted(problems):
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} JUNIT_XML")
    sys.exit(main(sys.argv[1]))
