import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "ci" / "check_expected_failures.py"
SPANS = ROOT / "bench" / "spans.py"
MUTANTS = ROOT / "ci" / "mutants.py"

PASSED = '<testcase classname="tests.test_a" name="test_ok" time="0.1"/>'
SKIPPED = (
    '<testcase classname="tests.test_a" name="test_gone" time="0.0">'
    '<skipped message="no reason"/></testcase>'
)


def check(tmp_path, cases):
    junit = tmp_path / "junit.xml"
    junit.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" tests="{len(cases)}">{"".join(cases)}</testsuite>'
        "</testsuites>"
    )
    done = subprocess.run(
        [sys.executable, str(CHECK), str(junit)], capture_output=True, text=True
    )
    return done.returncode, done.stdout


def test_passing_run_passes(tmp_path):
    assert check(tmp_path, [PASSED]) == (0, "1 tests, 0 failed, 0 skipped\n")


def test_skipped_test_fails_the_run(tmp_path):
    assert check(tmp_path, [PASSED, SKIPPED]) == (
        1,
        "2 tests, 0 failed, 1 skipped\nskipped: tests.test_a::test_gone\n",
    )


def test_empty_run_fails(tmp_path):
    assert check(tmp_path, []) == (1, "0 tests, 0 failed, 0 skipped\nno test ran\n")


def test_every_traced_layer_is_bound(monkeypatch):
    # bench/spans.py looks each LAYERS name up with getattr, so a renamed
    # or moved function breaks the benchmark; load it without writing a
    # bytecode cache under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unbound = [
        f"rectflip.{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not hasattr(importlib.import_module(f"rectflip.{module}"), name)
    ]
    assert spans.LAYERS and unbound == []


def test_every_mutant_edits_one_line(monkeypatch):
    # ci/mutants.py runs each edit in a child process; here only its
    # target line is looked up, so a moved line fails in Tier-1 too.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    found = [mutants.target_count(module, line) for _, module, line, _, _ in mutants.EDITS]
    assert found == [1] * 7
