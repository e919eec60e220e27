import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectflip as rf
from rectflip import rectangulation
from rectflip.cli import main, parse_grid, render_svg
from rectflip.flipgraph import VerificationReport, build
from rectflip.rectangulation import rho


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def grid_text(word):
    return "\n".join(" ".join(map(str, row)) for row in rho(word).matrix) + "\n"


GRID_7 = grid_text((4, 1, 6, 5, 3, 7, 2))

FLIPS_7 = """\
1|2:v  rotation_barcelona  4652371
1|3:v  rotation_lr  4653712
1|4:h  rotation_lr  1465372
2|3:h  unflippable_one_matched[2]  -
2|7:h  rotation_lr  4651327
3|4:h  unflippable_both_matched  -
3|5:h  rotation_lr  4136572
3|7:v  rotation_lr  4657132
4|5:v  rotation_barcelona  5641372
4|6:v  rotation_lr  6451372
5|6:h  simple  4561372
5|7:v  unflippable_both_matched  -
6|7:v  rotation_barcelona  4751362
"""

FLIPPED_7 = """\
1 2 2 2 2 2 2
1 2 2 2 2 2 2
1 3 3 3 3 3 7
4 4 4 4 5 6 7
4 4 4 4 5 6 7
4 4 4 4 5 6 7
4 4 4 4 5 6 7
"""

SVG_CUT = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="100" height="100">
  <rect x="10" y="10" width="80" height="80" fill="white" stroke="black" stroke-width="2"/>
  <line x1="50" y1="10" x2="50" y2="90" stroke="green" stroke-width="2"><title>1|2:v</title></line>
  <line x1="10" y1="10" x2="90" y2="90" stroke="gray" stroke-width="1" stroke-dasharray="6,4"/>
  <text x="30" y="50" font-size="16" text-anchor="middle" dominant-baseline="central">1</text>
  <text x="70" y="50" font-size="16" text-anchor="middle" dominant-baseline="central">2</text>
</svg>
"""

DOT_2 = """\
graph flips_2 {
  node [shape=box];
  "12";
  "21";
  "12" -- "21" [color=green];
}
"""

JSON_2 = """\
{
  "n": 2,
  "nodes": [
    "12",
    "21"
  ],
  "edges": [
    {
      "a": "12",
      "b": "21",
      "class": "simple",
      "multiplicity": 1
    }
  ]
}
"""


def test_map_small():
    assert run(["map", "312"]) == (0, "1 2 2\n1 2 2\n3 3 3\n", "")
    assert run(["map", "1"]) == (0, "1\n", "")


def test_map_rejects_non_permutation():
    code, out, err = run(["map", "1322"])
    assert (code, out) == (2, "")
    assert err == "not a permutation of 1..4: (1, 3, 2, 2)\n"


def test_map_rejects_superscript_digits():
    # int() would read fullwidth and Arabic-Indic digits and 1_0 as 10.
    for text in ("²1", "１２", "٢١", "2,1_0,3,4,5,6,7,8,9,1"):
        assert run(["map", text]) == (2, "", f"bad permutation text: {text!r}\n")


def test_perms_of_worked_example():
    assert run(["perms"], GRID_7) == (
        0,
        "baxter 4651372\ntwisted 4165372\nrightmost 4651372\nfiber 3\n",
        "",
    )


def test_perms_of_eight_rectangle_example():
    assert run(["perms"], grid_text((3, 1, 4, 2, 6, 5, 8, 7))) == (
        0,
        "baxter 34126587\ntwisted 31426587\nrightmost 34681257\nfiber 14\n",
        "",
    )


def test_flips_table_of_worked_example():
    assert run(["flips"], GRID_7) == (0, FLIPS_7, "")


def _listed_flips_match_drawn_flips(grid):
    # rectflip flips names each result by its recut's Baxter word without
    # drawing it; flipping the edge draws the same result, and the new
    # edge separates the same two labels.
    code, out, _ = run(["flips"], str(grid) + "\n")
    assert code == 0
    edges = {grid.edge_id(e): e for e in grid.interior_edges()}
    flipped = 0
    for line in out.splitlines():
        edge_id, _, word = line.split()
        if word == "-":
            continue
        result, new_edge = rf.flip(grid, edges[edge_id])
        assert word == rf.format_permutation(rf.baxter_of(result))
        assert new_edge.labels == edges[edge_id].labels
        flipped += 1
    return flipped


def test_flips_listing_matches_drawn_flips():
    for n in range(1, 6):
        listed = sum(
            _listed_flips_match_drawn_flips(rho(w))
            for w in rf.enumerate_avoiders(n, rf.BAXTER)
        )
        # every flip, once from each end
        assert listed == 2 * sum(sum(tags.values()) for tags in build(n).edges.values())


@given(
    st.integers(6, 24).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))
)
def test_flips_listing_matches_drawn_flips_on_large_drawings(word):
    _listed_flips_match_drawn_flips(rho(word))


def test_flip_and_flip_back():
    assert run(["flip", "5|6:h"], GRID_7) == (0, FLIPPED_7, "")
    assert run(["flip", "5|6:v"], FLIPPED_7) == (0, GRID_7, "")


def test_flip_unflippable_exit_code():
    code, out, err = run(["flip", "3|4:h"], GRID_7)
    assert (code, out) == (4, "")
    assert err == "h edge on line 3 at 1..4 is unflippable_both_matched\n"


def test_flip_unknown_edge():
    code, out, err = run(["flip", "9|9:h"], GRID_7)
    assert (code, out) == (2, "")
    assert err == "no interior edge with id '9|9:h'\n"


def test_perms_rejects_non_canonical_drawing():
    bad = "1 1 3 3\n1 1 3 3\n1 1 3 3\n2 4 4 4\n"
    code, out, err = run(["perms"], bad)
    assert (code, out) == (3, "")
    assert err == "not a canonical diagonal drawing: diagonal cell (1, 1) must hold label 2\n"
    code, out, err = run(["perms"], "1 1\n3 3\n")
    assert (code, out) == (3, "")
    assert err == "not a canonical diagonal drawing: labels must be exactly 1..n\n"


def test_perms_rejects_malformed_grid():
    code, out, err = run(["perms"], "1 2\n1\n")
    assert (code, out) == (2, "")
    assert err == "invalid rectangulation: grid must be square\n"
    code, _, err = run(["perms"], "1 x\n1 2\n")
    assert code == 2 and err.startswith("invalid rectangulation: bad grid row")
    code, out, err = run(["perms"], "1 2\n2 1\n")
    assert (code, out) == (2, "")
    assert err == "invalid rectangulation: label 1 does not fill a rectangle\n"
    code, out, err = run(["perms"], "١ ٢\n1 2\n")
    assert (code, out) == (2, "")
    assert err == "invalid rectangulation: bad grid row: '١ ٢'\n"
    # a negative label is a number, so the drawing is read and refused
    code, out, err = run(["perms"], "-1 -1\n2 2\n")
    assert (code, out) == (3, "")
    assert err == "not a canonical diagonal drawing: labels must be exactly 1..n\n"


def test_render_validates_the_loaded_grid_once(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    real = rectangulation.bounding_boxes
    expected = [rho((4, 1, 6, 5, 3, 7, 2)).matrix]
    monkeypatch.setattr(rectangulation, "bounding_boxes", counting)
    code, out, _ = run(["render", "--svg", "-"], GRID_7)
    assert code == 0 and out.startswith("<?xml")
    assert calls == expected


def test_render_draws_each_interior_edge_once(monkeypatch):
    # Each edge is drawn by interior_edges and classified from that
    # drawing, not redrawn to check that it is interior.
    calls = []

    def counting(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    real = rectangulation.GridRectangulation.find_edge
    monkeypatch.setattr(rectangulation.GridRectangulation, "find_edge", counting)
    code, out, _ = run(["render", "--svg", "-"], GRID_7)
    assert code == 0 and out.count("<title>") == len(FLIPS_7.splitlines()) == 13
    assert len(calls) == len(set(calls)) == 13


def test_perms_respects_fiber_cap():
    code, out, err = run(["perms"], grid_text(tuple(range(1, 12))))
    assert (code, out) == (2, "")
    assert err == "fiber enumeration is exponential; capped at n = 10\n"


def test_verify_reports():
    assert run(["verify", "4", "--theorem", "main"]) == (
        0,
        "theorem_main n=4: checked 30, ok\n",
        "",
    )
    assert run(["verify", "3", "--theorem", "inversion"]) == (
        0,
        "inversion n=3: checked 6, ok\n",
        "",
    )


def test_verify_failure_dump(monkeypatch):
    report = VerificationReport("main", 2, 1, ("(12, 21) went missing",))
    monkeypatch.setitem(
        sys.modules["rectflip.cli"].__dict__["_VERIFIERS"],
        "main",
        lambda n: report,
    )
    code, out, err = run(["verify", "2", "--theorem", "main"])
    assert code == 1
    assert out == "main n=2: checked 1, FAILED, 1 counterexamples\n  (12, 21) went missing\n"
    assert err == ""


def test_enumerate_lists_lexicographically():
    assert run(["enumerate", "3"]) == (0, "123\n132\n213\n231\n312\n321\n", "")
    code, out, _ = run(["enumerate", "4", "--class", "s_class"])
    lines = out.splitlines()
    assert code == 0 and len(lines) == 22
    assert lines[0] == "1234" and lines[-1] == "4321"


def test_graph_exports():
    assert run(["graph", "2", "--dot"]) == (0, DOT_2, "")
    assert run(["graph", "2", "--json"]) == (0, JSON_2, "")


def test_graph_size_limit():
    code, out, err = run(["graph", "9", "--dot"])
    assert (code, out) == (2, "")
    assert err == "n must be between 1 and 8\n"


def test_render_to_stdout():
    assert run(["render", "--svg", "-"], "1 2\n1 2\n") == (0, SVG_CUT, "")


def test_render_to_file(tmp_path):
    grid_file = tmp_path / "cut.txt"
    grid_file.write_text("1 2\n1 2\n")
    out_file = tmp_path / "cut.svg"
    code, out, err = run(["render", str(grid_file), "--svg", str(out_file)])
    assert (code, out, err) == (0, "", "")
    assert out_file.read_text() == SVG_CUT
    assert render_svg(rho((1, 2))) == SVG_CUT


def test_render_to_unwritable_path(tmp_path):
    for target in (tmp_path / "no_such_dir" / "out.svg", tmp_path):
        code, out, err = run(["render", "--svg", str(target)], "1 2\n1 2\n")
        assert (code, out) == (2, "")
        assert str(target) in err and "Traceback" not in err


def test_missing_grid_file():
    code, out, err = run(["flips", "/no/such/file"])
    assert (code, out) == (2, "")
    assert "/no/such/file" in err


def test_grid_file_not_utf8(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"\xff\xfe1 2\n1 2\n")
    for command in ("perms", "flips", "render"):
        argv = [command, str(path)] + (["--svg", "-"] if command == "render" else [])
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}: ") and "can't decode byte 0xff" in err


def test_bad_arguments_exit_via_argparse():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "3", "--theorem", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run([])


def test_closed_stdout_exits_141_quietly():
    # Like `rectflip enumerate 8 | head -1`: the 10,754 lines overflow the
    # pipe, so the CLI is still writing when the reader goes away.
    env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rectflip.cli", "enumerate", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
    )
    assert proc.stdout.readline() == b"12345678\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


STATE_CASES = (
    (["verify", "3", "--theorem", "bogus"], None),
    (["flip", "9|9:h"], GRID_7),
    (["flip", "3|4:h"], GRID_7),
    (["graph", "3", "--json"], None),
    (["map", "312"], None),
    (["flips"], GRID_7),
)


def _cli_env():
    # COLUMNS fixes the width argparse wraps usage text at.
    return dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]), COLUMNS="80")


def _first_call(argv, stdin_text):
    """Code and output bytes of a call that runs first in its own process."""
    proc = subprocess.run(
        [sys.executable, "-m", "rectflip.cli", *argv],
        input=(stdin_text or "").encode(),
        capture_output=True,
        env=_cli_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _later_call(argv, stdin_text):
    """Code and output bytes of a call in this process; argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_reused_parser_keeps_no_state(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first = [_first_call(*case) for case in STATE_CASES]
    assert [code for code, _, _ in first] == [2, 2, 4, 0, 0, 0]
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert [_later_call(*case) for case in STATE_CASES] == first
    assert len(parsers) == 2 * len(STATE_CASES)
    assert all(parser is parsers[0] for parser in parsers)


def test_importing_the_cli_builds_no_parser():
    # A fresh process, so that no earlier test has built the parser.
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from rectflip import cli
counts = [len(built)]
for _ in range(2):
    cli.main(["map", "1"])
    counts.append(len(built))
print(*counts)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=_cli_env(), timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == b""
    *maps, counts = proc.stdout.decode().splitlines()
    assert maps == ["1", "1"]
    at_import, after_first, after_second = map(int, counts.split())
    assert at_import == 0 < after_first == after_second


_EDGE_IDS = st.builds(
    "{}|{}:{}".format, st.integers(0, 7), st.integers(0, 7), st.sampled_from("hv")
)


@st.composite
def _matrices(draw):
    """Text of a small label matrix, and an edge id to flip in it.

    A third are ragged or arbitrary; the rest are canonical drawings, some
    relabelled, transposed, turned upside down or with one cell changed.
    """
    n = draw(st.sampled_from(range(1, 9)))
    ids = []
    if draw(st.integers(0, 2)) == 0:
        rows = draw(
            st.lists(
                st.lists(st.integers(-1, n + 1), min_size=1, max_size=n + 1),
                min_size=1,
                max_size=n + 1,
            )
        )
    else:
        grid = rho(tuple(draw(st.permutations(range(1, n + 1)))))
        ids = [grid.edge_id(e) for e in grid.interior_edges()]
        rows = [list(row) for row in grid.matrix]
        change = draw(st.none() | st.sampled_from(("relabel", "transpose", "upside", "cell")))
        if change == "relabel":
            labels = draw(st.permutations(range(1, n + 1)))
            rows = [[labels[x - 1] for x in row] for row in rows]
        elif change == "transpose":
            rows = [list(col) for col in zip(*rows)]
        elif change == "upside":
            rows = rows[::-1]
        elif change == "cell":
            r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[r][c] = draw(st.integers(0, n + 1))
    edge = draw(st.sampled_from(ids) if ids and draw(st.booleans()) else _EDGE_IDS)
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n", edge


@settings(max_examples=300)
@given(_matrices())
def test_no_command_raises_on_a_random_matrix(case):
    text, edge = case
    for argv in (["perms"], ["flips"], ["flip", edge], ["render", "--svg", "-"]):
        code, out, err = run(argv, text)
        assert code in (0, 2, 3, 4)
        assert (err == "") == (code == 0)
        assert code == 0 or out == ""


def test_parse_grid_roundtrip():
    assert parse_grid("1 2\n1 2\n") == ((1, 2), (1, 2))
    assert parse_grid("  1 2 \n\n 1 2 \n") == ((1, 2), (1, 2))
    with pytest.raises(ValueError):
        parse_grid("")


def test_outputs_are_byte_deterministic():
    for argv, text in (
        (["graph", "3", "--json"], None),
        (["graph", "3", "--dot"], None),
        (["render", "--svg", "-"], GRID_7),
        (["flips"], GRID_7),
    ):
        assert run(argv, text) == run(argv, text)


def test_map_perms_round_trip():
    for n in range(1, 6):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            text = "".join(map(str, word))
            code, drawing, _ = run(["map", text])
            assert code == 0
            code, report, _ = run(["perms"], drawing)
            assert code == 0
            assert f"baxter {text}\n" in report
        for word in rf.enumerate_avoiders(n, rf.TWISTED_BAXTER):
            text = "".join(map(str, word))
            code, drawing, _ = run(["map", text])
            assert code == 0
            code, report, _ = run(["perms"], drawing)
            assert code == 0
            assert f"twisted {text}\n" in report
