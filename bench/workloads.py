"""The three benchmark workloads and the correctness gate for each.

A workload has three parts.  ``setup`` derives the inputs from the seed
and is timed as set-up.  ``run_pass`` is one timed closed-loop pass with
a single caller; every public call it makes is one operation.  ``gate``
checks the first pass's answers against references that do not come
from the code under test, outside the timed region; later passes must
repeat the first pass's answers exactly.

References: Baxter numbers (OEIS A001181), large Schroeder numbers
(A006318) for separable permutations, the twisted-Baxter, rightmost and
s_class counts at n = 8, the golden files in tests/golden, and the
brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

BAXTER_NUMBERS = (1, 2, 6, 22, 92, 422, 2074, 10754)
CLASS_COUNTS = {
    "baxter": BAXTER_NUMBERS,
    "twisted_baxter": BAXTER_NUMBERS,
    "rightmost_class": BAXTER_NUMBERS,
    "s_class": (1, 2, 6, 22, 88, 374, 1668, 7744),
    "separable": (1, 2, 6, 22, 90, 394, 1806, 8558),
}
# Flip-graph diameters measured for n = 2..7 are 2n - 3; the n = 6
# value 9 is the one the exhaustive workload checks.
FLIP_DIAMETER = {n: 2 * n - 3 for n in range(2, 8)}
# Dashed vincular patterns, written out here rather than read from the
# package so that the oracle membership checks are independent of it.
CLASS_PATTERNS = {
    "baxter": ("3-14-2", "2-41-3"),
    "twisted_baxter": ("3-41-2", "2-41-3"),
    "rightmost_class": ("3-14-2", "2-14-3"),
    "s_class": ("3-41-2", "2-14-3"),
    "separable": ("3-1-4-2", "2-4-1-3"),
}
EDGE_COLORS = {"simple": "green", "rotation_lr": "blue", "rotation_barcelona": "red"}
FLIPPABLE = frozenset(EDGE_COLORS)
SAMPLE = 40


@dataclass
class Op:
    label: str
    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class Pass:
    """Operations of one timed pass, each timed on its own."""

    span: object
    ops: list[Op] = field(default_factory=list)

    def call(self, label: str, fn, *args):
        start = time.perf_counter()
        try:
            with self.span(label):
                output = fn(*args)
            error = None
        except Exception:  # an operation that raises counts as failed
            output, error = None, traceback.format_exc(limit=4)
        self.ops.append(Op(label, time.perf_counter() - start, output, error))
        return output

    def skip(self, label: str, reason: str) -> None:
        self.ops.append(Op(label, 0.0, None, f"not attempted: {reason}"))


def oracles():
    """tests/oracles.py, imported after the package so that it binds to it."""
    tests = str(REPO / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles as module

    return module


def _pattern(dashed: str) -> tuple[tuple[int, ...], frozenset[int]]:
    word, glued = [], set()
    for group in dashed.split("-"):
        for offset, ch in enumerate(group):
            if offset:
                glued.add(len(word))
            word.append(int(ch))
    return tuple(word), frozenset(glued)


def avoids(word, class_name: str) -> bool:
    contains = oracles().brute_contains
    return not any(
        contains(word, *_pattern(d)) for d in CLASS_PATTERNS[class_name]
    )


def parse_word(text: str) -> tuple[int, ...]:
    word = tuple(int(t) for t in text.split(",")) if "," in text else tuple(map(int, text))
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    return word


def format_word(word) -> str:
    return "".join(map(str, word)) if len(word) <= 9 else ",".join(map(str, word))


def is_value_swap(a, b) -> bool:
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    return (
        len(diff) == 2
        and abs(a[diff[0]] - a[diff[1]]) == 1
        and (a[diff[0]], a[diff[1]]) == (b[diff[1]], b[diff[0]])
    )


def weak_comparable(a, b) -> bool:
    inv = oracles().inversion_pairs
    ia, ib = inv(a), inv(b)
    return ia < ib or ib < ia


def parse_drawing(text: str, n: int):
    """Label matrix of a canonical drawing, or ValueError naming the defect."""
    rows = tuple(tuple(map(int, line.split())) for line in text.splitlines() if line.strip())
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"drawing is not {n} by {n}")
    boxes: dict[int, list[int]] = {}
    for r, row in enumerate(rows):
        for c, lab in enumerate(row):
            box = boxes.setdefault(lab, [r, c, r, c])
            box[:] = [min(box[0], r), min(box[1], c), max(box[2], r), max(box[3], c)]
    if sorted(boxes) != list(range(1, n + 1)):
        raise ValueError("labels are not 1..n")
    for lab, (t, l, b, rr) in boxes.items():
        if (b - t + 1) * (rr - l + 1) != sum(row.count(lab) for row in rows):
            raise ValueError(f"label {lab} is not a rectangle")
    if any(rows[i][i] != i + 1 for i in range(n)):
        raise ValueError("diagonal cells are not labelled 1..n")
    return rows


def edge_ids(matrix) -> set[str]:
    """Interior edge ids read off the cells: one edge per adjacent pair."""
    n = len(matrix)
    ids = set()
    for r in range(n):
        for c in range(n):
            lab = matrix[r][c]
            for other, orient in (
                (matrix[r][c + 1] if c + 1 < n else lab, "v"),
                (matrix[r + 1][c] if r + 1 < n else lab, "h"),
            ):
                if other != lab:
                    ids.add(f"{min(lab, other)}|{max(lab, other)}:{orient}")
    return ids


def fingerprint(output) -> object:
    """A comparable digest of one answer, for checking later passes."""
    if hasattr(output, "edges") and hasattr(output, "nodes"):
        edges = sorted(
            (pair, sorted((kind.value, m) for kind, m in tags.items()))
            for pair, tags in output.edges.items()
        )
        return hash((output.n, output.nodes, repr(edges)))
    if hasattr(output, "failures"):
        return (output.name, output.n, output.checked, output.failures)
    if isinstance(output, dict):
        return tuple(sorted(output.items()))
    if isinstance(output, (list, frozenset, set)):
        return hash(tuple(sorted(output)))
    return output


def clear_caches(rf) -> None:
    rf.flipgraph.build.cache_clear()
    rf.order.drec_covers.cache_clear()


class Gate:
    """Failure messages, keyed by the index of the operation they fault."""

    def __init__(self):
        self.failures: dict[int, list[str]] = {}

    def check(self, ok: bool, index: int, message: str) -> None:
        if not ok:
            self.failures.setdefault(index, []).append(message)


# --------------------------------------------------------------------------
# exhaustive_n6


class Exhaustive:
    name = "exhaustive_n6"
    why = (
        "One cold pass of the researcher's run at n = 6: build, metrics, the "
        "five verify suites and graph_json over all 422 drawings."
    )
    stresses = (
        "flips (classify_edge, flip, neighbors)",
        "rectangulation (geometry, diagonal_obstruction, canonicalize, "
        "bounding_boxes, extraction_word, rho)",
        "flipgraph (build, metrics, verify_*, graph_json)",
        "bijection.baxter_of/fiber (verify_counts)",
    )
    bypasses = ("cli",)
    SUITES = (
        "verify_counts",
        "verify_theorem_main",
        "verify_theorem_lr",
        "verify_characterization",
        "verify_inversion",
    )

    def __init__(self, toy: bool):
        self.n = 4 if toy else 6

    def setup(self, rf, seed: int):
        # The calls are fixed by the definition of the run; the seed picks
        # the drawings the gate flips twice.
        return {"rng_seed": seed}

    def run_pass(self, rf, state, p: Pass) -> None:
        fg = p.call(f"build({self.n})", rf.flipgraph.build, self.n)
        if fg is None:
            for label in ("metrics", *self.SUITES, "graph_json"):
                p.skip(label, "build failed")
            return
        p.call("metrics", rf.flipgraph.metrics, fg)
        for suite in self.SUITES:
            p.call(suite, getattr(rf.flipgraph, suite), self.n)
        p.call("graph_json", rf.flipgraph.graph_json, fg)

    def gate(self, rf, state, ops: list[Op], gate: Gate) -> None:
        n = self.n
        fg = ops[0].output
        baxter = sorted(
            w for w in itertools.permutations(range(1, n + 1)) if avoids(w, "baxter")
        )
        gate.check(len(baxter) == BAXTER_NUMBERS[n - 1], 0, "oracle Baxter count")
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            out = op.output
            if op.label.startswith("build"):
                gate.check(len(out.nodes) == BAXTER_NUMBERS[n - 1], i,
                           f"{len(out.nodes)} nodes, expected {BAXTER_NUMBERS[n - 1]}")
                gate.check(sorted(out.nodes) == baxter, i, "nodes are not the Baxter permutations")
            elif op.label == "metrics":
                gate.check(out["connected"] and out["diameter"] == FLIP_DIAMETER[n], i,
                           f"metrics {out}, expected connected with diameter {FLIP_DIAMETER[n]}")
            elif op.label.startswith("verify_"):
                gate.check(out.ok and out.checked > 0, i, f"{op.label}: {out.summary()}")
            elif op.label == "graph_json":
                self._check_json(out, baxter, i, gate)
        if fg is not None:
            self._check_involution(rf, fg, random.Random(state["rng_seed"]), gate)

    def _check_json(self, text: str, baxter, i: int, gate: Gate) -> None:
        doc = json.loads(text)
        gate.check(doc["n"] == self.n, i, "graph_json n")
        gate.check(doc["nodes"] == [format_word(w) for w in baxter], i, "graph_json nodes")
        for edge in doc["edges"]:
            a, b, kind = parse_word(edge["a"]), parse_word(edge["b"]), edge["class"]
            gate.check(kind in FLIPPABLE and edge["multiplicity"] >= 1, i,
                       f"graph_json edge {edge}")
            if kind in ("simple", "rotation_barcelona"):
                gate.check(is_value_swap(a, b), i, f"{edge} is not a value swap")
            if kind in ("simple", "rotation_lr"):
                gate.check(weak_comparable(a, b), i, f"{edge} is not weak-order comparable")

    def _check_involution(self, rf, fg, rng: random.Random, gate: Gate) -> None:
        """Flip applied twice returns the input drawing, on sampled drawings."""
        for w in rng.sample(fg.nodes, min(12, len(fg.nodes))):
            grid = fg.grids[w]
            for edge in grid.interior_edges():
                if not rf.flips.classify_edge(grid, edge).flippable:
                    continue
                flipped, back = rf.flips.flip(grid, edge)
                again, _ = rf.flips.flip(flipped, back)
                gate.check(again.matrix == grid.matrix, 0,
                           f"flipping {grid.edge_id(edge)} of {w} twice changes the drawing")


# --------------------------------------------------------------------------
# pattern_lattice


class PatternLattice:
    name = "pattern_lattice"
    why = (
        "The permutation side: enumerate_avoiders(8) for all five classes, "
        "then cold drec_covers(7) and verify_inversion(7)."
    )
    stresses = (
        "permutation (enumerate_avoiders, avoids_class)",
        "order (drec_covers, covers_within, inversion_mask)",
        "rectangulation.rho / extraction_word (verify_inversion)",
    )
    bypasses = ("rectangulation.geometry", "flips", "flipgraph.build", "cli")

    def __init__(self, toy: bool):
        self.n_enum, self.n_lattice = (5, 4) if toy else (8, 7)

    def setup(self, rf, seed: int):
        # The calls are fixed by the definition of the run; the seed picks
        # the words and cover pairs the gate samples.
        return {"rng_seed": seed}

    def run_pass(self, rf, state, p: Pass) -> None:
        by_name = rf.permutation.CLASSES_BY_NAME
        for name in CLASS_PATTERNS:
            p.call(f"enumerate_avoiders:{name}", rf.permutation.enumerate_avoiders,
                   self.n_enum, by_name[name])
        p.call("drec_covers", rf.order.drec_covers, self.n_lattice)
        p.call("verify_inversion", rf.flipgraph.verify_inversion, self.n_lattice)

    def gate(self, rf, state, ops: list[Op], gate: Gate) -> None:
        rng = random.Random(state["rng_seed"])
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            if op.label.startswith("enumerate_avoiders:"):
                self._check_class(op.label.split(":")[1], op.output, rng, i, gate)
            elif op.label == "drec_covers":
                self._check_covers(op.output, rng, i, gate)
            elif op.label == "verify_inversion":
                expected = BAXTER_NUMBERS[self.n_lattice - 1]
                gate.check(op.output.ok and op.output.checked == expected, i,
                           f"{op.output.summary()}, expected {expected} fibers")

    def _check_class(self, name: str, words, rng, i: int, gate: Gate) -> None:
        n = self.n_enum
        expected = CLASS_COUNTS[name][n - 1]
        gate.check(len(words) == expected, i, f"{name}: {len(words)} avoiders, expected {expected}")
        gate.check(words == sorted(set(words)), i, f"{name}: not sorted and distinct")
        identity = list(range(1, n + 1))
        gate.check(all(sorted(w) == identity for w in words), i, f"{name}: non-permutation")
        members = set(words)
        for w in rng.sample(words, min(SAMPLE, len(words))):
            gate.check(avoids(w, name), i, f"{name}: {w} contains a pattern")
        outsiders = [w for w in itertools.permutations(identity) if w not in members]
        for w in rng.sample(outsiders, min(SAMPLE, len(outsiders))):
            gate.check(not avoids(w, name), i, f"{name}: {w} avoids but is missing")

    def _check_covers(self, covers, rng, i: int, gate: Gate) -> None:
        n = self.n_lattice
        inv = oracles().inversion_pairs
        elements = {w for pair in covers for w in pair}
        gate.check(len(elements) == BAXTER_NUMBERS[n - 1], i,
                   f"{len(elements)} lattice elements, expected {BAXTER_NUMBERS[n - 1]}")
        sets = {w: inv(w) for w in elements}
        gate.check(all(sets[lo] < sets[hi] for lo, hi in covers), i,
                   "a cover pair is not a weak-order relation")
        lows, highs = {lo for lo, _ in covers}, {hi for _, hi in covers}
        identity, reverse = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        gate.check(elements - highs == {identity} and elements - lows == {reverse}, i,
                   "only the identity may lack a lower cover, only the reverse an upper one")
        for lo, hi in rng.sample(sorted(covers), min(SAMPLE, len(covers))):
            between = [m for m in elements if sets[lo] < sets[m] < sets[hi]]
            gate.check(not between, i, f"({lo}, {hi}) is not a cover: {between[:1]}")
        for w in rng.sample(sorted(elements), min(SAMPLE, len(elements))):
            gate.check(avoids(w, "baxter"), i, f"lattice element {w} is not Baxter")


# --------------------------------------------------------------------------
# cli_queries


def cli_call(main, argv, stdin_text=""):
    """One in-process CLI invocation with stdin and stdout redirected."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def pick_edge(listing: str, fraction: float) -> str | None:
    """The flippable edge a caller takes from a `flips` listing."""
    ids = [line.split()[0] for line in listing.splitlines() if line.split()[2] != "-"]
    return ids[int(fraction * len(ids))] if ids else None


@dataclass
class Session:
    """The commands one caller runs on one drawing, in order."""

    kind: str  # "drawing", "graph" or "golden"
    perm: tuple[int, ...] = ()
    steps: tuple[str, ...] = ()
    pick: float = 0.0  # which flippable edge `flip` takes, as a fraction


class CliQueries:
    name = "cli_queries"
    why = (
        "A seeded closed-loop mix of single-drawing commands (map, perms, "
        "flips, flip, render) at n = 8..32 plus graph 4 --json, in process."
    )
    stresses = (
        "cli (parse, format, render_svg)",
        "rectangulation.geometry / flips on few large drawings",
        "bijection.fiber / block_deletion_word (perms, flips)",
    )
    bypasses = ("flipgraph.verify_*", "order", "permutation.enumerate_avoiders")
    GOLDEN_WORD = (4, 1, 6, 5, 3, 7, 2)

    def __init__(self, toy: bool):
        # (n, sessions); perms runs only where fibers are enumerable (n <= 10)
        self.sizes = ((5, 2), (6, 2)) if toy else ((8, 8), (10, 5), (16, 8), (24, 6), (32, 5))

    def setup(self, rf, seed: int):
        rng = random.Random(seed)
        sessions = [Session("graph"), Session("golden", self.GOLDEN_WORD)]
        for n, count in self.sizes:
            steps = ("map", "perms", "flips", "flip", "render") if n <= 10 else (
                "map", "flips", "flip", "render")
            for _ in range(count):
                perm = tuple(rng.sample(range(1, n + 1), n))
                sessions.append(Session("drawing", perm, steps, rng.random()))
        rng.shuffle(sessions)
        return {"sessions": sessions}

    def run_pass(self, rf, state, p: Pass) -> None:
        main = rf.cli.main
        for s in state["sessions"]:
            if s.kind == "graph":
                p.call("cli.graph", cli_call, main, ["graph", "4", "--json"])
                continue
            grid = p.call("cli.map", cli_call, main, ["map", format_word(s.perm)])
            steps = ("render",) if s.kind == "golden" else s.steps[1:]
            if not self._ok(grid):
                for step in steps:
                    p.skip(f"cli.{step}", "map failed")
                continue
            grid_text = grid[1]
            flips = None
            for step in steps:
                if step == "perms":
                    p.call("cli.perms", cli_call, main, ["perms", "-"], grid_text)
                elif step == "flips":
                    flips = p.call("cli.flips", cli_call, main, ["flips", "-"], grid_text)
                elif step == "flip":
                    edge = pick_edge(flips[1], s.pick) if self._ok(flips) else None
                    if edge is None:
                        p.skip("cli.flip", "no flippable edge listed")
                        continue
                    p.call("cli.flip", cli_call, main, ["flip", "-", edge], grid_text)
                elif step == "render":
                    p.call("cli.render", cli_call, main, ["render", "-", "--svg", "-"], grid_text)

    @staticmethod
    def _ok(result) -> bool:
        return result is not None and result[0] == 0

    def gate(self, rf, state, ops: list[Op], gate: Gate) -> None:
        for i, op in enumerate(ops):
            if op.error is None:
                code, _, err = op.output
                gate.check(code == 0 and not err, i, f"{op.label} exit {code}: {err.strip()}")
        ops_iter = iter(enumerate(ops))
        fibers: dict[int, dict] = {}
        for s in state["sessions"]:
            if s.kind == "graph":
                i, op = next(ops_iter)
                if op.error is None:
                    golden = (GOLDEN / "flips_4.json").read_text()
                    gate.check(op.output[1] == golden, i, "graph 4 --json differs from golden")
                continue
            steps = ("map", "render") if s.kind == "golden" else s.steps
            results = {step: next(ops_iter) for step in steps}
            if any(op.error is not None for _, op in results.values()):
                continue
            if s.kind == "golden":
                i, op = results["render"]
                golden = (GOLDEN / "rho_4165372.svg").read_text()
                gate.check(op.output[1] == golden, i, "render of 4165372 differs from golden")
                continue
            try:
                self._check_session(rf, s, results, fibers, gate)
            except Exception:  # a malformed answer the checks could not read
                gate.check(False, results["map"][0], traceback.format_exc(limit=2))

    def _check_session(self, rf, s: Session, results, fibers, gate: Gate) -> None:
        n = len(s.perm)
        i, op = results["map"]
        grid_text = op.output[1]
        try:
            matrix = parse_drawing(grid_text, n)
        except ValueError as exc:
            gate.check(False, i, f"map {format_word(s.perm)}: {exc}")
            return
        ids = edge_ids(matrix)
        if "perms" in results:
            baxter = self._check_perms(rf, s.perm, matrix, results["perms"], fibers, gate)
        else:
            baxter = rf.bijection.block_deletion_word(matrix)
        i, op = results["flips"]
        listing = op.output[1]
        classes = {}
        for line in listing.splitlines():
            edge, kind, result = line.split()
            kind = kind.split("[")[0]
            classes[edge] = (kind, result)
            if kind in FLIPPABLE:
                other = parse_word(result)
                if kind in ("simple", "rotation_barcelona"):
                    gate.check(is_value_swap(baxter, other), i,
                               f"flips {edge}: {result} is not a value swap of the drawing")
                if kind in ("simple", "rotation_lr"):
                    gate.check(weak_comparable(baxter, other), i,
                               f"flips {edge}: {result} is not weak-order comparable")
            else:
                gate.check(result == "-", i, f"flips {edge}: unflippable edge has a result")
        gate.check(set(classes) == ids, i, "flips lists other edges than the drawing has")
        if "flip" in results:
            edge_id = pick_edge(listing, s.pick)
            self._check_flip(rf, matrix, grid_text, edge_id, classes[edge_id][1],
                             results["flip"], gate)
        i, op = results["render"]
        drawn = {
            edge: color
            for color, edge in re.findall(
                r'stroke="(\w+)" stroke-width="2"><title>([^<]+)<', op.output[1]
            )
        }
        gate.check(set(drawn) == ids, i, "render draws other edges than the drawing has")
        for edge, color in drawn.items():
            expected = EDGE_COLORS.get(classes.get(edge, ("",))[0], "black")
            gate.check(color == expected, i, f"render colors {edge} {color}, expected {expected}")

    def _check_perms(self, rf, perm, matrix, result, fibers, gate: Gate):
        i, op = result
        lines = dict(line.split() for line in op.output[1].splitlines())
        words = {key: parse_word(lines[key]) for key in ("baxter", "twisted", "rightmost")}
        size = int(lines["fiber"])
        for key, cls in (("baxter", "baxter"), ("twisted", "twisted_baxter"),
                         ("rightmost", "rightmost_class")):
            gate.check(avoids(words[key], cls), i, f"perms {key} {words[key]} is not {cls}")
        n = len(perm)
        if n <= 8:
            if n not in fibers:
                fibers[n] = oracles().brute_fibers(n)
            group = fibers[n][matrix]
            gate.check(size == len(group), i, f"perms fiber {size}, oracle {len(group)}")
            gate.check({perm, *words.values()} <= group, i, "perms words outside the oracle fiber")
        else:
            rho = rf.rectangulation.rho
            gate.check(all(rho(w).matrix == matrix for w in (perm, *words.values())),
                       i, "perms words draw another drawing")
        return words["baxter"]

    @staticmethod
    def _check_flip(rf, matrix, grid_text, edge_id, listed, result, gate: Gate) -> None:
        """The flipped drawing is valid, matches `flips`, and flips back."""
        i, op = result
        try:
            flipped = parse_drawing(op.output[1], len(matrix))
        except ValueError as exc:
            gate.check(False, i, f"flip result: {exc}")
            return
        grid = rf.rectangulation.GridRectangulation(matrix)
        edge = next(e for e in grid.interior_edges() if grid.edge_id(e) == edge_id)
        again, back = rf.flips.flip(grid, edge)
        gate.check(again.matrix == flipped, i, f"flip {edge_id} differs from a library flip")
        gate.check(format_word(rf.bijection.block_deletion_word(flipped)) == listed,
                   i, f"flip {edge_id} disagrees with the flips listing")
        code, out, _ = cli_call(rf.cli.main, ["flip", "-", again.edge_id(back)], op.output[1])
        gate.check(code == 0 and out == grid_text, i,
                   f"flip {edge_id} applied twice changes the drawing")


WORKLOADS = {cls.name: cls for cls in (Exhaustive, CliQueries, PatternLattice)}
