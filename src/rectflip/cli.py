"""Command-line front end and the SVG/DOT emitters.

Grids travel as whitespace-separated label matrices, one row per line;
permutations as digit strings (comma-separated beyond 9).  Exit codes:
0 success, 1 verification counterexample, 2 unreadable input or bad
arguments, 3 readable drawing that is not canonical diagonal, 4 flip
requested on an unflippable edge, 141 stdout closed early by its reader
(128 + SIGPIPE, as for `rectflip enumerate 8 | head -1`).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import Sequence

from .bijection import baxter_of, fiber, rightmost_of, twisted_baxter_of
from .flipgraph import (
    FlipGraph,
    build,
    graph_json,
    verify_characterization,
    verify_counts,
    verify_inversion,
    verify_theorem_lr,
    verify_theorem_main,
)
from .flips import EdgeUnflippable, FlipKind, _classify, _edge_flips, flip
from .permutation import (
    CLASSES_BY_NAME,
    enumerate_avoiders,
    format_permutation,
    parse_permutation,
)
from .rectangulation import (
    GridRectangulation,
    Matrix,
    NotRectangularError,
    rho,
)

MAX_GRAPH_N = 8


# SVG cell size and margin in pixels, and the colour of each flip kind
# in SVG and DOT output; both are byte-deterministic under these.
CELL = 40
MARGIN = 10
KIND_COLOR = {
    FlipKind.SIMPLE: "green",
    FlipKind.ROTATION_LR: "blue",
    FlipKind.ROTATION_BARCELONA: "red",
    FlipKind.UNFLIPPABLE_ONE_MATCHED: "black",
    FlipKind.UNFLIPPABLE_BOTH_MATCHED: "black",
}


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def parse_grid(text: str) -> Matrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii() or "_" in line:  # int() reads other digits and 1_0
                raise ValueError
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ValueError(f"bad grid row: {line!r}") from None
    if not rows:
        raise ValueError("empty grid")
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("grid must be square")
    return tuple(rows)


def _read_text(source: str) -> str:
    try:
        return sys.stdin.read() if source == "-" else Path(source).read_text()
    except OSError as exc:
        raise _Exit(2, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _Exit(2, f"{source}: {exc}") from None


def _load_grid(source: str) -> GridRectangulation:
    text = _read_text(source)
    try:
        matrix = parse_grid(text)
    except ValueError as exc:
        raise _Exit(2, f"invalid rectangulation: {exc}") from None
    try:
        return GridRectangulation(matrix)
    except NotRectangularError as exc:
        raise _Exit(2, f"invalid rectangulation: {exc}") from None
    except ValueError as exc:
        raise _Exit(3, f"not a canonical diagonal drawing: {exc}") from None


def _parse_perm(text: str):
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None


def render_svg(grid: GridRectangulation) -> str:
    """The drawing with interior edges colored by flip class."""
    n = grid.n
    side = n * CELL
    size = side + 2 * MARGIN

    def x_at(c: int) -> int:
        return MARGIN + c * CELL

    def y_at(r: int) -> int:
        return MARGIN + r * CELL

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}">',
        f'  <rect x="{x_at(0)}" y="{y_at(0)}" width="{side}" height="{side}" '
        'fill="white" stroke="black" stroke-width="2"/>',
    ]
    for edge in grid.interior_edges():
        color = KIND_COLOR[_classify(grid, edge)[0].kind]
        if edge.orient == "h":
            x1, y1 = x_at(edge.start), y_at(edge.line)
            x2, y2 = x_at(edge.end), y_at(edge.line)
        else:
            x1, y1 = x_at(edge.line), y_at(edge.start)
            x2, y2 = x_at(edge.line), y_at(edge.end)
        lines.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="2">'
            f"<title>{grid.edge_id(edge)}</title></line>"
        )
    lines.append(
        f'  <line x1="{x_at(0)}" y1="{y_at(0)}" x2="{x_at(n)}" y2="{y_at(n)}" '
        'stroke="gray" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    font = CELL * 2 // 5
    for lab, box in enumerate(grid.boxes, 1):
        cx = x_at(box.left) + (box.right - box.left + 1) * CELL // 2
        cy = y_at(box.top) + (box.bottom - box.top + 1) * CELL // 2
        lines.append(
            f'  <text x="{cx}" y="{cy}" font-size="{font}" text-anchor="middle" '
            f'dominant-baseline="central">{lab}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def graph_dot(fg: FlipGraph) -> str:
    """Graphviz export; node labels are the Baxter permutation strings."""
    lines = [f"graph flips_{fg.n} {{", "  node [shape=box];"]
    for w in fg.nodes:
        lines.append(f'  "{format_permutation(w)}";')
    for a, b in sorted(fg.edges):
        for kind in sorted(fg.edges[a, b], key=lambda k: k.value):
            attrs = f"color={KIND_COLOR[kind]}"
            multiplicity = fg.edges[a, b][kind]
            if multiplicity > 1:
                attrs += f', label="{multiplicity}"'
            lines.append(
                f'  "{format_permutation(a)}" -- "{format_permutation(b)}" [{attrs}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _checked_n(n: int) -> int:
    if not 1 <= n <= MAX_GRAPH_N:
        raise _Exit(2, f"n must be between 1 and {MAX_GRAPH_N}")
    return n


def cmd_map(args) -> int:
    print(rho(_parse_perm(args.perm)))
    return 0


def cmd_perms(args) -> int:
    grid = _load_grid(args.grid)
    try:
        size = len(fiber(grid))
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None
    print(f"baxter {format_permutation(baxter_of(grid))}")
    print(f"twisted {format_permutation(twisted_baxter_of(grid))}")
    print(f"rightmost {format_permutation(rightmost_of(grid))}")
    print(f"fiber {size}")
    return 0


def cmd_flips(args) -> int:
    grid = _load_grid(args.grid)
    for edge, flip_class, word in _edge_flips(grid):
        # each result is named by its Baxter word, undrawn
        shown = "-" if word is None else format_permutation(word)
        print(f"{grid.edge_id(edge)}  {flip_class}  {shown}")
    return 0


def cmd_flip(args) -> int:
    grid = _load_grid(args.grid)
    matches = [e for e in grid.interior_edges() if grid.edge_id(e) == args.edge]
    if not matches:
        raise _Exit(2, f"no interior edge with id {args.edge!r}")
    try:
        flipped, _ = flip(grid, matches[0])
    except EdgeUnflippable as exc:
        raise _Exit(4, str(exc)) from None
    print(flipped)
    return 0


def cmd_graph(args) -> int:
    fg = build(_checked_n(args.n))
    sys.stdout.write(graph_dot(fg) if args.dot else graph_json(fg))
    return 0


_VERIFIERS = {
    "main": verify_theorem_main,
    "lr": verify_theorem_lr,
    "char": verify_characterization,
    "counts": verify_counts,
    "inversion": verify_inversion,
}


def cmd_verify(args) -> int:
    report = _VERIFIERS[args.theorem](_checked_n(args.n))
    print(report.summary())
    for line in report.failures:
        print(f"  {line}")
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    svg = render_svg(_load_grid(args.grid))
    if args.svg == "-":
        sys.stdout.write(svg)
    else:
        try:
            Path(args.svg).write_text(svg)
        except OSError as exc:
            raise _Exit(2, str(exc)) from None
    return 0


def cmd_enumerate(args) -> int:
    n = _checked_n(args.n)
    for word in enumerate_avoiders(n, CLASSES_BY_NAME[args.pclass]):
        print(format_permutation(word))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI grammar: built on the first `main()` call, then shared,
    unmodified, by every later call in the same process.
    """
    parser = argparse.ArgumentParser(
        prog="rectflip",
        description="Diagonal rectangulations, their permutations, and flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="draw the rectangulation of a permutation")
    p.add_argument("perm")
    p.set_defaults(func=cmd_map)

    for name, func, text in (
        ("perms", cmd_perms, "representatives and fiber size of a drawing"),
        ("flips", cmd_flips, "classify every interior edge"),
        ("flip", cmd_flip, "flip one edge"),
        ("render", cmd_render, "emit an SVG of a drawing"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("grid", nargs="?", default="-", help="matrix file, - for stdin")
        if name == "flip":
            p.add_argument("edge", help='edge id such as "1|2:v"')
        if name == "render":
            p.add_argument("--svg", required=True, help="output path, - for stdout")
        p.set_defaults(func=func)

    p = sub.add_parser("graph", help="export the flip graph")
    p.add_argument("n", type=int)
    fmt = p.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("n", type=int)
    p.add_argument("--theorem", required=True, choices=sorted(_VERIFIERS))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list avoiders of a pattern class")
    p.add_argument("n", type=int)
    p.add_argument(
        "--class",
        dest="pclass",
        default="baxter",
        choices=sorted(CLASSES_BY_NAME),
    )
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except _Exit as stop:
        print(stop.message, file=sys.stderr)
        return stop.code
    except BrokenPipeError:
        # the reader left; /dev/null keeps the flush at exit from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
