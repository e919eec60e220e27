"""Fail unless every recut with n <= 7 is two rectangles, every flippable
one ranks its labels as 1..n and gets the same word from box and cell
corner deletion, and every edge matched at one end has the class its
position gives.

Flipping an edge recuts its two rectangles at one pivot: the matched end
of an edge matched at one end, and otherwise the edge's line.
`flips._recut` replaces the two boxes split there without checking that
each side is a non-empty rectangle; notes/decisions.md ("A recut has one
pivot") proves it, and this script checks it by drawing the recut of
every edge matched at fewer than two ends and reading back the same
boxes with `bounding_boxes`.  The flip result is named by the Baxter
word that `corner_deletion_word` reads off the recut's boxes, with no
ranking of its labels.  That is sound because deleting top-left corners,
which is bottom-left deletion of the row-reflected drawing, lists the
labels of every flippable recut as 1..n (notes/decisions.md, "A recut
keeps its labels' diagonal order").  The word must equal the one that
sliding cells gives (`tests/oracles.cell_deletion_word`, notes/
decisions.md, "Corner deletion reads boxes").  The same section proves
that an edge matched at one end is a Law-Reading rotation unless it
crosses the diagonal, and otherwise a Barcelona rotation exactly when
its pivot is one step from the diagonal: the column or row line - 1 at
a matched start, or line + 1 at a matched end.  The classifier still
scans each such recut for obstructions; this script checks the rule
against that scan.

It checks the recut on all 23,798 edges matched at fewer than two ends
(6,206 at neither, 17,592 at one), the identity and the two deletions
on all 21,738 flippable recuts and the rule on all 17,592
one-end-matched edges of the drawings with n <= 7, 5-7 s on a 2-CPU
x86-64 Linux host, too slow for the test suite, which covers n <= 6,
n <= 6 and n <= 5 respectively.  It exits 1 naming the first drawing
and edge that break any of them, or when a count differs.

    PYTHONPATH=src python3 ci/recut_ranks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from rectflip.flips import FlipClass, FlipKind, _classify, _recut
from rectflip.permutation import BAXTER, enumerate_avoiders, format_permutation
from rectflip.rectangulation import (
    Edge,
    GridRectangulation,
    _paint,
    block_deletion_word,
    bounding_boxes,
    corner_deletion_word,
    reflect_rows,
    rho,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import cell_deletion_word

MAX_N = 7
UNMATCHED = 6206
RECUTS = 21738
ONE_MATCHED = 17592


def rotation_kind(edge: Edge) -> FlipKind:
    """The class of an edge matched at one end, from the edge alone."""
    if not edge.crosses_diagonal:
        return FlipKind.ROTATION_LR
    if edge.matched_start:
        one_step = edge.start == edge.line - 1
    else:
        one_step = edge.end == edge.line + 1
    if one_step:
        return FlipKind.ROTATION_BARCELONA
    return FlipKind.UNFLIPPABLE_ONE_MATCHED


def fault(
    grid: GridRectangulation, edge: Edge, flip_class: FlipClass, identity: tuple
) -> str | None:
    """What breaks the recut, the identity, the deletions or the rule on
    one classified edge, if anything.  A recut with an empty side or a
    part that is not a box raises ValueError instead."""
    if edge.matched_count < 2:
        boxes = _recut(grid, edge)
        recut = _paint(boxes.values())
        if bounding_boxes(recut) != boxes:
            return "its recut's boxes do not tile the square"
    if edge.matched_count == 1:
        expected = rotation_kind(edge)
        if flip_class.kind is not expected:
            return f"it is {flip_class}, but its position gives {expected.value}"
    if flip_class.flippable:
        ranks = block_deletion_word(reflect_rows(recut))
        if ranks != identity:
            return f"its recut ranks its labels as {format_permutation(ranks)}"
        word, cells = corner_deletion_word(boxes), cell_deletion_word(recut)
        if word != cells:
            return (
                f"box deletion reads {format_permutation(word)} off its recut, "
                f"cell deletion {format_permutation(cells)}"
            )
    return None


def main() -> int:
    unmatched = checked = one_matched = 0
    for n in range(1, MAX_N + 1):
        identity = tuple(range(1, n + 1))
        for word in enumerate_avoiders(n, BAXTER):
            grid = rho(word)
            for edge in grid.interior_edges():
                try:
                    flip_class = _classify(grid, edge)[0]
                    problem = fault(grid, edge, flip_class, identity)
                except ValueError as err:
                    problem = f"recutting it raises {err!r}"
                if problem is not None:
                    print(
                        f"rho({format_permutation(word)}), edge "
                        f"{grid.edge_id(edge)}: {problem}"
                    )
                    return 1
                unmatched += edge.matched_count == 0
                checked += flip_class.flippable
                one_matched += edge.matched_count == 1
    print(
        f"{unmatched + one_matched} recuts with n <= {MAX_N} are two rectangles "
        f"({unmatched} of edges matched at neither end, {one_matched} at one)"
    )
    print(
        f"{checked} flippable recuts with n <= {MAX_N} rank their labels as 1..n "
        "and get the same word from box and cell deletion"
    )
    print(
        f"{one_matched} one-end-matched edges with n <= {MAX_N} have the class "
        "their position gives"
    )
    if (unmatched, checked, one_matched) != (UNMATCHED, RECUTS, ONE_MATCHED):
        print(
            f"expected {UNMATCHED} edges matched at neither end, {RECUTS} flippable "
            f"recuts and {ONE_MATCHED} one-end-matched edges"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
