"""Fail unless every flippable recut with n <= 7 ranks its labels as 1..n
and every edge matched at one end has the class its position gives.

Flipping an edge recuts its two rectangles with the input's labels, and
the flip result is named by the recut's Baxter word with no ranking of
those labels.  That is sound because deleting top-left corners, which
is bottom-left deletion of the row-reflected drawing, lists the labels
of every flippable recut as 1..n (notes/decisions.md, "A recut keeps its
labels' diagonal order").  The same section proves that an edge matched
at one end is a Law-Reading rotation unless it crosses the diagonal,
and otherwise a Barcelona rotation exactly when its pivot is one step
from the diagonal: the column or row line - 1 at a matched start, or
line + 1 at a matched end.  The classifier still scans each such recut
for obstructions; this script checks the rule against that scan.

It checks the identity on all 21,738 flippable recuts and the rule on
all 17,592 one-end-matched edges of the drawings with n <= 7, 3.5-5.5 s
on a 2-CPU x86-64 Linux host, too slow for the test suite, which
covers n <= 6 and n <= 5 respectively.  It exits 1 naming the first
drawing and edge that break either, or when a count differs.

    PYTHONPATH=src python3 ci/recut_ranks.py
"""

from __future__ import annotations

import sys

from rectflip.flips import FlipClass, FlipKind, _edge_recuts
from rectflip.permutation import BAXTER, enumerate_avoiders, format_permutation
from rectflip.rectangulation import Edge, block_deletion_word, reflect_rows, rho

MAX_N = 7
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


def fault(edge: Edge, flip_class: FlipClass, recut, identity: tuple) -> str | None:
    """What breaks the identity or the rule on one classified edge, if anything."""
    if edge.matched_count == 1:
        expected = rotation_kind(edge)
        if flip_class.kind is not expected:
            return f"its position gives {expected.value}"
    if flip_class.flippable:
        ranks = block_deletion_word(reflect_rows(recut))
        if ranks != identity:
            return f"recut ranks its labels as {format_permutation(ranks)}"
    return None


def main() -> int:
    checked = one_matched = 0
    for n in range(1, MAX_N + 1):
        identity = tuple(range(1, n + 1))
        for word in enumerate_avoiders(n, BAXTER):
            grid = rho(word)
            for edge, flip_class, recut in _edge_recuts(grid):
                problem = fault(edge, flip_class, recut, identity)
                if problem is not None:
                    print(
                        f"rho({format_permutation(word)}), edge {grid.edge_id(edge)} "
                        f"({flip_class}): {problem}"
                    )
                    return 1
                checked += flip_class.flippable
                one_matched += edge.matched_count == 1
    print(f"{checked} flippable recuts with n <= {MAX_N} rank their labels as 1..n")
    print(
        f"{one_matched} one-end-matched edges with n <= {MAX_N} have the class "
        "their position gives"
    )
    if (checked, one_matched) != (RECUTS, ONE_MATCHED):
        print(f"expected {RECUTS} recuts and {ONE_MATCHED} one-end-matched edges")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
