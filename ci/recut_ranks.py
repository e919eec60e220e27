"""Fail unless every flippable recut with n <= 7 ranks its labels as 1..n.

Flipping an edge recuts its two rectangles with the input's labels, and
the flip result is named by the recut's Baxter word with no ranking of
those labels.  That is sound because deleting top-left corners, which
is bottom-left deletion of the row-reflected drawing, lists the labels
of every flippable recut as 1..n (notes/decisions.md, "A recut keeps its
labels' diagonal order").  This script checks the identity on all
21,738 flippable recuts of the drawings with n <= 7, about 4.4 s on a
2-CPU x86-64 Linux host, too slow for the test suite, which covers
n <= 6.  It exits 1 naming the first drawing and edge that break it, or
when the number of recuts checked is not 21,738.

    PYTHONPATH=src python3 ci/recut_ranks.py
"""

from __future__ import annotations

import sys

from rectflip.flips import _edge_recuts
from rectflip.permutation import BAXTER, enumerate_avoiders, format_permutation
from rectflip.rectangulation import block_deletion_word, reflect_rows, rho

MAX_N = 7
RECUTS = 21738


def main() -> int:
    checked = 0
    for n in range(1, MAX_N + 1):
        identity = tuple(range(1, n + 1))
        for word in enumerate_avoiders(n, BAXTER):
            grid = rho(word)
            for edge, flip_class, recut in _edge_recuts(grid):
                if not flip_class.flippable:
                    continue
                ranks = block_deletion_word(reflect_rows(recut))
                if ranks != identity:
                    print(
                        f"rho({format_permutation(word)}), edge {grid.edge_id(edge)} "
                        f"({flip_class}): recut ranks its labels as "
                        f"{format_permutation(ranks)}"
                    )
                    return 1
                checked += 1
    print(f"{checked} flippable recuts with n <= {MAX_N} rank their labels as 1..n")
    if checked != RECUTS:
        print(f"expected {RECUTS} recuts")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
