"""Fibers of :func:`rectflip.rectangulation.rho` and their distinguished representatives.

Many permutations draw the same grid.  The fiber of a drawing is the
set of all of them: the orders in which its rectangles can be laid
down one by one against a rising staircase, computed by undoing those
insertions in every possible order.  Each fiber holds exactly one
permutation from each of the named pattern classes, and
``unique_class_member`` finds it by filtering the fiber.  The three distinguished members are also read
off the drawing directly, without the fiber: ``baxter_of`` by
bottom-left block deletion, which keys everything downstream (flip
graphs, the lattice, exports), and the twisted-Baxter and rightmost
members by peeling the grid's rectangles off from the top
(:func:`rectflip.rectangulation.extraction_word`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutation import PatternClass, Word, avoids_class, inverse
from .rectangulation import (
    GridRectangulation,
    Matrix,
    _removable,
    block_delete_bottom_left,  # re-exported
    block_deletion_word,
    extraction_word,
    rho_prime,
)

FIBER_CAP = 10


@dataclass(frozen=True)
class Fiber:
    rect: GridRectangulation
    members: frozenset[Word]

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[Word]:
        return sorted(self.members)


def fiber(grid: GridRectangulation) -> Fiber:
    """All insertion orders drawing this grid.

    Depth-first search over every backward-removal choice; suffixes are
    shared by memoizing on the staircase state, which determines the set
    of rectangles still in place.
    """
    n = grid.n
    if n > FIBER_CAP:
        raise ValueError(f"fiber enumeration is exponential; capped at n = {FIBER_CAP}")
    boxes = grid.rects
    done = (n,) * n
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def removal_suffixes(heights: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        if heights == done:
            return ((),)
        cached = memo.get(heights)
        if cached is not None:
            return cached
        sequences = []
        choices = [lab for lab, box in boxes.items() if _removable(box, heights, n)]
        assert choices
        for lab in choices:
            box = boxes[lab]
            lowered = list(heights)
            for c in range(box.left, box.right + 1):
                lowered[c] = box.bottom + 1
            for tail in removal_suffixes(tuple(lowered)):
                sequences.append((lab,) + tail)
        memo[heights] = tuple(sequences)
        return memo[heights]

    members = frozenset(
        tuple(reversed(seq)) for seq in removal_suffixes((0,) * n)
    )
    return Fiber(grid, members)


def unique_class_member(grid: GridRectangulation, pclass: PatternClass) -> Word:
    """The one element of the fiber avoiding the class."""
    hits = [w for w in fiber(grid).members if avoids_class(w, pclass)]
    assert len(hits) == 1, f"{pclass.name}: expected one avoider, got {len(hits)}"
    return hits[0]


def baxter_of(grid: GridRectangulation) -> Word:
    """The Baxter representative of the fiber.

    Read off by bottom-left block deletion (:func:`block_deletion_word`)
    without enumerating the fiber, so it works at any size;
    :func:`unique_class_member` with ``BAXTER`` is the filter it must
    agree with.
    """
    return block_deletion_word(grid.matrix)


def twisted_baxter_of(grid: GridRectangulation) -> Word:
    """The twisted-Baxter representative: the leftmost drawing order.

    Bottom of the fiber's weak-order interval.
    """
    return extraction_word(grid, "leftmost")


def rightmost_of(grid: GridRectangulation) -> Word:
    """The rightmost drawing order, top of the fiber's weak-order interval."""
    return extraction_word(grid, "rightmost")


def slash_representative(grid: GridRectangulation) -> Matrix:
    """Redraw the rectangulation against the bottom-left-to-top-right diagonal.

    Computed as rho_prime(inverse(baxter_of(grid))).  The result carries
    its own anti-diagonal labelling: the rectangle at anti-diagonal
    position m there corresponds to the rectangle baxter_of(grid)[m-1]
    here.
    """
    return rho_prime(inverse(baxter_of(grid)))


def antidiagonal_reading(matrix: Matrix) -> tuple[int, ...]:
    """Cell labels along the anti-diagonal, bottom-left to top-right."""
    n = len(matrix)
    return tuple(matrix[n - 1 - i][i] for i in range(n))
