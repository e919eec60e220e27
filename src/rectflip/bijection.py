"""Fibers of :func:`rectflip.rectangulation.rho` and their distinguished representatives.

Many permutations draw the same grid.  The fiber of a drawing is the
set of all of them: the orders in which its rectangles can be laid
down one by one against a rising staircase.  Undoing those insertions
peels rectangles off the top of the drawing, and one relation,
:func:`rectflip.rectangulation.peel_predecessors`, says which must go
before each; the fiber is every peeling order it allows, read
backwards.  Each fiber holds exactly one permutation from each of the
Baxter, twisted-Baxter and rightmost classes, and all three are read
off the drawing directly, without the fiber: ``baxter_of`` by
bottom-left block deletion, which keys everything downstream (flip
graphs, the lattice, exports), and the twisted-Baxter and rightmost
members by peeling the grid's rectangles off from the top along the
same relation (:func:`rectflip.rectangulation.extraction_word`).
"""

from __future__ import annotations

from .permutation import Word
from .rectangulation import (
    GridRectangulation,
    block_deletion_word,
    extraction_word,
    peel_predecessors,
)

FIBER_CAP = 10


def fiber(grid: GridRectangulation) -> frozenset[Word]:
    """All insertion orders drawing this grid.

    They are the peeling orders of :func:`peel_predecessors`, read
    backwards.  The orders in which the rectangles still drawn can be
    laid down depend only on which rectangles those are, so they are
    memoized on that set as a bit mask and shared between branches.
    """
    n = grid.n
    if n > FIBER_CAP:
        raise ValueError(f"fiber enumeration is exponential; capped at n = {FIBER_CAP}")
    preds = peel_predecessors(grid.boxes)
    memo: dict[int, list[Word]] = {0: [()]}

    def drawing_orders(drawn: int) -> list[Word]:
        # Orders of the labels in the mask drawn; the last one drawn is
        # the first one peeled, so it is one with no predecessor in drawn.
        orders = memo.get(drawn)
        if orders is None:
            orders = []
            for i in range(n):
                bit = 1 << i
                if drawn & bit and not preds[i] & drawn:
                    last = (i + 1,)
                    orders += [w + last for w in drawing_orders(drawn ^ bit)]
            memo[drawn] = orders
        return orders

    return frozenset(drawing_orders((1 << n) - 1))


def baxter_of(grid: GridRectangulation) -> Word:
    """The Baxter representative of the fiber.

    Read off by corner deletion on the drawing's boxes
    (:func:`block_deletion_word`), not the fiber, so it works at any
    size; the tests hold it to the fiber's one avoider of ``BAXTER``.
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

