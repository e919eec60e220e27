"""Fibers of the insertion map and their distinguished representatives.

Many insertion orders draw the same grid.  The fiber of a drawing is
the set of all of them, computed by undoing insertions in every
possible order.  Each fiber holds exactly one permutation from each of
the named pattern classes; ``baxter_of`` selects the Baxter one, which
keys everything downstream (flip graphs, the lattice, exports).
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutation import (
    BAXTER,
    PatternClass,
    Word,
    avoids_class,
    inverse,
)
from .rectangulation import (
    GridRectangulation,
    Matrix,
    _removable,
    freeze_matrix,
    rho_prime,
    staircase_extraction,
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

    Defined by exhaustive filter over the fiber; the block-deletion fast
    path (:func:`block_deletion_word`) must produce the same answer and
    is held to that in the test suite.
    """
    return unique_class_member(grid, BAXTER)


def twisted_baxter_of(grid: GridRectangulation) -> Word:
    """The twisted-Baxter representative: the leftmost drawing order.

    Bottom of the fiber's weak-order interval.
    """
    return staircase_extraction(grid, "leftmost")


def rightmost_of(grid: GridRectangulation) -> Word:
    """The rightmost drawing order, top of the fiber's weak-order interval."""
    return staircase_extraction(grid, "rightmost")


def block_delete_bottom_left(matrix: Matrix) -> tuple[int, Matrix]:
    """Remove the rectangle at the bottom-left corner of the drawing.

    Either its neighbours to the right slide left or its neighbours
    above slide down; exactly one of the two keeps every remaining part
    a rectangle.  Returns the removed label and the renormalised drawing
    (same cell grid, one fewer rectangle).  Works on any drawing
    convention since it never consults labels beyond equality.
    """
    work = [list(row) for row in matrix]
    nrows, ncols = len(work), len(work[0])
    lab = work[nrows - 1][0]
    if all(v == lab for row in work for v in row):
        raise ValueError("cannot delete the last rectangle")
    t = min(r for r in range(nrows) if work[r][0] == lab)
    rr = max(c for c in range(ncols) if work[nrows - 1][c] == lab)
    right_ok = rr + 1 < ncols and (t == 0 or work[t - 1][rr] == work[t - 1][rr + 1])
    top_ok = t > 0 and (rr + 1 == ncols or work[t - 1][rr + 1] == work[t][rr + 1])
    # neither sliding direction applying would put four rectangles
    # around the corner point; both applying would make the neighbour
    # L-shaped
    assert right_ok != top_ok
    if right_ok:
        for r in range(t, nrows):
            v = work[r][rr + 1]
            for c in range(rr + 1):
                work[r][c] = v
    else:
        for c in range(rr + 1):
            v = work[t - 1][c]
            for r in range(t, nrows):
                work[r][c] = v
    return lab, freeze_matrix(work)


def block_deletion_word(matrix: Matrix) -> tuple[int, ...]:
    """Labels in bottom-left deletion order.

    The rectangle deleted first is the one inserted first, so on a
    canonical grid this reads out a member of the fiber directly; it is
    the Baxter member, which the test suite pins against
    :func:`baxter_of`.  The word is also a complete invariant of the
    drawing's equivalence class under wall slides.
    """
    matrix = freeze_matrix(matrix)
    labels = {v for row in matrix for v in row}
    order = []
    while len(labels) > 1:
        lab, matrix = block_delete_bottom_left(matrix)
        order.append(lab)
        labels.remove(lab)
    order.append(labels.pop())
    return tuple(order)


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
