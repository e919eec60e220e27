"""Edge flip taxonomy and execution on canonical drawings.

Every interior wall piece falls into one of five classes.  A piece
unmatched at both endpoints flips simply: the two rectangles it
separates form a box that is recut the other way.  A piece matched at
one endpoint rotates around the T-junction there, which either stays
inside the diagonal class (a rotation flip, split further by whether
the piece crosses the diagonal) or leaves it (unflippable).  A piece
matched at both endpoints admits no repartition at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .rectangulation import (
    Edge,
    GridRectangulation,
    Matrix,
    block_deletion_word,
    diagonal_obstruction,
    freeze_matrix,
    rho,
)

class FlipKind(enum.Enum):
    SIMPLE = "simple"
    ROTATION_LR = "rotation_lr"
    ROTATION_BARCELONA = "rotation_barcelona"
    UNFLIPPABLE_ONE_MATCHED = "unflippable_one_matched"
    UNFLIPPABLE_BOTH_MATCHED = "unflippable_both_matched"

    @property
    def flippable(self) -> bool:
        return self in (
            FlipKind.SIMPLE,
            FlipKind.ROTATION_LR,
            FlipKind.ROTATION_BARCELONA,
        )


@dataclass(frozen=True)
class FlipClass:
    """Taxonomy tag for one interior edge.

    ``subtype`` is set only for one-end-matched unflippable edges:
    1 and 2 are horizontal pieces matched at their left and right
    endpoints, 3 and 4 vertical pieces matched at top and bottom.
    """

    kind: FlipKind
    subtype: int | None = None

    def __post_init__(self):
        if self.kind is FlipKind.UNFLIPPABLE_ONE_MATCHED:
            assert self.subtype in (1, 2, 3, 4)
        else:
            assert self.subtype is None

    @property
    def flippable(self) -> bool:
        return self.kind.flippable

    def __str__(self) -> str:
        if self.subtype is None:
            return self.kind.value
        return f"{self.kind.value}[{self.subtype}]"


class EdgeUnflippable(ValueError):
    def __init__(self, edge: Edge, flip_class: FlipClass):
        super().__init__(
            f"{edge.orient} edge on line {edge.line} at {edge.start}..{edge.end} "
            f"is {flip_class}"
        )
        self.edge = edge
        self.flip_class = flip_class


def _recut(grid: GridRectangulation, edge: Edge) -> Matrix:
    """Recut the two rectangles at ``edge`` across it, at its pivot.

    The pivot is a lattice coordinate along the edge: a column for a
    horizontal edge (the new wall is vertical) and a row for a vertical
    one.  It is the matched end of an edge matched at one end, and
    otherwise the edge's line, which is also its first label.  The parts
    of both boxes before the pivot fill one box, which takes the edge's
    first label, and the parts after it another, which takes its second
    (notes/decisions.md, "A recut has one pivot").  An edge matched at
    both ends has no recut.
    """
    pivot = edge.start if edge.matched_start else edge.end if edge.matched_end else edge.line
    a, b = edge.labels
    work = [list(row) for row in grid.matrix]
    for lab, lo, hi in ((a, 0, pivot - 1), (b, pivot, grid.n - 1)):
        parts = []
        for top, left, bottom, right in (grid.boxes[a - 1], grid.boxes[b - 1]):
            if edge.orient == "h":
                left, right = max(left, lo), min(right, hi)
            else:
                top, bottom = max(top, lo), min(bottom, hi)
            if top <= bottom and left <= right:
                parts.append((top, left, bottom, right))
        tops, lefts, bottoms, rights = zip(*parts)
        left, right = min(lefts), max(rights)
        for r in range(min(tops), max(bottoms) + 1):
            work[r][left : right + 1] = [lab] * (right - left + 1)
    return freeze_matrix(work)


def _classify(grid: GridRectangulation, edge: Edge) -> tuple[FlipClass, Matrix | None]:
    # The class of an interior edge and, if it is flippable, its recut.
    # A simple edge's box holds the diagonal cells of a and a + 1, so
    # the recut at coordinate a leaves each rectangle its own diagonal
    # cell: a canonical drawing that no obstruction scan need check.
    # Law-Reading recuts are canonical too, and every flippable recut
    # keeps each label's place on the diagonal (notes/decisions.md).
    if edge.matched_count == 2:
        return FlipClass(FlipKind.UNFLIPPABLE_BOTH_MATCHED), None
    recut = _recut(grid, edge)
    if edge.matched_count == 0:
        return FlipClass(FlipKind.SIMPLE), recut
    if diagonal_obstruction(recut) is not None:
        if edge.orient == "h":
            subtype = 1 if edge.matched_start else 2
        else:
            subtype = 3 if edge.matched_start else 4
        return FlipClass(FlipKind.UNFLIPPABLE_ONE_MATCHED, subtype), None
    if edge.crosses_diagonal:
        return FlipClass(FlipKind.ROTATION_BARCELONA), recut
    return FlipClass(FlipKind.ROTATION_LR), recut


def _check_interior(grid: GridRectangulation, edge: Edge) -> None:
    # An interior edge is the wall that find_edge draws between its own
    # two labels, so no geometry is needed.
    try:
        interior = grid.find_edge(*edge.labels) == edge
    except ValueError:  # the two labels share no wall
        interior = False
    if not interior:
        raise ValueError(f"not an interior edge of this drawing: {edge}")


def classify_edge(grid: GridRectangulation, edge: Edge) -> FlipClass:
    _check_interior(grid, edge)
    return _classify(grid, edge)[0]


def _flip(
    grid: GridRectangulation, edge: Edge, recut: Matrix
) -> tuple[GridRectangulation, Edge]:
    # Flip a flippable edge, given the recut that classifying it returned.
    # Its labels are already canonical: a and b keep their names.
    flipped = rho(block_deletion_word(recut))
    new_edge = flipped.find_edge(*edge.labels)
    assert new_edge.orient != edge.orient
    return flipped, new_edge


def flip(grid: GridRectangulation, edge: Edge) -> tuple[GridRectangulation, Edge]:
    """Replace ``edge`` by the perpendicular wall piece.

    Returns the canonical drawing of the result together with the new
    edge between the two re-formed rectangles; flipping that edge gives
    back the input pair.
    """
    _check_interior(grid, edge)
    flip_class, recut = _classify(grid, edge)
    if not flip_class.flippable:
        raise EdgeUnflippable(edge, flip_class)
    return _flip(grid, edge, recut)


def _edge_recuts(
    grid: GridRectangulation,
) -> Iterator[tuple[Edge, FlipClass, Matrix | None]]:
    # Every interior edge in the order of its two labels, its class and,
    # if it is flippable, its recut: a drawing of the flip result with
    # the input's labels, free of diagonal obstructions.  neighbors,
    # rectflip flips and SVG renderings list edges in this order.
    for edge in grid.interior_edges():
        yield edge, *_classify(grid, edge)


def neighbors(
    grid: GridRectangulation,
) -> list[tuple[GridRectangulation, FlipClass, Edge]]:
    """Flip results over all flippable edges, ordered by their two labels.

    Each edge is classified once and its result drawn as a canonical grid
    from the recut its classification returned; ``flipgraph.build`` and
    ``rectflip flips`` name each result by that recut's Baxter word, undrawn.
    """
    recuts = _edge_recuts(grid)
    return [(_flip(grid, e, r)[0], fc, e) for e, fc, r in recuts if fc.flippable]


def law_reading_edges(grid: GridRectangulation) -> frozenset[Edge]:
    """Interior edges surviving the toward-the-diagonal exclusion rule.

    At every inner vertex (r, c) off the diagonal, the edge that leaves
    it toward the diagonal (down or left when r < c, up or right when
    r > c) and continues straight through it is excluded.  On the edge
    that is a matched start before the point where the diagonal crosses
    its line, or a matched end after that point (see notes/decisions.md,
    "An edge has one maker").  The survivors are exactly the edges
    classified Simple or RotationLR; the equality is checked
    exhaustively in the test suite rather than assumed here.
    """
    return frozenset(
        e
        for e in grid.interior_edges()
        if not (e.matched_start and e.start < e.line or e.matched_end and e.line < e.end)
    )
