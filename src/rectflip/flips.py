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
    _canonical_form,
    canonicalize,
    diagonal_obstruction,
    freeze_matrix,
)

_OPPOSITE = {"up": "down", "down": "up", "left": "right", "right": "left"}


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


def _union_cells(grid: GridRectangulation, a: int, b: int) -> list[tuple[int, int]]:
    cells = []
    for lab in (a, b):
        box = grid.rects[lab]
        cells.extend(
            (r, c)
            for r in range(box.top, box.bottom + 1)
            for c in range(box.left, box.right + 1)
        )
    return cells


def _is_box(cells: list[tuple[int, int]]) -> bool:
    if not cells:
        return False
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    area = (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1)
    return area == len(cells)


def rotated_partition(
    grid: GridRectangulation, edge: Edge, pivot: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """Recut the two rectangles at ``edge`` along the line through ``pivot``.

    ``pivot`` is a lattice coordinate along the edge: a column for a
    horizontal edge (the replacement wall is vertical) and a row for a
    vertical one.  Returns the two cell sets, or None when they are not
    both rectangles; the None case at either endpoint of a both-ends-
    matched edge is what makes such edges unflippable.
    """
    a, b = grid.edge_labels(edge)
    cells = _union_cells(grid, a, b)
    axis = 1 if edge.orient == "h" else 0
    part1 = [cell for cell in cells if cell[axis] < pivot]
    part2 = [cell for cell in cells if cell[axis] >= pivot]
    if not (_is_box(part1) and _is_box(part2)):
        return None
    return part1, part2


def _repartitioned(grid: GridRectangulation, edge: Edge, pivot: int) -> Matrix:
    # Both callers recut where both parts are boxes: an L-shaped union at
    # its own T-junction, or a simple edge's box through the diagonal.
    parts = rotated_partition(grid, edge, pivot)
    assert parts is not None
    a, b = grid.edge_labels(edge)
    work = [list(row) for row in grid.matrix]
    for r, c in parts[0]:
        work[r][c] = a
    for r, c in parts[1]:
        work[r][c] = b
    return freeze_matrix(work)


def _classify(grid: GridRectangulation, edge: Edge) -> tuple[FlipClass, Matrix | None]:
    # The class of an interior edge and, for a rotation, the recut that
    # classifying it scanned, so that flipping need not scan it again.
    if edge.matched_count == 0:
        return FlipClass(FlipKind.SIMPLE), None
    if edge.matched_count == 2:
        return FlipClass(FlipKind.UNFLIPPABLE_BOTH_MATCHED), None
    raw = _repartitioned(grid, edge, edge.start if edge.matched_start else edge.end)
    if diagonal_obstruction(raw) is not None:
        if edge.orient == "h":
            subtype = 1 if edge.matched_start else 2
        else:
            subtype = 3 if edge.matched_start else 4
        return FlipClass(FlipKind.UNFLIPPABLE_ONE_MATCHED, subtype), None
    if edge.crosses_diagonal:
        return FlipClass(FlipKind.ROTATION_BARCELONA), raw
    return FlipClass(FlipKind.ROTATION_LR), raw


def _check_interior(grid: GridRectangulation, edge: Edge) -> None:
    if edge not in grid.interior_edges():
        raise ValueError(f"not an interior edge of this drawing: {edge}")


def classify_edge(grid: GridRectangulation, edge: Edge) -> FlipClass:
    _check_interior(grid, edge)
    return _classify(grid, edge)[0]


def _flip(
    grid: GridRectangulation, edge: Edge, rotated: Matrix | None
) -> tuple[GridRectangulation, Edge]:
    # Flip a flippable edge, given its rotated recut if it has one.
    a, b = grid.edge_labels(edge)
    if rotated is None:
        # the union box holds two consecutive diagonal cells, so the
        # recut line through the diagonal sits at coordinate a
        assert b == a + 1
        flipped, ranks = canonicalize(_repartitioned(grid, edge, a))
    else:
        flipped, ranks = _canonical_form(rotated)
    new_edge = flipped.find_edge(ranks[a], ranks[b])
    assert new_edge.orient != edge.orient
    return flipped, new_edge


def flip(grid: GridRectangulation, edge: Edge) -> tuple[GridRectangulation, Edge]:
    """Replace ``edge`` by the perpendicular wall piece.

    Returns the canonical drawing of the result together with the new
    edge between the two re-formed rectangles; flipping that edge gives
    back the input pair.
    """
    _check_interior(grid, edge)
    flip_class, rotated = _classify(grid, edge)
    if not flip_class.flippable:
        raise EdgeUnflippable(edge, flip_class)
    return _flip(grid, edge, rotated)


def edge_flips(
    grid: GridRectangulation,
) -> Iterator[tuple[Edge, FlipClass, tuple[GridRectangulation, Edge] | None]]:
    """Every interior edge by edge id, its class and, if flippable, its flip.

    Each edge is classified once; a rotation flips the recut that its
    classification scanned.
    """
    for edge in sorted(
        grid.interior_edges(), key=lambda e: (*grid.edge_labels(e), e.orient)
    ):
        flip_class, rotated = _classify(grid, edge)
        flipped = _flip(grid, edge, rotated) if flip_class.flippable else None
        yield edge, flip_class, flipped


def neighbors(
    grid: GridRectangulation,
) -> list[tuple[GridRectangulation, FlipClass, Edge]]:
    """Flip results over all flippable edges, ordered by edge id."""
    return [(f[0], fc, e) for e, fc, f in edge_flips(grid) if f is not None]


def law_reading_edges(grid: GridRectangulation) -> frozenset[Edge]:
    """Interior edges surviving the toward-the-diagonal exclusion rule.

    At every inner vertex off the diagonal, among the edge directions
    leading toward the diagonal, the one continuing straight through the
    vertex is excluded.  The survivors are exactly the edges classified
    Simple or RotationLR; the equality is checked exhaustively in the
    test suite rather than assumed here.
    """
    n = grid.n
    geo = grid.geometry
    incident: dict[tuple[tuple[int, int], str], Edge] = {}
    for e in geo.edges:
        p1, p2 = e.endpoints
        if e.orient == "h":
            incident[p1, "right"] = e
            incident[p2, "left"] = e
        else:
            incident[p1, "down"] = e
            incident[p2, "up"] = e
    excluded = set()
    for (r, c), vertex in geo.vertices.items():
        if not (0 < r < n and 0 < c < n) or r == c:
            continue
        toward = ("down", "left") if r < c else ("up", "right")
        for d in toward:
            if d in vertex.dirs and _OPPOSITE[d] in vertex.dirs:
                excluded.add(incident[(r, c), d])
    return frozenset(e for e in grid.interior_edges() if e not in excluded)
