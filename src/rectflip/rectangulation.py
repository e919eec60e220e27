"""Diagonal rectangulations drawn on an n-by-n grid of unit cells.

A rectangulation of the square is stored as a label matrix: cell (r, c)
holds the label of the rectangle covering it, row 0 at the top.  The
canonical drawing used throughout places rectangle i on the main
diagonal cell (i-1, i-1), so ``matrix[i][i] == i + 1`` with 0-based
indices.  Every permutation of 1..n maps to such a drawing by
:func:`rho`, which stretches rectangle j from its diagonal cell over the
runs of neighbouring values placed before and after j, and every drawing
of a rectangulation whose walls do not obstruct the diagonal maps back
by :func:`canonicalize`.

Lattice points are (row, col) corners of cells, so both coordinates run
from 0 to n inclusive.  The main diagonal runs from lattice point (0, 0)
to (n, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

from .permutation import Word, check_word

Matrix = tuple[tuple[int, ...], ...]

DIRECTIONS = ("up", "down", "left", "right")


class Rect(NamedTuple):
    """Cell-index bounding box, all bounds inclusive."""

    top: int
    left: int
    bottom: int
    right: int


def freeze_matrix(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


class NotRectangularError(ValueError):
    """Some label of a matrix does not fill its bounding box."""


def bounding_boxes(matrix: Matrix) -> dict[int, Rect]:
    """Box of each label, checking that every label fills its box exactly.

    Each run of one label in a row opens the label's box or must extend
    it down by one row, with the same columns.  Labels keep the order the
    rows first show them in, and a failure names the first bad one.  A
    matrix with no cells or rows of unequal length raises ValueError.
    """
    if not matrix or not matrix[0] or any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("rows must be non-empty and of equal length")
    boxes: dict[int, list[int]] = {}
    bad = set()
    for r, row in enumerate(matrix):
        c = 0
        for lab, run in groupby(row):
            right = c + len(list(run)) - 1
            box = boxes.get(lab)
            if box is None:
                boxes[lab] = [r, c, r, right]
            elif box[2] == r - 1 and box[1] == c and box[3] == right:
                box[2] = r
            else:
                bad.add(lab)
            c = right + 1
    if bad:
        lab = next(lab for lab in boxes if lab in bad)
        raise NotRectangularError(f"label {lab} does not fill a rectangle")
    return {lab: Rect(*box) for lab, box in boxes.items()}


@dataclass(frozen=True)
class Edge:
    """Wall piece between two consecutive vertices of a segment.

    ``start`` and ``end`` are lattice coordinates along the line: columns
    for a horizontal edge in row ``line``, rows for a vertical edge in
    column ``line``.  An endpoint is matched when the segment carrying
    the edge continues straight past it.  ``labels`` are the rectangles
    on either side, the one above or on the left first.
    """

    orient: str
    line: int
    start: int
    end: int
    matched_start: bool
    matched_end: bool
    labels: tuple[int, int]

    @property
    def crosses_diagonal(self) -> bool:
        # A wall piece meets the open diagonal iff the diagonal passes
        # strictly between its endpoints; for both orientations that is
        # one comparison on lattice coordinates.
        return self.start < self.line < self.end

    @property
    def matched_count(self) -> int:
        return int(self.matched_start) + int(self.matched_end)


@dataclass(frozen=True)
class Geometry:
    # The kind of each vertex: "corner", "stem_left", "stem_right",
    # "stem_up", "stem_down" or "four_way".
    vertices: dict[tuple[int, int], str]
    # Each maximal wall as (orient, line, start, end); the line is a row
    # for "h" and a column for "v".
    segments: tuple[tuple[str, int, int, int], ...]


def geometry(matrix: Matrix) -> Geometry:
    """Vertex kinds and maximal segments of the wall structure.

    Only :func:`diagonal_obstruction` scans them; wall pieces come from
    :meth:`GridRectangulation.find_edge`.
    """
    nrows = len(matrix)
    ncols = len(matrix[0])

    def hwall(r: int, c: int) -> bool:
        # unit wall below lattice row r, spanning columns c..c+1
        return r == 0 or r == nrows or matrix[r - 1][c] != matrix[r][c]

    def vwall(r: int, c: int) -> bool:
        return c == 0 or c == ncols or matrix[r][c - 1] != matrix[r][c]

    def dirs_at(r: int, c: int) -> frozenset[str]:
        found = set()
        if r > 0 and vwall(r - 1, c):
            found.add("up")
        if r < nrows and vwall(r, c):
            found.add("down")
        if c > 0 and hwall(r, c - 1):
            found.add("left")
        if c < ncols and hwall(r, c):
            found.add("right")
        return frozenset(found)

    vertices: dict[tuple[int, int], str] = {}
    for r in range(nrows + 1):
        for c in range(ncols + 1):
            found = dirs_at(r, c)
            if len(found) < 2 or found in (
                frozenset({"left", "right"}),
                frozenset({"up", "down"}),
            ):
                continue
            if len(found) == 4:
                kind = "four_way"
            elif len(found) == 2:
                kind = "corner"
            else:
                missing = (set(DIRECTIONS) - found).pop()
                kind = {
                    "left": "stem_right",
                    "right": "stem_left",
                    "up": "stem_down",
                    "down": "stem_up",
                }[missing]
            vertices[r, c] = kind

    segments: list[tuple[str, int, int, int]] = []

    def sweep(orient: str, line: int, length: int, present) -> None:
        c = 0
        while c < length:
            if not present(c):
                c += 1
                continue
            start = c
            while c < length and present(c):
                c += 1
            segments.append((orient, line, start, c))

    for r in range(nrows + 1):
        sweep("h", r, ncols, lambda c, r=r: hwall(r, c))
    for c in range(ncols + 1):
        sweep("v", c, nrows, lambda r, c=c: vwall(r, c))

    return Geometry(vertices, tuple(segments))


@dataclass(frozen=True)
class DiagonalObstruction:
    """Witness that a wall forbids every rectangle from meeting the diagonal."""

    reason: str  # "four_way", "vertical", "horizontal"
    point: tuple[int, int]


class NotDiagonalError(ValueError):
    def __init__(self, violation: DiagonalObstruction):
        super().__init__(f"not a diagonal rectangulation: {violation}")
        self.violation = violation


def diagonal_obstruction(matrix: Matrix) -> DiagonalObstruction | None:
    """Reject drawings whose rectangulation is not diagonal.

    A rectangulation (up to combinatorial equivalence) admits a drawing
    with every rectangle touching the top-left-to-bottom-right diagonal
    iff no wall carries the forbidden pair of T-stems.  On a vertical
    wall read top to bottom that pair is a right stem above a left stem;
    on a horizontal wall read left to right it is a down stem before an
    up stem.  (Either pattern pins a rectangle strictly above and one
    strictly below the diagonal, which is impossible.)  Junctions of
    four rectangles are rejected outright.
    """
    geo = geometry(matrix)
    for point, kind in geo.vertices.items():
        if kind == "four_way":
            return DiagonalObstruction("four_way", point)
    for orient, line, start, end in geo.segments:
        if orient == "v":
            bad_kind, trigger_kind, reason = "stem_left", "stem_right", "vertical"
        else:
            bad_kind, trigger_kind, reason = "stem_up", "stem_down", "horizontal"
        armed: tuple[int, int] | None = None
        for t in range(start, end + 1):
            point = (t, line) if orient == "v" else (line, t)
            kind = geo.vertices.get(point)
            if kind is None:
                continue
            if kind == trigger_kind and armed is None:
                armed = point
            elif kind == bad_kind and armed is not None:
                return DiagonalObstruction(reason, point)
    return None


@dataclass(frozen=True)
class GridRectangulation:
    """Canonical drawing of a diagonal rectangulation.

    Rectangle i covers the diagonal cell (i-1, i-1); labels are exactly
    1..n for an n-by-n matrix.  No four rectangles can then meet at an
    interior point (r, c): the north-east one would force c <= r - 1
    through its diagonal cell and the south-west one r <= c - 1.
    """

    matrix: Matrix
    # The rectangles' boxes in label order.
    boxes: tuple[Rect, ...] = field(init=False, repr=False, compare=False)

    @classmethod
    def _of_checked_boxes(
        cls, matrix: Matrix, boxes: tuple[Rect, ...]
    ) -> GridRectangulation:
        # A grid whose maker has already checked that boxes tile matrix
        # with label i on diagonal cell (i-1, i-1), as rho does.
        grid = object.__new__(cls)
        object.__setattr__(grid, "matrix", matrix)
        object.__setattr__(grid, "boxes", boxes)
        return grid

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze_matrix(self.matrix))
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square and non-empty")
        boxes = bounding_boxes(self.matrix)
        if sorted(boxes) != list(range(1, n + 1)):
            raise ValueError("labels must be exactly 1..n")
        for i in range(n):
            if self.matrix[i][i] != i + 1:
                raise ValueError(
                    f"diagonal cell ({i}, {i}) must hold label {i + 1}"
                )
        object.__setattr__(self, "boxes", tuple(map(boxes.get, range(1, n + 1))))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def interior_edges(self) -> tuple[Edge, ...]:
        """Every interior wall piece, ordered by the labels it separates.

        Each piece has a rectangle a on its left or above it, and the
        rectangle b on its other side lies just right of a's box or just
        below it; :meth:`find_edge` draws the piece between the two.
        Pieces come in the order of their pairs (a, b), which are their
        ``labels``; a < b in a canonical drawing.

        >>> g = rho((3, 1, 2))
        >>> [g.edge_id(e) for e in g.interior_edges()]
        ['1|2:v', '1|3:h', '2|3:h']
        >>> [e.labels for e in g.interior_edges()]
        [(1, 2), (1, 3), (2, 3)]
        """
        m, n, pairs = self.matrix, self.n, []
        for a, (top, left, bottom, right) in enumerate(self.boxes, 1):
            others = set()
            if right + 1 < n:
                others.update(row[right + 1] for row in m[top : bottom + 1])
            if bottom + 1 < n:
                others.update(m[bottom + 1][left : right + 1])
            pairs.extend((a, b) for b in others)
        return tuple(self.find_edge(a, b) for a, b in sorted(pairs))

    def find_edge(self, a: int, b: int) -> Edge:
        """The unique interior edge separating rectangles a and b.

        It is the overlap of the two boxes' sides on the line where one
        ends and the other starts; no vertex lies inside that overlap.
        An end is matched when the line is a wall one step past it, and
        the edge's labels put the rectangle above or on the left first.
        """
        m, n = self.matrix, self.n
        for p, q in ((a, b), (b, a)) if 0 < a <= n and 0 < b <= n else ():
            x, y = self.boxes[p - 1], self.boxes[q - 1]
            if x.bottom + 1 == y.top:
                orient, line = "h", y.top
                lo, hi = max(x.left, y.left), min(x.right, y.right) + 1
                walled = lambda t: m[line - 1][t] != m[line][t]
            elif x.right + 1 == y.left:
                orient, line = "v", y.left
                lo, hi = max(x.top, y.top), min(x.bottom, y.bottom) + 1
                walled = lambda t: m[t][line - 1] != m[t][line]
            else:
                continue
            if lo < hi:
                matched = (lo > 0 and walled(lo - 1), hi < n and walled(hi))
                return Edge(orient, line, lo, hi, *matched, (p, q))
        raise ValueError(f"rectangles {a} and {b} share no wall")

    def edge_id(self, edge: Edge) -> str:
        a, b = edge.labels
        assert a < b
        return f"{a}|{b}:{edge.orient}"

    def __str__(self) -> str:
        width = len(str(self.n))
        return "\n".join(
            " ".join(str(lab).rjust(width) for lab in row) for row in self.matrix
        )


def rho(word: Word) -> GridRectangulation:
    """The diagonal rectangulation of word, drawn rectangle by rectangle.

    Rectangle j covers the diagonal cell (j-1, j-1) and stretches over
    runs of neighbouring values: left over the run j-1, j-2, ... placed
    after j in word, down over the run j+1, j+2, ... placed after j, up
    over the run j-1, j-2, ... placed before j and right over the run
    j+1, j+2, ... placed before j.  The runs placed after j are the two
    subtrees of j when word is inserted into a binary search tree, the
    lower of the twin trees; the runs placed before j are its subtrees
    for the reversed word, the upper tree.  Distinct words can draw the
    same grid; see :mod:`rectflip.bijection` for the fibers.

    The boxes are checked before they are drawn (:func:`_check_tiling`),
    and the grid takes them as they are.

    >>> print(rho((3, 1, 2)))
    1 2 2
    1 2 2
    3 3 3
    """
    check_word(word)
    n = len(word)
    if not n:
        raise ValueError("rho needs a non-empty word")
    boxes = _run_boxes(word)
    _check_tiling(word, boxes)
    return GridRectangulation._of_checked_boxes(
        _paint(boxes), tuple(map(Rect._make, boxes))
    )


def _paint(boxes) -> Matrix:
    # The n-by-n matrix of n boxes in label order, each painted over those before.
    n = len(boxes)
    grid = [[0] * n for _ in range(n)]
    for j, (top, left, bottom, right) in enumerate(boxes, 1):
        fill = [j] * (right - left + 1)
        for row in grid[top : bottom + 1]:
            row[left : right + 1] = fill
    return freeze_matrix(grid)


def _check_tiling(word: Word, boxes: list[tuple[int, int, int, int]]) -> None:
    # Raise unless the boxes rho draws for word, in label order, lie in
    # the square, claim no cell of a row twice (a column bit mask per
    # row) and have areas summing to n * n, so that they tile it, and box
    # i holds diagonal cell (i-1, i-1).
    n = len(word)
    rows, area = [0] * n, 0
    for j, (top, left, bottom, right) in enumerate(boxes, 1):
        if not (0 <= top <= bottom < n and 0 <= left <= right < n):
            raise ValueError(f"box {j} of rho({word}) leaves the square")
        cols = (2 << right) - (1 << left)
        for r in range(top, bottom + 1):
            if rows[r] & cols:
                raise ValueError(f"box {j} of rho({word}) writes a cell twice")
            rows[r] |= cols
        area += (right - left + 1) * (bottom - top + 1)
    if area != n * n:
        raise ValueError(f"the boxes of rho({word}) cover {area} of {n * n} cells")
    for i, (top, left, bottom, right) in enumerate(boxes):
        if not (top <= i <= bottom and left <= i <= right):
            lab = next(
                j
                for j, (t, l, b, r) in enumerate(boxes, 1)
                if t <= i <= b and l <= i <= r
            )
            raise ValueError(
                f"rho({word}) puts label {lab} on diagonal cell ({i}, {i})"
            )


def _run_boxes(word: Word) -> list[tuple[int, int, int, int]]:
    # The box rho draws for each value of word, in value order, as each
    # value is placed.
    n = len(word)
    boxes = [None] * n
    placed = 0
    for v in word:
        boxes[v - 1] = _run_box(v - 1, placed, n)
        placed |= 1 << v - 1
    return boxes


def _run_box(d: int, placed: int, n: int) -> tuple[int, int, int, int]:
    # The box rho draws for value d + 1 when bit i of placed is set for
    # each value i + 1 placed before it.  The values placed after it are
    # the unplaced ones, so each run from diagonal index d ends at the
    # nearest index whose placed bit differs from that of its first step
    # (see notes/decisions.md, "A box is fixed when its value is placed").
    low = (1 << d) - 1
    below = placed & low
    if d and not below >> (d - 1):
        # the run down from d is unplaced and stretches the box left
        top, left = d, below.bit_length()
    else:
        top, left = (low ^ below).bit_length(), d
    # Bit t of above is index d + 1 + t, and each run up stops at the
    # border too: bit n - d - 1 is clear in above and set in ~above.
    above = placed >> (d + 1)
    if above & 1:
        stops = ~above
        bottom, right = d, d + (stops & -stops).bit_length() - 1
    else:
        # the run up from d is unplaced and stretches the box down
        stops = above | 1 << (n - d - 1)
        bottom, right = d + (stops & -stops).bit_length() - 1, d
    return top, left, bottom, right


def peel_predecessors(boxes: list[tuple[int, int, int, int]]) -> list[int]:
    """The rectangles that must be peeled off before each one, as bit masks.

    ``boxes`` holds each rectangle's box in label order, and entry i is
    the mask of label i + 1, with bit j set for label j + 1.  Rectangles
    are peeled off the drawing from the top down, and a rectangle may go
    once the boxes ending on the row above it that meet its columns are
    gone, and the one starting right of it that holds its bottom row
    (notes/decisions.md, "Peeling reads boxes").  Every order that
    respects these masks peels the whole drawing, and read backwards it
    is an insertion order that draws the grid.

    >>> peel_predecessors([(0, 0, 1, 0), (0, 1, 1, 2), (2, 0, 2, 2)])
    [2, 0, 3]
    """
    ending: dict[int, list] = {}  # (left, right, bit) of each box by bottom row
    starting: dict[int, list] = {}  # (top, bottom, bit) of each box by left column
    for i, (top, left, bottom, right) in enumerate(boxes):
        ending.setdefault(bottom, []).append((left, right, 1 << i))
        starting.setdefault(left, []).append((top, bottom, 1 << i))
    masks = []
    for top, left, bottom, right in boxes:
        mask = 0
        for lo, hi, bit in ending.get(top - 1, ()):
            if lo <= right and left <= hi:
                mask |= bit
        for lo, hi, bit in starting.get(right + 1, ()):
            if lo <= bottom <= hi:
                mask |= bit
        masks.append(mask)
    return masks


def extraction_word(grid: GridRectangulation, rule: str = "leftmost") -> Word:
    """Peel rectangles off the top of the drawing; return them in drawing order.

    Rectangles are peeled off ``grid.boxes`` from the top down, each once
    its :func:`peel_predecessors` are gone, as the reverse of drawing
    them one by one against a rising staircase, so the result is a
    member of the fiber of the grid.  ``rule`` names the forward drawing
    order it realizes: "leftmost" draws the rectangle nearest the start
    of the diagonal first whenever there is a choice, "rightmost" the
    furthest.  Peeling runs backwards, so the preference flips: the
    leftmost drawing order is produced by always peeling the rightmost
    free rectangle, and vice versa.  The free rectangles occupy pairwise
    disjoint column ranges, each holding its own diagonal cell, so label
    order is positional order.
    """
    if rule not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown extraction rule: {rule}")
    return _peel(peel_predecessors(grid.boxes), rule)


def _peel(preds: list[int], rule: str) -> Word:
    # extraction_word(grid, rule), given peel_predecessors(grid.boxes).
    n = len(preds)
    # Each step peels the first free label of this preference order and
    # writes it from the end of the word.  "leftmost" scans the labels
    # still drawn from the top bit down, "rightmost" from the bottom up.
    high = rule == "leftmost"
    drawn = (1 << n) - 1  # bit i set while label i + 1 is still drawn
    word = [0] * n
    for k in range(n - 1, -1, -1):
        rest = drawn
        while rest:
            i = (rest if high else rest & -rest).bit_length() - 1
            if not preds[i] & drawn:
                break
            rest ^= 1 << i
        else:
            raise AssertionError("no rectangle is free to peel")
        drawn ^= 1 << i
        word[k] = i + 1
    return tuple(word)


def corner_deletion_word(boxes: dict[int, Rect]) -> tuple[int, ...]:
    """Labels of the tiling by ``boxes`` in bottom-left corner deletion order.

    ``boxes`` maps labels to boxes that tile a grid of any shape.  The
    corner box spans rows t to the last and columns 0 to rr.  The boxes
    with left rr + 1 and top >= t slide left over it if it stops short of
    the right side and no box ending on row t - 1 ends at column rr;
    otherwise those with bottom t - 1 and right <= rr slide down
    (notes/decisions.md, "Corner deletion reads boxes").  Raises
    ValueError where neither slide applies.
    """
    last = max(box.bottom for box in boxes.values())
    width = max(box.right for box in boxes.values()) + 1
    # Labels by current left column and bottom row; tops and rights never
    # change, and the left column and last row are never looked up.
    by_left: dict[int, set[int]] = {}
    by_bottom: dict[int, set[int]] = {}
    for lab, (_, left, bottom, _) in boxes.items():
        by_left.setdefault(left, set()).add(lab)
        by_bottom.setdefault(bottom, set()).add(lab)
    corner = next(k for k in by_left[0] if boxes[k].bottom == last)
    order = []
    while len(order) + 1 < len(boxes):
        t, _, _, rr = boxes[corner]
        above, beside = by_bottom.get(t - 1, ()), by_left.get(rr + 1, ())
        right_ok = rr + 1 < width and all(boxes[k].right != rr for k in above)
        top_ok = t > 0 and all(boxes[k].top != t for k in beside)
        if right_ok == top_ok:
            raise ValueError(f"four rectangles meet at corner point ({t}, {rr + 1})")
        order.append(corner)
        if right_ok:
            movers = [k for k in beside if boxes[k].top >= t]
            beside.difference_update(movers)
            corner = max(movers, key=lambda k: boxes[k].top)
        else:
            movers = [k for k in above if boxes[k].right <= rr]
            above.difference_update(movers)
            corner = min(movers, key=lambda k: boxes[k].right)
    order.append(corner)
    return tuple(order)


def block_deletion_word(matrix: Matrix) -> tuple[int, ...]:
    """Labels of a drawing in bottom-left corner deletion order.

    The rectangle deleted first is the one inserted first, so on a
    canonical grid this reads out a member of the fiber directly: the
    Baxter member, which the test suite pins against the fiber's one
    Baxter avoider.  The word is also a complete invariant of the
    drawing's equivalence class under wall slides.  On the row-reflected
    drawing it deletes top-left corners, which lists a canonical grid or
    any flippable recut as 1..n (notes/decisions.md, "A recut keeps its
    labels' diagonal order").  It raises ValueError on ragged rows, on a
    label that fills no rectangle and where four rectangles meet.
    """
    return corner_deletion_word(bounding_boxes(matrix))


def canonicalize(matrix) -> tuple[GridRectangulation, dict[int, int]]:
    """Canonical drawing of an arbitrarily drawn, arbitrarily labelled input.

    Returns the canonical grid together with the map from input labels
    to canonical labels.  Raises :class:`ValueError` when the input is
    ragged or some label does not fill a rectangle, and its subclass
    :class:`NotDiagonalError` when the rectangulation is not diagonal.
    Deleting top-left corners ranks the labels by their place on the
    diagonal, and the ranked bottom-left deletion word draws the grid.
    Flips skip the ranking: a recut's labels are their own ranks.
    """
    matrix = freeze_matrix(matrix)
    bounding_boxes(matrix)
    violation = diagonal_obstruction(matrix)
    if violation is not None:
        raise NotDiagonalError(violation)
    ranked = block_deletion_word(reflect_rows(matrix))
    rank = {lab: i for i, lab in enumerate(ranked, 1)}
    return rho(tuple(rank[lab] for lab in block_deletion_word(matrix))), rank


def reflect_rows(matrix: Matrix) -> Matrix:
    """Mirror the drawing across its horizontal midline."""
    return freeze_matrix(reversed(matrix))
