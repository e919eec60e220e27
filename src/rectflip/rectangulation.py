"""Diagonal rectangulations drawn on an n-by-n grid of unit cells.

A rectangulation of the square is stored as a label matrix: cell (r, c)
holds the label of the rectangle covering it, row 0 at the top.  The
canonical drawing used throughout places rectangle i on the main
diagonal cell (i-1, i-1), so ``matrix[i][i] == i + 1`` with 0-based
indices.  Every permutation of 1..n maps to such a drawing by the
staircase insertion of :func:`from_permutation`, and every drawing of a
rectangulation whose walls do not obstruct the diagonal maps back by
:func:`canonicalize`.

Lattice points are (row, col) corners of cells, so both coordinates run
from 0 to n inclusive.  The main diagonal runs from lattice point (0, 0)
to (n, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

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


def bounding_boxes(matrix: Matrix) -> dict[int, Rect]:
    """Box of each label, checking that every label fills its box exactly."""
    boxes: dict[int, list[int]] = {}
    for r, row in enumerate(matrix):
        for c, lab in enumerate(row):
            box = boxes.get(lab)
            if box is None:
                boxes[lab] = [r, c, r, c]
            else:
                box[0] = min(box[0], r)
                box[1] = min(box[1], c)
                box[2] = max(box[2], r)
                box[3] = max(box[3], c)
    out = {}
    for lab, (t, l, b, rr) in boxes.items():
        for r in range(t, b + 1):
            for c in range(l, rr + 1):
                if matrix[r][c] != lab:
                    raise ValueError(f"label {lab} does not fill a rectangle")
        out[lab] = Rect(t, l, b, rr)
    return out


@dataclass(frozen=True)
class Vertex:
    point: tuple[int, int]
    kind: str  # "corner", "stem_left", "stem_right", "stem_up", "stem_down", "four_way"
    dirs: frozenset[str]


@dataclass(frozen=True)
class Segment:
    """Maximal straight wall.  For "h" the line is a row, for "v" a column."""

    orient: str
    line: int
    start: int
    end: int


@dataclass(frozen=True)
class Edge:
    """Wall piece between two consecutive vertices of a segment.

    ``start`` and ``end`` are lattice coordinates along the line: columns
    for a horizontal edge in row ``line``, rows for a vertical edge in
    column ``line``.  An endpoint is matched when the segment carrying
    the edge continues straight past it.
    """

    orient: str
    line: int
    start: int
    end: int
    matched_start: bool
    matched_end: bool

    @property
    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        if self.orient == "h":
            return (self.line, self.start), (self.line, self.end)
        return (self.start, self.line), (self.end, self.line)

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
    vertices: dict[tuple[int, int], Vertex]
    segments: tuple[Segment, ...]
    edges: tuple[Edge, ...]


def geometry(matrix: Matrix) -> Geometry:
    """Vertices, maximal segments, and edges of the wall structure."""
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

    vertices: dict[tuple[int, int], Vertex] = {}
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
            vertices[r, c] = Vertex((r, c), kind, found)

    segments: list[Segment] = []
    edges: list[Edge] = []

    def sweep(orient: str, line: int, length: int, present) -> None:
        c = 0
        while c < length:
            if not present(c):
                c += 1
                continue
            start = c
            while c < length and present(c):
                c += 1
            segments.append(Segment(orient, line, start, c))
            if orient == "h":
                stops = [t for t in range(start, c + 1) if (line, t) in vertices]
            else:
                stops = [t for t in range(start, c + 1) if (t, line) in vertices]
            assert stops[0] == start and stops[-1] == c
            for lo, hi in zip(stops, stops[1:]):
                edges.append(
                    Edge(
                        orient,
                        line,
                        lo,
                        hi,
                        matched_start=lo > start,
                        matched_end=hi < c,
                    )
                )

    for r in range(nrows + 1):
        sweep("h", r, ncols, lambda c, r=r: hwall(r, c))
    for c in range(ncols + 1):
        sweep("v", c, nrows, lambda r, c=c: vwall(r, c))

    return Geometry(vertices, tuple(segments), tuple(edges))


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
    for point, vertex in geo.vertices.items():
        if vertex.kind == "four_way":
            return DiagonalObstruction("four_way", point)
    for seg in geo.segments:
        if seg.orient == "v":
            bad_kind, trigger_kind, reason = "stem_left", "stem_right", "vertical"
        else:
            bad_kind, trigger_kind, reason = "stem_up", "stem_down", "horizontal"
        armed: tuple[int, int] | None = None
        for t in range(seg.start, seg.end + 1):
            point = (t, seg.line) if seg.orient == "v" else (seg.line, t)
            vertex = geo.vertices.get(point)
            if vertex is None:
                continue
            if vertex.kind == trigger_kind and armed is None:
                armed = point
            elif vertex.kind == bad_kind and armed is not None:
                return DiagonalObstruction(reason, point)
    return None


@dataclass(frozen=True)
class GridRectangulation:
    """Canonical drawing of a diagonal rectangulation.

    Rectangle i covers the diagonal cell (i-1, i-1); labels are exactly
    1..n for an n-by-n matrix.
    """

    matrix: Matrix
    rects: dict[int, Rect] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        for r in range(1, n):
            for c in range(1, n):
                quad = {
                    self.matrix[r - 1][c - 1],
                    self.matrix[r - 1][c],
                    self.matrix[r][c - 1],
                    self.matrix[r][c],
                }
                if len(quad) == 4:
                    raise ValueError(f"four rectangles meet at ({r}, {c})")
        object.__setattr__(self, "rects", boxes)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @cached_property
    def geometry(self) -> Geometry:
        return geometry(self.matrix)

    def interior_edges(self) -> tuple[Edge, ...]:
        return tuple(
            e for e in self.geometry.edges if 0 < e.line < self.n
        )

    def edge_labels(self, edge: Edge) -> tuple[int, int]:
        """The two rectangles an interior edge separates.

        For a horizontal edge the pair is (above, below); for a vertical
        edge it is (left, right).
        """
        assert 0 < edge.line < self.n
        if edge.orient == "h":
            return (
                self.matrix[edge.line - 1][edge.start],
                self.matrix[edge.line][edge.start],
            )
        return (
            self.matrix[edge.start][edge.line - 1],
            self.matrix[edge.start][edge.line],
        )

    def find_edge(self, a: int, b: int) -> Edge:
        """The unique interior edge separating rectangles a and b.

        It is the overlap of the two boxes' sides on the line where one
        ends and the other starts; no vertex lies inside that overlap.
        An end is matched when the line is a wall one step past it.
        """
        m, box_a, box_b = self.matrix, self.rects.get(a), self.rects.get(b)
        for x, y in ((box_a, box_b), (box_b, box_a)) if box_a and box_b else ():
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
                matched = (lo > 0 and walled(lo - 1), hi < self.n and walled(hi))
                return Edge(orient, line, lo, hi, *matched)
        raise ValueError(f"rectangles {a} and {b} share no wall")

    def edge_id(self, edge: Edge) -> str:
        a, b = self.edge_labels(edge)
        assert a < b
        return f"{a}|{b}:{edge.orient}"

    def __str__(self) -> str:
        width = len(str(self.n))
        return "\n".join(
            " ".join(str(lab).rjust(width) for lab in row) for row in self.matrix
        )


def rho(word: Word) -> GridRectangulation:
    """Staircase insertion of the values of word, in word order.

    Rectangles are laid down against a non-increasing staircase that
    starts as the full square.  Value j lands with its upper-left corner
    on the staircase at the diagonal cell (j-1, j-1) when the staircase
    passes through it, pushing the boundary upward.  Distinct words can
    draw the same grid; see :mod:`rectflip.bijection` for the fibers.

    >>> print(rho((3, 1, 2)))
    1 2 2
    1 2 2
    3 3 3
    """
    check_word(word)
    n = len(word)
    # heights[c] = current staircase height over column c, measured as a
    # lattice row; the region still to fill is {(r, c) : r >= heights[c]}
    # read per column.  Non-increasing insertion keeps it sorted.
    heights = [n] * n
    grid = [[0] * n for _ in range(n)]
    for j in word:
        d = j - 1
        lo = heights[d - 1] if d >= 1 else 0
        hi = heights[d] if d <= n - 1 else n
        if lo <= d <= hi:
            ulx, uly = d, lo
        else:
            # staircase already passed above the diagonal cell; slide
            # right along the run at height d, or to the first taller
            # column when no column sits at height d
            assert d < lo
            at_level = [c for c in range(n) if heights[c] == d]
            if at_level:
                ulx = at_level[-1] + 1
            else:
                ulx = min(c for c in range(n) if heights[c] > d)
            uly = d
        hi_right = heights[j] if j <= n - 1 else n
        if heights[j - 1] <= j <= hi_right:
            lrx = next((c for c in range(n) if heights[c] > j), n)
            lry = j
        else:
            assert heights[j - 1] > j
            lrx, lry = j, heights[j - 1]
        assert ulx < lrx and uly < lry
        for c in range(ulx, lrx):
            assert heights[c] == lry
            heights[c] = uly
        for r in range(uly, lry):
            for c in range(ulx, lrx):
                assert grid[r][c] == 0
                grid[r][c] = j
    assert heights == [0] * n
    return GridRectangulation(freeze_matrix(grid))


def rho_prime(word: Word) -> Matrix:
    """The insertion map composed with a reflection across the horizontal axis.

    The result is drawn against the bottom-left-to-top-right diagonal:
    the rectangle labelled i covers the anti-diagonal cell (n-1-(i-1), i-1).
    Returned as a plain matrix because it deliberately breaks the
    main-diagonal labelling convention of :class:`GridRectangulation`.
    """
    matrix = reflect_rows(rho(word).matrix)
    n = len(word)
    assert all(matrix[n - 1 - i][i] == i + 1 for i in range(n))
    return matrix


def _removable(box: Rect, heights: Sequence[int], ncols: int) -> bool:
    # A rectangle peels off the top staircase when the staircase lies
    # exactly on its top edge and does not re-descend at its right side.
    # One already peeled off fails: the staircase has moved below its top.
    if any(heights[c] != box.top for c in range(box.left, box.right + 1)):
        return False
    return box.right == ncols - 1 or heights[box.right + 1] >= box.bottom + 1


def extraction_word(matrix: Matrix, rule: str = "leftmost"):
    """Undraw rectangles from the top staircase; return them in drawing order.

    ``rule`` names the forward drawing order it realizes: "leftmost"
    draws the rectangle nearest the start of the diagonal first whenever
    there is a choice, "rightmost" the furthest.  Undrawing runs
    backwards, so the preference flips: the leftmost drawing order is
    produced by always undrawing the rightmost removable rectangle, and
    vice versa.  At each step the removable rectangles occupy pairwise
    disjoint column ranges, so positional and label order agree.
    """
    if rule not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown extraction rule: {rule}")
    boxes = bounding_boxes(matrix)
    nrows = len(matrix)
    ncols = len(matrix[0])
    heights = [0] * ncols
    removed = []
    remaining = dict(boxes)
    while remaining:
        candidates = [
            (box.left, lab)
            for lab, box in remaining.items()
            if _removable(box, heights, ncols)
        ]
        assert candidates
        _, lab = max(candidates) if rule == "leftmost" else min(candidates)
        box = remaining.pop(lab)
        for c in range(box.left, box.right + 1):
            heights[c] = box.bottom + 1
        removed.append(lab)
    assert heights == [nrows] * ncols
    return tuple(reversed(removed))


def staircase_extraction(grid: GridRectangulation, rule: str = "leftmost") -> Word:
    return extraction_word(grid.matrix, rule)


def _top_left_deletion_ranks(matrix: Matrix) -> dict[int, int]:
    # Repeatedly delete the rectangle at the top-left corner, letting its
    # right neighbours or its lower neighbours absorb the freed space.
    # The deletion order ranks the labels; on a canonical drawing the
    # rank of label i is i itself.
    work = [list(row) for row in matrix]
    nrows, ncols = len(work), len(work[0])
    rank: dict[int, int] = {}
    while True:
        lab = work[0][0]
        if all(v == lab for row in work for v in row):
            rank[lab] = len(rank) + 1
            return rank
        b = max(r for r in range(nrows) if work[r][0] == lab)
        rr = max(c for c in range(ncols) if work[0][c] == lab)
        bottom_ok = b + 1 < nrows and (
            rr + 1 == ncols or work[b][rr + 1] == work[b + 1][rr + 1]
        )
        right_ok = rr + 1 < ncols and (
            b + 1 == nrows or work[b + 1][rr] == work[b + 1][rr + 1]
        )
        # exactly one absorption direction keeps all parts rectangles;
        # both failing would force four rectangles around one point
        assert bottom_ok != right_ok
        rank[lab] = len(rank) + 1
        if bottom_ok:
            for c in range(rr + 1):
                v = work[b + 1][c]
                for r in range(b + 1):
                    work[r][c] = v
        else:
            for r in range(b + 1):
                v = work[r][rr + 1]
                for c in range(rr + 1):
                    work[r][c] = v


def canonicalize(matrix) -> tuple[GridRectangulation, dict[int, int]]:
    """Canonical drawing of an arbitrarily drawn, arbitrarily labelled input.

    Returns the canonical grid together with the map from input labels
    to canonical labels.  Raises :class:`NotDiagonalError` when the
    input is not a diagonal rectangulation.
    """
    matrix = freeze_matrix(matrix)
    violation = diagonal_obstruction(matrix)
    if violation is not None:
        raise NotDiagonalError(violation)
    return _canonical_form(matrix)


def _canonical_form(matrix: Matrix) -> tuple[GridRectangulation, dict[int, int]]:
    # The body of canonicalize, for a matrix that its caller has already
    # found free of diagonal obstructions.
    rank = _top_left_deletion_ranks(matrix)
    raw_word = extraction_word(matrix, "leftmost")
    sigma = tuple(rank[lab] for lab in raw_word)
    check_word(sigma)
    return rho(sigma), rank


def reflect_rows(matrix: Matrix) -> Matrix:
    """Mirror the drawing across its horizontal midline."""
    return freeze_matrix(reversed(matrix))


def relabel(matrix: Matrix, mapping: dict[int, int]) -> Matrix:
    return freeze_matrix(tuple(mapping[v] for v in row) for row in matrix)


@dataclass(frozen=True)
class TwinTrees:
    """Parent maps of the two trees a drawing carries along its diagonal.

    ``lower`` is the tree below the diagonal, rooted at the rectangle on
    the bottom-left cell and drawn root-first; ``upper`` is the tree
    above, rooted at the rectangle on the top-right cell and drawn
    root-last.  Their common linear extensions are exactly the insertion
    orders that reproduce the drawing.
    """

    lower: dict[int, int | None]
    upper: dict[int, int | None]

    def admits(self, word: Word) -> bool:
        position = {v: i for i, v in enumerate(word)}
        for v, parent in self.lower.items():
            if parent is not None and position[parent] > position[v]:
                return False
        for v, parent in self.upper.items():
            if parent is not None and position[parent] < position[v]:
                return False
        return True


def twin_trees(grid: GridRectangulation) -> TwinTrees:
    """Read both trees off the rectangle corners.

    Each rectangle hangs from a neighbour at its bottom-left corner
    (lower tree) and from a neighbour at its top-right corner (upper
    tree); the corner's third rectangle decides which neighbour is the
    parent.
    """
    matrix = grid.matrix
    n = grid.n
    lower: dict[int, int | None] = {}
    upper: dict[int, int | None] = {}
    for lab, box in grid.rects.items():
        t, l, b, rr = box
        # lower parent, read off the bottom-left corner
        if b == n - 1 and l == 0:
            lower[lab] = None
        elif l == 0:
            lower[lab] = matrix[b + 1][l]
        elif b == n - 1:
            lower[lab] = matrix[b][l - 1]
        else:
            side = matrix[b][l - 1]
            below = matrix[b + 1][l]
            corner = matrix[b + 1][l - 1]
            lower[lab] = side if corner == below else below
        # upper parent, read off the top-right corner
        if t == 0 and rr == n - 1:
            upper[lab] = None
        elif t == 0:
            upper[lab] = matrix[t][rr + 1]
        elif rr == n - 1:
            upper[lab] = matrix[t - 1][rr]
        else:
            side = matrix[t][rr + 1]
            above = matrix[t - 1][rr]
            corner = matrix[t - 1][rr + 1]
            upper[lab] = side if corner == above else above
    assert sum(1 for p in lower.values() if p is None) == 1
    assert sum(1 for p in upper.values() if p is None) == 1
    return TwinTrees(lower, upper)
