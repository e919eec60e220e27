"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: brute-force scans and wholesale
enumeration, no sharing with the library's algorithms beyond the data
types themselves.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict, deque
from dataclasses import dataclass

import rectflip as rf

Word = tuple[int, ...]


def _is_occurrence(word: Word, positions, pattern: Word, glued: frozenset[int]) -> bool:
    # Glued gap g joins pattern positions g and g + 1 (1-based).
    for g in glued:
        if positions[g - 1] + 1 != positions[g]:
            return False
    # Standardised to 1..k, the values must spell the pattern: the value
    # under pattern letter q is the q-th smallest.
    values = [word[p] for p in positions]
    ranked = sorted(values)
    return all(ranked[q - 1] == v for q, v in zip(pattern, values))


def brute_contains(word: Word, pattern: Word, glued: frozenset[int]) -> bool:
    """Scan every index subsequence for an order-isomorphic occurrence."""
    return any(
        _is_occurrence(word, positions, pattern, glued)
        for positions in itertools.combinations(range(len(word)), len(pattern))
    )


def brute_ends_at(word: Word, end: int, pattern: Word, glued: frozenset[int]) -> bool:
    """brute_contains restricted to index subsequences whose last index is end."""
    return any(
        _is_occurrence(word, (*head, end), pattern, glued)
        for head in itertools.combinations(range(end), len(pattern) - 1)
    )


def filter_avoiders(n: int, patterns) -> list[Word]:
    """The filter: every permutation of 1..n, in lexicographic order, in
    which brute_contains finds none of the patterns."""
    return [
        word
        for word in itertools.permutations(range(1, n + 1))
        if not any(brute_contains(word, p.word, p.glued) for p in patterns)
    ]


def minmax_bounding_boxes(matrix) -> dict:
    """Box of each label from per-cell min/max updates, then a re-read of
    every cell of every box; raises ValueError naming the first label, in
    order of first appearance, that does not fill its box."""
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
        out[lab] = rf.Rect(t, l, b, rr)
    return out


def staircase_rho(word: Word) -> tuple:
    """The drawing of word by staircase insertion, as a frozen matrix.

    Rectangles are laid down in word order against a non-increasing
    staircase that starts as the full square.  Value j lands with its
    upper-left corner on the staircase at the diagonal cell (j-1, j-1)
    when the staircase passes through it, pushing the boundary upward.
    """
    n = len(word)
    assert n > 0 and sorted(word) == list(range(1, n + 1))
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
    return tuple(map(tuple, grid))


def scan_run_boxes(word: Word) -> list:
    """The box rho draws for each value of word, in value order, by
    walking each run of neighbouring values from the value's diagonal
    index until a value lies on the other side of it in word.

    The run down from index d lies wholly after d in word or wholly
    before it, so it stretches d's box left or up and the diagonal cell
    bounds the other side; the run up from d stretches it down or right
    alike.
    """
    n = len(word)
    pos = [0] * n
    for i, v in enumerate(word):
        pos[v - 1] = i
    boxes = []
    for d, p in enumerate(pos):
        lo = hi = d
        down_after = d > 0 and pos[d - 1] > p
        while lo > 0 and (pos[lo - 1] > p) == down_after:
            lo -= 1
        up_after = d < n - 1 and pos[d + 1] > p
        while hi < n - 1 and (pos[hi + 1] > p) == up_after:
            hi += 1
        top, left = (d, lo) if down_after else (lo, d)
        bottom, right = (hi, d) if up_after else (d, hi)
        boxes.append(rf.Rect(top, left, bottom, right))
    return boxes


def _removable(box, heights, ncols: int) -> bool:
    # A rectangle peels off the top staircase when the staircase lies
    # exactly on its top edge and does not re-descend at its right side.
    # One already peeled off fails: the staircase has moved below its top.
    if any(heights[c] != box.top for c in range(box.left, box.right + 1)):
        return False
    return box.right == ncols - 1 or heights[box.right + 1] >= box.bottom + 1


def _lowered(heights: tuple, box) -> tuple:
    out = list(heights)
    for c in range(box.left, box.right + 1):
        out[c] = box.bottom + 1
    return tuple(out)


def staircase_extraction_word(grid, rule: str = "leftmost") -> Word:
    """Undraw rectangles from a staircase of column heights, rescanning
    every remaining box with _removable at each step.  For the
    "leftmost" rule the removable one with the largest (left, label) is
    undrawn, for "rightmost" the smallest; returns them in drawing order."""
    n = grid.n
    heights = (0,) * n
    removed = []
    remaining = dict(enumerate(grid.boxes, 1))
    while remaining:
        candidates = [
            (box.left, lab)
            for lab, box in remaining.items()
            if _removable(box, heights, n)
        ]
        assert candidates
        _, lab = max(candidates) if rule == "leftmost" else min(candidates)
        heights = _lowered(heights, remaining.pop(lab))
        removed.append(lab)
    assert heights == (n,) * n
    return tuple(reversed(removed))


def matrix_peel_predecessors(grid) -> list[int]:
    """peel_predecessors read off the label matrix: the labels in the
    cells just above each rectangle's top side and the label in the cell
    right of its bottom-right cell, as bit masks in label order."""
    matrix, n = grid.matrix, grid.n
    masks = []
    for top, left, bottom, right in grid.boxes:
        mask = 0
        if top:
            for above in matrix[top - 1][left : right + 1]:
                mask |= 1 << above - 1
        if right + 1 < n:
            mask |= 1 << matrix[bottom][right + 1] - 1
        masks.append(mask)
    return masks


def staircase_fiber(grid) -> frozenset[Word]:
    """Every drawing order of the grid, by depth-first search over every
    _removable choice against a staircase of column heights, memoized on
    the heights."""
    n = grid.n
    memo: dict[tuple, tuple] = {}

    def removal_suffixes(heights: tuple) -> tuple:
        if heights == (n,) * n:
            return ((),)
        if heights not in memo:
            memo[heights] = tuple(
                (lab,) + tail
                for lab, box in enumerate(grid.boxes, 1)
                if _removable(box, heights, n)
                for tail in removal_suffixes(_lowered(heights, box))
            )
        return memo[heights]

    return frozenset(tuple(reversed(seq)) for seq in removal_suffixes((0,) * n))


def unique_class_member(grid, pclass) -> Word:
    """The one word of staircase_fiber in which brute_contains finds none
    of the class's patterns."""
    hits = [
        w
        for w in staircase_fiber(grid)
        if not any(brute_contains(w, p.word, p.glued) for p in pclass.patterns)
    ]
    assert len(hits) == 1, f"{pclass.name}: expected one avoider, got {len(hits)}"
    return hits[0]


def relabel(matrix, mapping: dict[int, int]) -> tuple:
    return tuple(tuple(mapping[v] for v in row) for row in matrix)


def antidiagonal_reading(matrix) -> tuple[int, ...]:
    """Cell labels along the anti-diagonal, bottom-left to top-right."""
    n = len(matrix)
    return tuple(matrix[n - 1 - i][i] for i in range(n))


def rho_prime(word: Word) -> tuple:
    """rho's drawing of word reflected across its horizontal midline:
    drawn against the bottom-left-to-top-right diagonal, the rectangle
    labelled i covers the anti-diagonal cell (n-1-(i-1), i-1)."""
    return tuple(reversed(rf.rho(word).matrix))


def slash_representative(grid) -> tuple:
    """The rectangulation redrawn against the bottom-left-to-top-right
    diagonal, as rho_prime(inverse(baxter_of(grid))).  The rectangle at
    anti-diagonal position m there corresponds to the rectangle
    baxter_of(grid)[m-1] here."""
    return rho_prime(inverse(rf.baxter_of(grid)))


def dumped_graph_json(fg) -> str:
    """graph_json's document built as a dict and written by
    json.dumps(indent=2)."""
    edges = [
        {
            "a": rf.format_permutation(a),
            "b": rf.format_permutation(b),
            "class": kind.value,
            "multiplicity": fg.edges[a, b][kind],
        }
        for a, b in sorted(fg.edges)
        for kind in sorted(fg.edges[a, b], key=lambda k: k.value)
    ]
    doc = {
        "n": fg.n,
        "nodes": [rf.format_permutation(w) for w in fg.nodes],
        "edges": edges,
    }
    return json.dumps(doc, indent=2) + "\n"


def bst_parents(seq) -> dict[int, int | None]:
    """Parent of each value when seq is inserted, in order, into a plain
    binary search tree; the first value is the root."""
    parents: dict[int, int | None] = {}
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    root = None
    for v in seq:
        parent, node = None, root
        while node is not None:
            parent = node
            node = left.get(node) if v < node else right.get(node)
        parents[v] = parent
        if parent is None:
            root = v
        elif v < parent:
            left[parent] = v
        else:
            right[parent] = v
    return parents


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


def twin_trees(grid) -> TwinTrees:
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
    for lab, box in enumerate(grid.boxes, 1):
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


def brute_fibers(n: int) -> dict[tuple, set[Word]]:
    """Group all of S_n by the drawing each word produces under staircase
    insertion."""
    groups: dict[tuple, set[Word]] = defaultdict(set)
    for word in itertools.permutations(range(1, n + 1)):
        groups[staircase_rho(word)].add(word)
    return dict(groups)


def swept_edges(matrix) -> list:
    """Every wall piece of a drawing, boundary pieces included, by a
    sweep of each lattice row and then each lattice column.

    Each maximal run of unit walls on a line is cut at every point that
    a perpendicular unit wall touches; a piece's end is matched when the
    run goes on past it.  A piece's labels are read from the cells on
    either side of its first unit, above or left first, with 0 for a
    cell outside the drawing.
    """
    nrows, ncols = len(matrix), len(matrix[0])

    def cell(r: int, c: int) -> int:
        return matrix[r][c] if 0 <= r < nrows and 0 <= c < ncols else 0

    def hwall(r: int, c: int) -> bool:
        # unit wall on lattice row r, spanning columns c..c+1
        return r == 0 or r == nrows or matrix[r - 1][c] != matrix[r][c]

    def vwall(r: int, c: int) -> bool:
        # unit wall on lattice column c, spanning rows r..r+1
        return c == 0 or c == ncols or matrix[r][c - 1] != matrix[r][c]

    edges = []

    def sweep(orient: str, line: int, length: int, present, crossed, beside) -> None:
        t = 0
        while t < length:
            if not present(t):
                t += 1
                continue
            start = t
            while t < length and present(t):
                t += 1
            stops = [start, *(u for u in range(start + 1, t) if crossed(u)), t]
            for lo, hi in zip(stops, stops[1:]):
                edges.append(
                    rf.Edge(orient, line, lo, hi, lo > start, hi < t, beside(lo))
                )

    for r in range(nrows + 1):
        sweep(
            "h", r, ncols, lambda c, r=r: hwall(r, c),
            lambda c, r=r: r > 0 and vwall(r - 1, c) or r < nrows and vwall(r, c),
            lambda c, r=r: (cell(r - 1, c), cell(r, c)),
        )
    for c in range(ncols + 1):
        sweep(
            "v", c, nrows, lambda r, c=c: vwall(r, c),
            lambda r, c=c: c > 0 and hwall(r, c - 1) or c < ncols and hwall(r, c),
            lambda r, c=c: (cell(r, c - 1), cell(r, c)),
        )
    return edges


def swept_interior_edges(grid) -> tuple:
    """The pieces of swept_edges off the border of the square."""
    return tuple(e for e in swept_edges(grid.matrix) if 0 < e.line < grid.n)


def find_edge_by_scan(edges, a: int, b: int):
    """The interior edge separating rectangles a and b, by testing the
    labels of every edge in edges, a grid's swept interior edges."""
    for e in edges:
        if set(e.labels) == {a, b}:
            return e
    raise ValueError(f"rectangles {a} and {b} share no wall")


def recut_cells(grid, edge, pivot):
    """Recut the two rectangles at edge along the line through pivot, by
    listing their cells: the matrix with the cells before the line given
    the edge's first label and the rest its second, or None when either
    part is empty or does not fill its bounding box."""
    a, b = edge.labels
    cells = [
        (r, c)
        for r, row in enumerate(grid.matrix)
        for c, lab in enumerate(row)
        if lab in (a, b)
    ]
    axis = 1 if edge.orient == "h" else 0
    parts = (
        [cell for cell in cells if cell[axis] < pivot],
        [cell for cell in cells if cell[axis] >= pivot],
    )
    work = [list(row) for row in grid.matrix]
    for lab, part in zip((a, b), parts):
        if not part:
            return None
        rows = [r for r, _ in part]
        cols = [c for _, c in part]
        if (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1) != len(part):
            return None
        for r, c in part:
            work[r][c] = lab
    return tuple(map(tuple, work))


def diagonal_tilings(n: int) -> set[tuple]:
    """Every tiling of the n-by-n grid by rectangles in which label i's
    rectangle holds the diagonal cell (i-1, i-1).

    Cells are filled in reading order: the first empty cell is the
    top-left corner of a new rectangle, which must hold exactly one
    diagonal cell and take its label.  Nothing else is required; in
    particular four rectangles may meet at a point if they can.
    """
    work = [[0] * n for _ in range(n)]
    out = set()

    def fill(k: int) -> None:
        while k < n * n and work[k // n][k % n]:
            k += 1
        if k == n * n:
            out.add(tuple(map(tuple, work)))
            return
        top, left = divmod(k, n)
        for bottom in range(top, n):
            for right in range(left, n):
                cells = [
                    (r, c) for r in range(top, bottom + 1) for c in range(left, right + 1)
                ]
                diagonal = [r for r, c in cells if r == c]
                if len(diagonal) != 1 or any(work[r][c] for r, c in cells):
                    continue
                for r, c in cells:
                    work[r][c] = diagonal[0] + 1
                fill(k + 1)
                for r, c in cells:
                    work[r][c] = 0

    fill(0)
    return out


def _top_left_deletion_ranks(matrix) -> dict[int, int]:
    """Labels ranked by repeatedly deleting the top-left rectangle.

    Its right neighbours or its lower neighbours absorb the freed space.
    On a canonical drawing the rank of label i is i itself.
    """
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


def delete_bottom_left(work: list[list[int]]) -> int:
    """Remove the rectangle at the bottom-left corner of a mutable copy of
    a drawing, in place, and return its label.

    Either its neighbours to the right slide left or its neighbours
    above slide down; exactly one of the two keeps every remaining part
    a rectangle.  Only label equality is consulted, so any drawing
    convention works.  This is the cell form of
    ``rectangulation.corner_deletion_word``, which slides boxes.
    """
    nrows, ncols = len(work), len(work[0])
    bottom = work[-1]
    lab = bottom[0]
    t = nrows - 1
    while t > 0 and work[t - 1][0] == lab:
        t -= 1
    rr = 0
    while rr + 1 < ncols and bottom[rr + 1] == lab:
        rr += 1
    if t == 0 and rr + 1 == ncols:
        raise ValueError("cannot delete the last rectangle")
    right_ok = rr + 1 < ncols and (t == 0 or work[t - 1][rr] == work[t - 1][rr + 1])
    top_ok = t > 0 and (rr + 1 == ncols or work[t - 1][rr + 1] == work[t][rr + 1])
    # neither sliding direction applying would put four rectangles
    # around the corner point; both applying would make the neighbour
    # L-shaped
    assert right_ok != top_ok
    if right_ok:
        for r in range(t, nrows):
            row = work[r]
            row[: rr + 1] = [row[rr + 1]] * (rr + 1)
    else:
        above = work[t - 1][: rr + 1]
        for r in range(t, nrows):
            work[r][: rr + 1] = above
    return lab


def cell_deletion_word(matrix) -> tuple[int, ...]:
    """Labels in bottom-left deletion order, sliding cells of a copy."""
    work = [list(row) for row in matrix]
    count = len({lab for row in work for lab in row})
    order = [delete_bottom_left(work) for _ in range(count - 1)]
    order.append(work[-1][0])
    return tuple(order)


def inversion_pairs(word: Word) -> frozenset[tuple[int, int]]:
    n = len(word)
    pos = {v: i for i, v in enumerate(word)}
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if pos[b] < pos[a]
    )


def inverse(word: Word) -> Word:
    """Inverse permutation: inverse(w)[w[i] - 1] == i + 1 for every 0-based i."""
    out = [0] * len(word)
    for pos, value in enumerate(word, start=1):
        out[value - 1] = pos
    return tuple(out)


def adjacent_position_swap(word: Word, j: int) -> Word:
    """Exchange the entries at positions j and j+1 (1-based)."""
    if not 1 <= j < len(word):
        raise ValueError(f"j must be in 1..{len(word) - 1}, got {j}")
    out = list(word)
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


def brute_weak_leq(lo: Word, hi: Word) -> bool:
    return inversion_pairs(lo) <= inversion_pairs(hi)


def weak_leq(lo: Word, hi: Word) -> bool:
    """Inversion-set inclusion, the weak (Bruhat) order, as one test on
    inversion masks."""
    if len(lo) != len(hi):
        raise ValueError(f"sizes differ: {len(lo)} vs {len(hi)}")
    return rf.inversion_mask(lo) & ~rf.inversion_mask(hi) == 0


def between(bitsets, size: int, lo_mask: int, hi_mask: int) -> int:
    """The weak-order interval [lo, hi] among ``size`` masks, as a bitset.

    ``bitsets`` is ``rectflip.order.pair_bitsets`` of the masks; the
    result is 0 when lo is not below hi.
    """
    if lo_mask >> len(bitsets):
        return 0
    found = (1 << size) - 1
    for p, bits in enumerate(bitsets):
        if lo_mask >> p & 1:
            found &= bits
        if not hi_mask >> p & 1:
            found &= ~bits
    return found


def is_drec_cover(p: Word, q: Word) -> bool:
    """Whether {p, q} is a cover pair of the Baxter restriction, either way up."""
    for w in (p, q):
        rf.permutation.check_word(w)
        if not rf.avoids_class(w, rf.BAXTER):
            raise ValueError(f"not a Baxter permutation: {w}")
    if len(p) != len(q):
        raise ValueError(f"sizes differ: {len(p)} vs {len(q)}")
    pairs = rf.drec_covers(len(p))
    return (p, q) in pairs or (q, p) in pairs


def brute_covers(words: list[Word]) -> set[tuple[Word, Word]]:
    """Transitive reduction of the weak order restricted to words."""
    out = set()
    for lo in words:
        for hi in words:
            if lo == hi or not brute_weak_leq(lo, hi):
                continue
            if any(
                mid != lo and mid != hi and brute_weak_leq(lo, mid) and brute_weak_leq(mid, hi)
                for mid in words
            ):
                continue
            out.add((lo, hi))
    return out


def pairwise_covers(words) -> set[tuple[Word, Word]]:
    """Cover pairs of the weak order induced on words, by comparing every
    pair of inversion sets.

    Candidates below each word are scanned in decreasing inversion
    count, keeping only those not below an already-kept candidate; the
    kept ones are the covers.
    """
    items = [(inversion_pairs(w), w) for w in words]
    covers: set[tuple[Word, Word]] = set()
    for hi_set, hi in items:
        below = [(s, w) for s, w in items if s < hi_set]
        below.sort(key=lambda sw: len(sw[0]), reverse=True)
        kept: list[frozenset] = []
        for s, w in below:
            if any(s <= k for k in kept):
                continue
            kept.append(s)
            covers.add((w, hi))
    return covers


def matrix_keyed_build(n: int):
    """Nodes and typed edges of the flip graph, each flip result drawn as
    a canonical grid by neighbors and keyed by its matrix: how build
    keyed flips before it read their Baxter words off the recuts."""
    words = rf.enumerate_avoiders(n, rf.BAXTER)
    grids = {w: rf.rho(w) for w in words}
    key_of = {grid.matrix: w for w, grid in grids.items()}
    directed: Counter = Counter()
    for w, grid in grids.items():
        for flipped, flip_class, _ in rf.neighbors(grid):
            directed[w, key_of[flipped.matrix], flip_class.kind] += 1
    edges: dict = {}
    for (w, w2, kind), count in directed.items():
        assert directed[w2, w, kind] == count
        edges.setdefault(tuple(sorted((w, w2))), {})[kind] = count
    return tuple(words), edges


def bfs_diameter(fg):
    """Largest BFS eccentricity over the nodes of a flip graph, or None
    when some node does not reach every other."""
    index = {w: i for i, w in enumerate(fg.nodes)}
    adj = [[] for _ in fg.nodes]
    for a, b in fg.edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    diameter = 0
    for source in range(len(adj)):
        dist = [-1] * len(adj)
        dist[source] = 0
        queue = deque([source])
        while queue:
            w = queue.popleft()
            for v in adj[w]:
                if dist[v] < 0:
                    dist[v] = dist[w] + 1
                    queue.append(v)
        if -1 in dist:
            return None
        diameter = max(diameter, max(dist))
    return diameter


def slash_consistency_problems(grid) -> list[str]:
    """The anti-diagonal representative suite for one rectangulation.

    Checks that the representative reads 1..n along the anti-diagonal,
    that bottom-left block deletion recovers first the identity and,
    after relabelling by the Baxter word, the Baxter word itself, and
    that reflecting back and canonicalizing lands on the drawing of the
    inverse Baxter word without renaming any rectangle.
    """
    from rectflip.rectangulation import canonicalize, reflect_rows

    n = grid.n
    ident = tuple(range(1, n + 1))
    baxter = rf.baxter_of(grid)
    slash = slash_representative(grid)
    problems = []
    if antidiagonal_reading(slash) != ident:
        problems.append("antidiagonal reading")
    if rf.block_deletion_word(slash) != ident:
        problems.append("deletion order on the representative")
    relabelled = relabel(slash, {k: baxter[k - 1] for k in ident})
    if rf.block_deletion_word(relabelled) != baxter:
        problems.append("deletion order after relabelling")
    back, ranks = canonicalize(reflect_rows(slash))
    if back.matrix != rf.rho(inverse(baxter)).matrix:
        problems.append("reflected drawing")
    if any(ranks[k] != k for k in ident):
        problems.append("reflected labels not fixed")
    if rf.baxter_of(back) != inverse(baxter):
        problems.append("inverse reading")
    return problems
