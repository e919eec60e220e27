import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rectflip as rf
from rectflip import rectangulation
from rectflip.bijection import FIBER_CAP
from rectflip.flips import _classify
from rectflip.permutation import avoids_class
from rectflip.rectangulation import (
    GridRectangulation,
    NotDiagonalError,
    _paint,
    _run_boxes,
    bounding_boxes,
    canonicalize,
    diagonal_obstruction,
    extraction_word,
    freeze_matrix,
    geometry,
    peel_predecessors,
    reflect_rows,
    rho,
)

from oracles import (
    _top_left_deletion_ranks,
    brute_fibers,
    bst_parents,
    diagonal_tilings,
    find_edge_by_scan,
    matrix_peel_predecessors,
    minmax_bounding_boxes,
    relabel,
    rho_prime,
    scan_run_boxes,
    staircase_extraction_word,
    staircase_fiber,
    staircase_rho,
    swept_edges,
    swept_interior_edges,
    twin_trees,
)

words = lambda lo, hi: st.integers(lo, hi).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)

RHO_4165372 = freeze_matrix([
    [1, 2, 2, 2, 2, 2, 2],
    [1, 2, 2, 2, 2, 2, 2],
    [1, 3, 3, 3, 3, 3, 7],
    [4, 4, 4, 4, 5, 5, 7],
    [4, 4, 4, 4, 5, 5, 7],
    [4, 4, 4, 4, 6, 6, 7],
    [4, 4, 4, 4, 6, 6, 7],
])

# A one-end-matched rotation whose result leaves the diagonal class.
# Rotating the wall between 1 and 2 in rho((1, 4, 2, 3)) pushes 2 off
# the diagonal for good: the bottom wall then reads a down stem before
# an up stem.
BLOCKED_ROTATION = freeze_matrix([
    [1, 1, 3, 3],
    [1, 1, 3, 3],
    [1, 1, 3, 3],
    [2, 4, 4, 4],
])


def test_rho_small_examples():
    assert rho((1,)).matrix == ((1,),)
    assert rho((1, 2)).matrix == ((1, 2), (1, 2))
    assert rho((2, 1)).matrix == ((1, 1), (2, 2))
    assert rho((3, 1, 2)).matrix == ((1, 2, 2), (1, 2, 2), (3, 3, 3))


def test_rho_worked_example():
    assert rho((4, 1, 6, 5, 3, 7, 2)).matrix == RHO_4165372


def test_rho_matches_staircase_insertion_exhaustively():
    checked = 0
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            grid = rho(word)
            assert grid.matrix == staircase_rho(word)
            assert dict(enumerate(grid.boxes, 1)) == bounding_boxes(grid.matrix)
            checked += 1
    assert checked == 5913


@given(words(1, 40))
def test_rho_matches_staircase_insertion_sampled(word):
    assert rho(word).matrix == staircase_rho(word)


@pytest.mark.parametrize("bad", [(), (1, 1), (2, 3), (0, 1), (1, 3, 2, 2)])
def test_rho_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        rho(bad)


def test_run_box_rule_matches_the_scanning_oracle_exhaustively():
    checked = 0
    for n in range(1, 9):
        for word in itertools.permutations(range(1, n + 1)):
            assert _run_boxes(word) == scan_run_boxes(word)
            checked += 1
    assert checked == 46233


@given(words(1, 40))
def test_run_box_rule_matches_the_scanning_oracle_sampled(word):
    assert _run_boxes(word) == scan_run_boxes(word)


# Boxes for a word of size 3 that do not tile the square, each with the
# check in rho that must catch it.  The identity draws three columns.
BAD_BOXES_3 = [
    ([(0, 0, 2, 1), (0, 1, 2, 1), (0, 2, 2, 2)], "box 2 .* writes a cell twice"),
    ([(0, 0, 1, 0), (0, 1, 2, 1), (0, 2, 2, 2)], "cover 8 of 9 cells"),
    ([(0, 1, 2, 1), (0, 0, 2, 0), (0, 2, 2, 2)], r"label 2 on diagonal cell \(0, 0\)"),
    ([(0, 0, 2, 0), (0, 1, 2, 1), (0, 2, 2, 3)], "box 3 .* leaves the square"),
]


@pytest.mark.parametrize("boxes, message", BAD_BOXES_3)
def test_rho_rejects_boxes_that_do_not_tile(monkeypatch, boxes, message):
    assert rho((1, 2, 3)).boxes == ((0, 0, 2, 0), (0, 1, 2, 1), (0, 2, 2, 2))
    monkeypatch.setattr(rectangulation, "_run_boxes", lambda word: boxes)
    with pytest.raises(ValueError, match=message):
        rho((1, 2, 3))


@given(words(1, 8))
def test_rho_anchors_every_rectangle(word):
    grid = rho(word)
    for i in range(grid.n):
        assert grid.matrix[i][i] == i + 1


@given(words(1, 8))
def test_rho_windows_never_meet_four_rectangles(word):
    m = rho(word).matrix
    n = len(m)
    for r in range(n - 1):
        for c in range(n - 1):
            assert len({m[r][c], m[r][c + 1], m[r + 1][c], m[r + 1][c + 1]}) < 4


def test_grid_constructor_rejects_bad_anchor():
    with pytest.raises(ValueError):
        GridRectangulation(((1, 1), (2, 1)))


def test_diagonal_tilings_are_the_baxter_drawings():
    # Every tiling that puts label i on cell (i-1, i-1) is a canonical
    # drawing, so GridRectangulation needs no four-way junction check.
    sizes = []
    for n in range(1, 7):
        tilings = diagonal_tilings(n)
        assert tilings == {rho(w).matrix for w in rf.enumerate_avoiders(n, rf.BAXTER)}
        for matrix in tilings:
            GridRectangulation(matrix)
        sizes.append(len(tilings))
    assert sizes == [1, 2, 6, 22, 92, 422]


def test_bounding_boxes_requires_solid_blocks():
    with pytest.raises(ValueError):
        bounding_boxes(((1, 2), (2, 1)))


def _boxes_or_error(find, matrix):
    try:
        return list(find(matrix).items())
    except ValueError as exc:
        return str(exc)


def test_bounding_boxes_match_minmax_oracle_on_every_drawing():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            matrix = rho(w).matrix
            assert _boxes_or_error(bounding_boxes, matrix) == _boxes_or_error(
                minmax_bounding_boxes, matrix
            )


def _perturbed_drawing(word, r, c, lab):
    rows = [list(row) for row in rho(word).matrix]
    n = len(word)
    rows[r % n][c % n] = lab
    return freeze_matrix(rows)


small_matrices = st.one_of(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(1, 4), min_size=width, max_size=width),
            min_size=1,
            max_size=5,
        )
    ).map(freeze_matrix),
    st.builds(
        _perturbed_drawing, words(1, 6), st.integers(0, 5), st.integers(0, 5),
        st.integers(1, 7),
    ),
)


@given(small_matrices)
def test_bounding_boxes_match_minmax_oracle(matrix):
    # Equal boxes in equal order, or the same ValueError text.
    assert _boxes_or_error(bounding_boxes, matrix) == _boxes_or_error(
        minmax_bounding_boxes, matrix
    )


def test_geometry_of_vertical_cut():
    matrix = ((1, 2), (1, 2))
    kinds = geometry(matrix).vertices
    assert kinds[(0, 0)] == "corner" and kinds[(2, 2)] == "corner"
    assert kinds[(0, 1)] == "stem_down" and kinds[(2, 1)] == "stem_up"
    [edge] = [e for e in swept_edges(matrix) if 0 < e.line < 2]
    assert edge.orient == "v" and not edge.matched_start and not edge.matched_end


def _swept_by_labels(grid):
    # The wall sweep's interior pieces, in the order of their two labels.
    return tuple(sorted(swept_interior_edges(grid), key=lambda e: e.labels))


def test_interior_edges_match_the_sweep():
    # Pieces drawn by find_edge from neighbouring boxes against the
    # wall sweep, in the order of their labels, on every drawing with
    # n <= 7.
    checked = 0
    for n in range(1, 8):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            assert grid.interior_edges() == _swept_by_labels(grid)
            checked += 1
    assert checked == 2619


@given(words(1, 40))
def test_interior_edges_match_the_sweep_sampled(word):
    grid = rho(word)
    assert grid.interior_edges() == _swept_by_labels(grid)


def test_interior_edge_ids_of_worked_example():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    ids = sorted(grid.edge_id(e) for e in grid.interior_edges())
    assert ids == [
        "1|2:v", "1|3:v", "1|4:h", "2|3:h", "2|7:h", "3|4:h", "3|5:h",
        "3|7:v", "4|5:v", "4|6:v", "5|6:h", "5|7:v", "6|7:v",
    ]
    edge = grid.find_edge(5, 6)
    assert edge.orient == "h" and edge.labels == (5, 6)
    with pytest.raises(ValueError):
        grid.find_edge(1, 6)


def test_find_edge_matches_scan_oracle():
    # every ordered pair of distinct labels, walls shared or not, with 0
    # and n + 1 among them, which name no rectangle
    def outcome(find, *args):
        try:
            return find(*args)
        except ValueError as exc:
            return str(exc)

    pairs = 0
    for n in range(1, 7):
        for w in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(w)
            edges = swept_interior_edges(grid)
            for a, b in itertools.permutations(range(n + 2), 2):
                pairs += 1
                expected = outcome(find_edge_by_scan, edges, a, b)
                assert outcome(grid.find_edge, a, b) == expected
    assert pairs == 28306


def test_grid_keeps_validated_boxes():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    assert dict(enumerate(grid.boxes, 1)) == bounding_boxes(grid.matrix)
    assert grid == GridRectangulation(grid.matrix)
    assert hash(grid) == hash(GridRectangulation(grid.matrix))


def test_grid_freezes_a_matrix_given_as_lists():
    # A grid built from lists is the grid built from tuples, and later
    # changes to the lists do not reach it.
    rows = [[1, 2], [1, 2]]
    grid = GridRectangulation(rows)
    assert grid == GridRectangulation(((1, 2), (1, 2)))
    assert hash(grid) == hash(GridRectangulation(((1, 2), (1, 2))))
    rows[0][1] = rows[1][1] = 1
    assert grid.matrix == ((1, 2), (1, 2))
    assert [grid.edge_id(e) for e in grid.interior_edges()] == ["1|2:v"]


def test_diagonal_crossing_flag():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    crossing = {grid.edge_id(e) for e in grid.interior_edges() if e.crosses_diagonal}
    # exactly the walls separating rectangles i and i+1 across the diagonal
    assert crossing == {"1|2:v", "2|3:h", "3|4:h", "4|5:v", "5|6:h", "6|7:v"}
    for eid in crossing:
        a = int(eid.split("|")[0])
        e = grid.find_edge(a, a + 1)
        assert e.line == a


def test_obstruction_accepts_every_drawing_of_words():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            assert diagonal_obstruction(rho(word).matrix) is None


def test_obstruction_allows_up_stem_before_down_stem():
    # Bottom-left and top-right rectangles both reach the diagonal even
    # though the middle wall carries both stem kinds.
    legal = ((1, 2, 2, 2), (1, 2, 2, 2), (3, 3, 3, 4), (3, 3, 3, 4))
    assert diagonal_obstruction(legal) is None


def test_obstruction_catches_horizontal_pattern():
    bad = ((1, 1, 1, 2, 2), (3, 4, 4, 4, 4))
    violation = diagonal_obstruction(bad)
    assert violation is not None
    assert violation.reason == "horizontal" and violation.point == (1, 3)


def test_obstruction_catches_vertical_pattern():
    bad = ((1, 3), (1, 4), (1, 4), (2, 4), (2, 4))
    violation = diagonal_obstruction(bad)
    assert violation is not None
    assert violation.reason == "vertical" and violation.point == (3, 1)


def test_obstruction_catches_four_way_junction():
    violation = diagonal_obstruction(((1, 1, 2, 2), (3, 3, 4, 4)))
    assert violation is not None
    assert violation.reason == "four_way" and violation.point == (1, 2)


def test_obstruction_on_blocked_rotation():
    violation = diagonal_obstruction(BLOCKED_ROTATION)
    assert violation is not None
    assert violation.reason == "horizontal" and violation.point == (3, 2)
    with pytest.raises(NotDiagonalError):
        canonicalize(BLOCKED_ROTATION)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (((1, 2, 1),), "label 1 does not fill a rectangle"),
        (((1, 1), (1, 2)), "label 1 does not fill a rectangle"),
        (((1, 2), (1,)), "rows must be non-empty and of equal length"),
        (((),), "rows must be non-empty and of equal length"),
        ((), "rows must be non-empty and of equal length"),
    ],
)
def test_canonicalize_rejects_non_rectangulations(matrix, message):
    with pytest.raises(ValueError) as info:
        canonicalize(matrix)
    assert str(info.value) == message
    assert not isinstance(info.value, NotDiagonalError)


def test_canonicalize_resizes_and_ranks():
    grid, ranks = canonicalize(((1, 1), (2, 3)))
    assert grid.matrix == ((1, 1, 1), (2, 2, 3), (2, 2, 3))
    assert ranks == {1: 1, 2: 2, 3: 3}


def test_canonicalize_windmill():
    grid, ranks = canonicalize(((1, 1, 2), (3, 4, 2), (3, 5, 5)))
    assert ranks == {1: 1, 3: 2, 4: 3, 2: 4, 5: 5}
    assert grid.matrix == (
        (1, 1, 1, 4, 4),
        (2, 2, 3, 4, 4),
        (2, 2, 3, 4, 4),
        (2, 2, 3, 4, 4),
        (2, 2, 5, 5, 5),
    )


def test_canonicalize_fixes_canonical_grids():
    for n in range(1, 6):
        for word in itertools.permutations(range(1, n + 1)):
            grid = rho(word)
            same, ranks = canonicalize(grid.matrix)
            assert same.matrix == grid.matrix
            assert all(ranks[i] == i for i in range(1, n + 1))


def _recuts(grid):
    # What a flip hands to corner deletion: the recut that classifying
    # each flippable edge returns, drawn.
    for edge in grid.interior_edges():
        recut = _classify(grid, edge)[1]
        if recut is not None:
            yield _paint(recut.values())


def test_canonical_ranks_match_top_left_deletion_oracle():
    checked = 0
    for n in range(1, 7):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            for matrix in (grid.matrix, *_recuts(grid)):
                assert canonicalize(matrix)[1] == _top_left_deletion_ranks(matrix)
                checked += 1
    assert checked == 4219


@given(st.data())
def test_canonical_ranks_match_oracle_sampled(data):
    word = data.draw(words(1, 20))
    labels = data.draw(st.permutations(range(1, len(word) + 1)))
    grid = rho(word)
    mapping = dict(zip(range(1, len(word) + 1), labels))
    for matrix in (grid.matrix, *_recuts(grid)):
        matrix = relabel(matrix, mapping)
        assert canonicalize(matrix)[1] == _top_left_deletion_ranks(matrix)


def test_extraction_word_round_trips():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            grid = rho(word)
            for rule in ("leftmost", "rightmost"):
                assert rho(extraction_word(grid, rule)).matrix == grid.matrix


def test_extraction_rules_on_worked_examples():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    assert extraction_word(grid, "leftmost") == (4, 1, 6, 5, 3, 7, 2)
    assert extraction_word(grid, "rightmost") == (4, 6, 5, 1, 3, 7, 2)
    big = rho((3, 1, 4, 2, 6, 5, 8, 7))
    assert extraction_word(big, "leftmost") == (3, 1, 4, 2, 6, 5, 8, 7)
    assert extraction_word(big, "rightmost") == (3, 4, 6, 8, 1, 2, 5, 7)
    cut = rho((1, 2))
    assert extraction_word(cut, "leftmost") == (1, 2)
    assert extraction_word(cut, "rightmost") == (1, 2)


def test_extraction_rules_pick_the_unique_class_avoider():
    # The two deterministic orders land on the one twisted-Baxter and
    # the one {3-14-2, 2-14-3}-avoiding member of every fiber.
    for n in range(1, 8):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            members = rf.fiber(grid)
            left = extraction_word(grid, "leftmost")
            right = extraction_word(grid, "rightmost")
            assert left in members and right in members
            assert [w for w in members if avoids_class(w, rf.TWISTED_BAXTER)] == [left]
            assert [w for w in members if avoids_class(w, rf.RIGHTMOST)] == [right]


def test_fibers_partition_all_words():
    for n in range(1, 7):
        groups = brute_fibers(n)
        grids = {rho(w).matrix for w in rf.enumerate_avoiders(n, rf.BAXTER)}
        assert set(groups) == grids
        for matrix, expected in groups.items():
            assert rf.fiber(GridRectangulation(matrix)) == frozenset(expected)


@given(words(1, 8))
def test_rho_prime_is_the_reflection(word):
    assert rho_prime(word) == reflect_rows(rho(word).matrix)
    n = len(word)
    anti = rho_prime(word)
    for i in range(n):
        assert anti[n - 1 - i][i] == i + 1


def test_relabel():
    assert relabel(((1, 2), (1, 2)), {1: 2, 2: 1}) == ((2, 1), (2, 1))
    with pytest.raises(KeyError):
        relabel(((1, 2), (1, 2)), {1: 2})


def test_twin_trees_of_small_grids():
    tt = twin_trees(rho((3, 1, 2)))
    assert tt.lower == {1: 3, 2: 1, 3: None}
    assert tt.upper == {1: 2, 2: None, 3: 2}
    cut = twin_trees(rho((1, 2)))
    assert cut.lower == {1: None, 2: 1} and cut.upper == {1: 2, 2: None}


def test_twin_trees_are_search_tree_insertions():
    # The lower tree inserts the word into a binary search tree, the
    # upper tree inserts the reversed word; rho's docstring relies on it.
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            tt = twin_trees(rho(word))
            assert tt.lower == bst_parents(word)
            assert tt.upper == bst_parents(word[::-1])


def test_twin_trees_admit_exactly_the_fiber():
    for n in range(1, 6):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            members = rf.fiber(grid)
            tt = twin_trees(grid)
            for candidate in itertools.permutations(range(1, n + 1)):
                assert tt.admits(candidate) == (candidate in members)


def test_twin_trees_admit_exactly_the_fiber_sampled_n6():
    import random

    rng = random.Random(6)
    pool = list(itertools.permutations(range(1, 7)))
    for word in rf.enumerate_avoiders(6, rf.BAXTER):
        grid = rho(word)
        members = rf.fiber(grid)
        tt = twin_trees(grid)
        for candidate in itertools.chain(members, rng.sample(pool, 40)):
            assert tt.admits(candidate) == (candidate in members)


def test_peeling_matches_the_staircase_oracles():
    # One predecessor relation against column heights rescanned with
    # _removable: both extraction rules and the whole fiber agree on
    # every drawing with n <= 7.
    checked = 0
    for n in range(1, 8):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            for rule in ("leftmost", "rightmost"):
                assert extraction_word(grid, rule) == staircase_extraction_word(grid, rule)
            assert rf.fiber(grid) == staircase_fiber(grid)
            checked += 1
    assert checked == 2619


def test_peeling_reads_the_matrix_neighbours_from_boxes():
    checked = 0
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            grid = rho(word)
            assert peel_predecessors(grid.boxes) == matrix_peel_predecessors(grid)
            checked += 1
    assert checked == 5913


@given(words(1, 40))
def test_peeling_reads_the_matrix_neighbours_from_boxes_sampled(word):
    grid = rho(word)
    assert peel_predecessors(grid.boxes) == matrix_peel_predecessors(grid)


@given(words(1, 30))
def test_extraction_matches_the_staircase_oracle_sampled(word):
    grid = rho(word)
    for rule in ("leftmost", "rightmost"):
        assert extraction_word(grid, rule) == staircase_extraction_word(grid, rule)


@given(words(1, FIBER_CAP))
def test_fiber_matches_the_staircase_oracle_sampled(word):
    grid = rho(word)
    members = rf.fiber(grid)
    assert word in members
    assert members == staircase_fiber(grid)
