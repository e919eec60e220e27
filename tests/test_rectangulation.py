import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rectflip as rf
from rectflip.permutation import avoids_class
from rectflip.rectangulation import (
    GridRectangulation,
    NotDiagonalError,
    bounding_boxes,
    canonicalize,
    diagonal_obstruction,
    extraction_word,
    freeze_matrix,
    geometry,
    reflect_rows,
    relabel,
    rho,
    rho_prime,
    staircase_extraction,
    twin_trees,
)

from oracles import brute_fibers, find_edge_by_scan

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


def test_bounding_boxes_requires_solid_blocks():
    with pytest.raises(ValueError):
        bounding_boxes(((1, 2), (2, 1)))


def test_geometry_of_vertical_cut():
    geo = geometry(((1, 2), (1, 2)))
    kinds = {point: v.kind for point, v in geo.vertices.items()}
    assert kinds[(0, 0)] == "corner" and kinds[(2, 2)] == "corner"
    assert kinds[(0, 1)] == "stem_down" and kinds[(2, 1)] == "stem_up"
    [edge] = [e for e in geo.edges if 0 < e.line < 2]
    assert edge.orient == "v" and not edge.matched_start and not edge.matched_end


def test_interior_edge_ids_of_worked_example():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    ids = sorted(grid.edge_id(e) for e in grid.interior_edges())
    assert ids == [
        "1|2:v", "1|3:v", "1|4:h", "2|3:h", "2|7:h", "3|4:h", "3|5:h",
        "3|7:v", "4|5:v", "4|6:v", "5|6:h", "5|7:v", "6|7:v",
    ]
    edge = grid.find_edge(5, 6)
    assert edge.orient == "h" and grid.edge_labels(edge) == (5, 6)
    with pytest.raises(ValueError):
        grid.find_edge(1, 6)


def test_find_edge_matches_scan_oracle():
    # every ordered pair of distinct labels, walls shared or not
    def outcome(find, grid, a, b):
        try:
            return find(grid, a, b)
        except ValueError as exc:
            return str(exc)

    pairs = 0
    for n in range(1, 7):
        for w in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(w)
            for a, b in itertools.permutations(range(1, n + 1), 2):
                pairs += 1
                expected = outcome(find_edge_by_scan, grid, a, b)
                assert outcome(GridRectangulation.find_edge, grid, a, b) == expected
    assert pairs == 14804


def test_grid_keeps_validated_boxes():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    assert grid.rects == bounding_boxes(grid.matrix)
    assert grid == GridRectangulation(grid.matrix)
    assert hash(grid) == hash(GridRectangulation(grid.matrix))


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


def test_extraction_word_round_trips():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            grid = rho(word)
            for rule in ("leftmost", "rightmost"):
                assert rho(extraction_word(grid.matrix, rule)).matrix == grid.matrix


def test_extraction_rules_on_worked_examples():
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    assert staircase_extraction(grid, "leftmost") == (4, 1, 6, 5, 3, 7, 2)
    assert staircase_extraction(grid, "rightmost") == (4, 6, 5, 1, 3, 7, 2)
    big = rho((3, 1, 4, 2, 6, 5, 8, 7))
    assert staircase_extraction(big, "leftmost") == (3, 1, 4, 2, 6, 5, 8, 7)
    assert staircase_extraction(big, "rightmost") == (3, 4, 6, 8, 1, 2, 5, 7)
    cut = rho((1, 2))
    assert staircase_extraction(cut, "leftmost") == (1, 2)
    assert staircase_extraction(cut, "rightmost") == (1, 2)


def test_extraction_rules_pick_the_unique_class_avoider():
    # The two deterministic orders land on the one twisted-Baxter and
    # the one {3-14-2, 2-14-3}-avoiding member of every fiber.
    for n in range(1, 8):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            members = rf.fiber(grid).members
            left = staircase_extraction(grid, "leftmost")
            right = staircase_extraction(grid, "rightmost")
            assert left in members and right in members
            assert [w for w in members if avoids_class(w, rf.TWISTED_BAXTER)] == [left]
            assert [w for w in members if avoids_class(w, rf.RIGHTMOST)] == [right]


def test_fibers_partition_all_words():
    for n in range(1, 7):
        groups = brute_fibers(n)
        grids = {rho(w).matrix for w in rf.enumerate_avoiders(n, rf.BAXTER)}
        assert set(groups) == grids
        for matrix, expected in groups.items():
            assert rf.fiber(GridRectangulation(matrix)).members == frozenset(expected)


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


def test_twin_trees_admit_exactly_the_fiber():
    for n in range(1, 6):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            members = rf.fiber(grid).members
            tt = twin_trees(grid)
            for candidate in itertools.permutations(range(1, n + 1)):
                assert tt.admits(candidate) == (candidate in members)


def test_twin_trees_admit_exactly_the_fiber_sampled_n6():
    import random

    rng = random.Random(6)
    pool = list(itertools.permutations(range(1, 7)))
    for word in rf.enumerate_avoiders(6, rf.BAXTER):
        grid = rho(word)
        members = rf.fiber(grid).members
        tt = twin_trees(grid)
        for candidate in itertools.chain(members, rng.sample(pool, 40)):
            assert tt.admits(candidate) == (candidate in members)
