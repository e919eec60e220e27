import itertools
import random

import pytest

import rectflip as rf
from rectflip.bijection import (
    FIBER_CAP,
    baxter_of,
    block_deletion_word,
    fiber,
    rightmost_of,
    twisted_baxter_of,
)
from rectflip.flips import _classify
from rectflip.permutation import avoids_class, contains_vincular
from rectflip.rectangulation import (
    NotRectangularError,
    Rect,
    _paint,
    corner_deletion_word,
    reflect_rows,
    rho,
)

from oracles import (
    antidiagonal_reading,
    cell_deletion_word,
    delete_bottom_left,
    slash_consistency_problems,
    slash_representative,
    unique_class_member,
)


def test_fiber_of_the_two_cuts():
    assert fiber(rho((1, 2))) == {(1, 2)}
    assert fiber(rho((2, 1))) == {(2, 1)}


def test_fiber_of_worked_example():
    fib = fiber(rho((4, 1, 6, 5, 3, 7, 2)))
    assert fib == {
        (4, 1, 6, 5, 3, 7, 2),
        (4, 6, 1, 5, 3, 7, 2),
        (4, 6, 5, 1, 3, 7, 2),
    }
    assert len(fib) == 3
    assert min(fib) == (4, 1, 6, 5, 3, 7, 2)


def test_fiber_sizes_partition_factorial():
    import math

    for n in range(1, 7):
        total = sum(
            len(fiber(rho(w))) for w in rf.enumerate_avoiders(n, rf.BAXTER)
        )
        assert total == math.factorial(n)


def test_fiber_cap():
    word = tuple(range(1, FIBER_CAP + 2))
    with pytest.raises(ValueError):
        fiber(rho(word))


def test_baxter_of_worked_examples():
    assert baxter_of(rho((4, 1, 6, 5, 3, 7, 2))) == (4, 6, 5, 1, 3, 7, 2)
    assert baxter_of(rho((3, 1, 4, 2, 6, 5, 8, 7))) == (3, 4, 1, 2, 6, 5, 8, 7)
    assert baxter_of(rho((1, 2))) == (1, 2)


def test_eight_rectangle_fiber():
    grid = rho((3, 1, 4, 2, 6, 5, 8, 7))
    members = fiber(grid)
    assert len(members) == 14
    assert twisted_baxter_of(grid) == (3, 1, 4, 2, 6, 5, 8, 7)
    assert rightmost_of(grid) == (3, 4, 6, 8, 1, 2, 5, 7)
    # The member one value swap away from the Baxter word is not the
    # rightmost representative: it contains 2-14-3 (witness 3, 2-6, 5).
    near_miss = (3, 4, 1, 2, 6, 8, 5, 7)
    assert near_miss in members
    assert contains_vincular(near_miss, rf.CLASSES_BY_NAME["rightmost_class"].patterns[1])
    assert not avoids_class(near_miss, rf.RIGHTMOST)


def test_block_deletion_single_steps():
    work = [[1, 2], [1, 2]]
    assert delete_bottom_left(work) == 1 and work == [[2, 2], [2, 2]]
    work = [[1, 1], [2, 2]]
    assert delete_bottom_left(work) == 2 and work == [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        delete_bottom_left([[1]])


def test_block_deletion_words_of_cuts():
    assert block_deletion_word(((1, 2), (1, 2))) == (1, 2)
    assert block_deletion_word(((1, 1), (2, 2))) == (2, 1)
    assert block_deletion_word(((7,),)) == (7,)
    assert corner_deletion_word({1: Rect(0, 0, 1, 0), 2: Rect(0, 1, 1, 1)}) == (1, 2)


@pytest.mark.parametrize("matrix", [((1, 2, 1),), ((1, 1), (1, 2)), ((1, 2), (2, 1))])
def test_block_deletion_rejects_labels_that_fill_no_rectangle(matrix):
    with pytest.raises(NotRectangularError) as info:
        block_deletion_word(matrix)
    assert str(info.value) == "label 1 does not fill a rectangle"


def test_block_deletion_names_a_four_way_junction():
    with pytest.raises(ValueError) as info:
        block_deletion_word(((1, 2), (3, 4)))
    assert type(info.value) is ValueError
    assert str(info.value) == "four rectangles meet at corner point (1, 1)"


@pytest.mark.parametrize("matrix", [(), ((),), ((1, 2), (1,))])
def test_block_deletion_rejects_ragged_matrices(matrix):
    with pytest.raises(ValueError) as info:
        block_deletion_word(matrix)
    assert str(info.value) == "rows must be non-empty and of equal length"


# Drawings of other shapes or labels, as canonicalize takes them: the
# first two are inputs of its tests.
CANONICALIZE_INPUTS = (
    ((1, 1), (2, 3)),
    ((1, 1, 2), (3, 4, 2), (3, 5, 5)),
    ((1, 2), (1, 2)),
    ((1, 1), (2, 2)),
    ((5, 5, 5), (9, 2, 2)),
)


def test_box_deletion_matches_cell_oracle():
    # Box and cell deletion give the same word on every Baxter drawing
    # with n <= 6 and every flippable recut of it, on seeded rho drawings
    # with n = 7..60 and on the canonicalize inputs, each also reflected.
    grids = [rho(w) for n in range(1, 7) for w in rf.enumerate_avoiders(n, rf.BAXTER)]
    rng = random.Random(7)
    grids += [rho(tuple(rng.sample(range(1, n + 1), n))) for n in range(7, 61)]
    recuts = []
    for grid in grids[:545]:
        for edge in grid.interior_edges():
            boxes = _classify(grid, edge)[1]
            if boxes is not None:
                recut = _paint(boxes.values())
                assert corner_deletion_word(boxes) == cell_deletion_word(recut)
                recuts.append(recut)
    assert (len(grids), len(recuts)) == (545 + 54, 3674)
    for matrix in (*(g.matrix for g in grids), *recuts, *CANONICALIZE_INPUTS):
        for m in (matrix, reflect_rows(matrix)):
            assert block_deletion_word(m) == cell_deletion_word(m)


def test_block_deletion_agrees_with_fiber_filter():
    for n in range(1, 8):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            assert block_deletion_word(grid.matrix) == word
            assert unique_class_member(grid, rf.BAXTER) == word


def test_baxter_selector_past_the_fiber_cap():
    n = FIBER_CAP + 2
    ident = tuple(range(1, n + 1))
    for word in (ident, (3, 1, 2, 6, 5, 4, 12, 10, 11, 7, 9, 8)):
        # separable words avoid 2413 and 3142, so they are Baxter
        assert avoids_class(word, rf.SEPARABLE) and avoids_class(word, rf.BAXTER)
        grid = rho(word)
        assert baxter_of(grid) == word
        slash = slash_representative(grid)
        assert antidiagonal_reading(slash) == block_deletion_word(slash) == ident
        assert slash_consistency_problems(grid) == []


def test_unique_class_member_per_fiber():
    for n in range(1, 6):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            members = fiber(grid)
            for cls in (rf.BAXTER, rf.TWISTED_BAXTER, rf.RIGHTMOST):
                chosen = unique_class_member(grid, cls)
                assert chosen in members and avoids_class(chosen, cls)


def test_extraction_shortcuts_match_class_filters():
    for n in range(1, 7):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            grid = rho(word)
            assert twisted_baxter_of(grid) == unique_class_member(grid, rf.TWISTED_BAXTER)
            assert rightmost_of(grid) == unique_class_member(grid, rf.RIGHTMOST)


def test_slash_representative_of_vertical_cut():
    grid = rho((1, 2))
    assert slash_representative(grid) == ((1, 2), (1, 2))
    assert antidiagonal_reading(((1, 2), (1, 2))) == (1, 2)


def test_slash_representative_of_worked_example():
    # Same wall structure as the source drawing, rebuilt around the
    # other diagonal: labels follow the bottom-left to top-right order.
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    slash = slash_representative(grid)
    assert antidiagonal_reading(slash) == (1, 2, 3, 4, 5, 6, 7)
    assert block_deletion_word(slash) == (1, 2, 3, 4, 5, 6, 7)


def test_slash_consistency_suite():
    for n in range(1, 7):
        for word in rf.enumerate_avoiders(n, rf.BAXTER):
            assert slash_consistency_problems(rho(word)) == []
