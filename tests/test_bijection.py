import itertools

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
from rectflip.permutation import avoids_class, contains_vincular
from rectflip.rectangulation import _delete_bottom_left, rho

from oracles import (
    antidiagonal_reading,
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
    assert _delete_bottom_left(work) == 1 and work == [[2, 2], [2, 2]]
    work = [[1, 1], [2, 2]]
    assert _delete_bottom_left(work) == 2 and work == [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        _delete_bottom_left([[1]])


def test_block_deletion_words_of_cuts():
    assert block_deletion_word(((1, 2), (1, 2))) == (1, 2)
    assert block_deletion_word(((1, 1), (2, 2))) == (2, 1)


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
