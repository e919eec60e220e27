import functools
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rectflip as rf
from rectflip.bijection import twisted_baxter_of
from rectflip.flipgraph import build
from rectflip.flips import FlipKind
from rectflip.order import (
    covers_within,
    down_set,
    drec_covers,
    inversion_mask,
    pair_bitsets,
)
from rectflip.rectangulation import rho

from oracles import (
    adjacent_position_swap,
    between,
    brute_covers,
    brute_weak_leq,
    inversion_pairs,
    is_drec_cover,
    pairwise_covers,
    weak_leq,
)


def all_words(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


word_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n + 1)).map(tuple),
        st.permutations(range(1, n + 1)).map(tuple),
    )
)


def test_inversion_mask_counts_and_extremes():
    for n in range(1, 7):
        assert inversion_mask(tuple(range(1, n + 1))) == 0
        top = inversion_mask(tuple(range(n, 0, -1)))
        assert top.bit_count() == n * (n - 1) // 2
    assert inversion_mask((2, 4, 1, 3)).bit_count() == len(inversion_pairs((2, 4, 1, 3)))


def packed(pairs):
    # Pair (a, b) with a < b is bit (b - 1)(b - 2)/2 + a - 1.
    return sum(1 << (b - 1) * (b - 2) // 2 + a - 1 for a, b in pairs)


def test_inversion_mask_matches_the_pair_oracle_exhaustively():
    for n in range(0, 8):
        for word in all_words(n):
            assert inversion_mask(word) == packed(inversion_pairs(word)), word


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_inversion_mask_matches_the_pair_oracle(word):
    assert inversion_mask(word) == packed(inversion_pairs(word))


@given(word_pairs)
def test_weak_leq_matches_subset_oracle(pair):
    lo, hi = pair
    assert weak_leq(lo, hi) == brute_weak_leq(lo, hi)


def test_weak_leq_size_mismatch():
    with pytest.raises(ValueError):
        weak_leq((1, 2), (1, 2, 3))


def test_weak_leq_extremes():
    for n in range(1, 6):
        bottom = tuple(range(1, n + 1))
        top = tuple(range(n, 0, -1))
        for w in all_words(n):
            assert weak_leq(bottom, w)
            assert weak_leq(w, top)


def test_full_order_covers_are_ascent_position_swaps():
    # Over all of S_n the cover pairs are exactly the ascent swaps: the
    # upper word swaps two adjacent positions holding increasing values.
    for n in range(1, 6):
        words = all_words(n)
        expected = set()
        for w in words:
            for j in range(1, n):
                if w[j - 1] < w[j]:
                    expected.add((w, adjacent_position_swap(w, j)))
        assert covers_within(words) == expected == brute_covers(words)


def test_restricted_covers_match_brute_reduction():
    for n in range(1, 6):
        words = rf.enumerate_avoiders(n, rf.BAXTER)
        assert drec_covers(n) == brute_covers(words)


def test_bitset_covers_match_pairwise_scan():
    for n in range(1, 8):
        words = rf.enumerate_avoiders(n, rf.BAXTER)
        assert covers_within(words) == pairwise_covers(words)
    for n in range(1, 7):
        words = rf.enumerate_avoiders(n, rf.TWISTED_BAXTER)
        assert covers_within(words) == pairwise_covers(words)
    for n in range(1, 6):
        assert covers_within(all_words(n)) == pairwise_covers(all_words(n))
    assert covers_within([]) == set()


same_length = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.permutations(range(1, n + 1)).map(tuple), max_size=30)
)
mixed_lengths = st.lists(
    st.integers(0, 4).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple)),
    max_size=20,
)


@given(st.one_of(same_length, mixed_lengths), st.data())
def test_bitset_covers_match_pairwise_scan_on_subsets(words, data):
    # Repeated words are never a cover of each other.  Words of different
    # lengths compare by inversion set alone, and of several with one set
    # only the first listed enters a cover.
    if words:
        words = words + data.draw(st.lists(st.sampled_from(words), max_size=5))
    words = data.draw(st.permutations(words))
    covers = covers_within(words)
    assert covers == pairwise_covers(words)
    assert all(lo != hi for lo, hi in covers)


@given(st.integers(5, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n + 1)).map(tuple),
        st.permutations(range(1, n + 1)).map(tuple),
    )
))
def test_interval_bitset_matches_a_scan(pair):
    # Random pairs both ways round, most with lo not below hi, which must
    # give 0; and intervals from the bottom and to the top, never empty.
    # The interval form is the oracle of the fibers in test_flipgraph.py,
    # and the down-set is the interval from the bottom.
    lo, hi = pair
    n = len(lo)
    masks, bitsets = _indexed(n)
    bottom, top = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    for a, b in ((lo, hi), (hi, lo), (bottom, hi), (lo, top)):
        a_mask, b_mask = inversion_mask(a), inversion_mask(b)
        found = between(bitsets, len(masks), a_mask, b_mask)
        scan = [k for k, m in enumerate(masks) if not (a_mask & ~m or m & ~b_mask)]
        assert found == sum(1 << k for k in scan)
        assert (found == 0) == (not weak_leq(a, b))
        below = [k for k, m in enumerate(masks) if not m & ~b_mask]
        assert down_set(bitsets, len(masks), b_mask) == sum(1 << k for k in below)


@functools.cache
def _indexed(n):
    masks = [inversion_mask(w) for w in all_words(n)]
    return masks, pair_bitsets(masks)


def test_drec_covers_frozen_small():
    assert drec_covers(1) == frozenset()
    assert drec_covers(2) == frozenset({((1, 2), (2, 1))})
    assert drec_covers(3) == frozenset(
        {
            ((1, 2, 3), (1, 3, 2)),
            ((1, 2, 3), (2, 1, 3)),
            ((1, 3, 2), (3, 1, 2)),
            ((2, 1, 3), (2, 3, 1)),
            ((2, 3, 1), (3, 2, 1)),
            ((3, 1, 2), (3, 2, 1)),
        }
    )


def test_cover_closure_recovers_comparability():
    for n in range(1, 6):
        words = rf.enumerate_avoiders(n, rf.BAXTER)
        up = {w: set() for w in words}
        for lo, hi in drec_covers(n):
            up[lo].add(hi)
        reach = {}
        for w in sorted(words, key=lambda u: -inversion_mask(u).bit_count()):
            closure = set(up[w])
            for v in up[w]:
                closure |= reach[v]
            reach[w] = closure
            assert w not in closure
        for lo in words:
            for hi in words:
                assert (hi in reach[lo]) == (lo != hi and weak_leq(lo, hi))


def test_twisted_representatives_inherit_the_covers():
    # Swapping each fiber's Baxter word for its twisted-Baxter word is an
    # isomorphism onto the weak order restricted to the twisted class.
    for n in range(1, 7):
        to_twisted = {
            w: twisted_baxter_of(rho(w)) for w in rf.enumerate_avoiders(n, rf.BAXTER)
        }
        mapped = {(to_twisted[p], to_twisted[q]) for p, q in drec_covers(n)}
        assert mapped == covers_within(rf.enumerate_avoiders(n, rf.TWISTED_BAXTER))


def test_is_drec_cover_basics():
    assert is_drec_cover((1, 2), (2, 1))
    assert is_drec_cover((2, 1), (1, 2))
    assert not is_drec_cover((1, 2), (1, 2))
    assert not is_drec_cover((1, 2, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        is_drec_cover((3, 1, 4, 2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        is_drec_cover((1, 2, 3, 4), (2, 4, 1, 3))
    with pytest.raises(ValueError):
        is_drec_cover((1, 2), (1, 2, 3))


def test_covers_agree_with_law_reading_adjacency():
    for n in range(2, 6):
        fg = build(n)
        lr_pairs = fg.pairs_tagged({FlipKind.SIMPLE, FlipKind.ROTATION_LR})
        for p, q in itertools.combinations(fg.nodes, 2):
            assert is_drec_cover(p, q) == ((p, q) in lr_pairs)


def test_restricted_order_is_a_lattice():
    for n in range(1, 6):
        words = rf.enumerate_avoiders(n, rf.BAXTER)
        masks = {w: inversion_mask(w) for w in words}
        for p, q in itertools.combinations(words, 2):
            lows = [w for w in words if weak_leq(w, p) and weak_leq(w, q)]
            highs = [w for w in words if weak_leq(p, w) and weak_leq(q, w)]
            meet = max(lows, key=lambda w: masks[w].bit_count())
            join = min(highs, key=lambda w: masks[w].bit_count())
            assert all(weak_leq(w, meet) for w in lows)
            assert all(weak_leq(join, w) for w in highs)
