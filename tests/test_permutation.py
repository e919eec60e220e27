import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rectflip.permutation import (
    BAXTER,
    CLASSES_BY_NAME,
    RIGHTMOST,
    S_CLASS,
    SEPARABLE,
    TWISTED_BAXTER,
    PatternClass,
    VincularPattern,
    _carry,
    _ends_at,
    _glued_slots,
    _unglued_slots,
    avoids_class,
    check_word,
    consecutive_value_swap,
    contains_vincular,
    enumerate_avoiders,
    format_permutation,
    parse_permutation,
)

from oracles import (
    adjacent_position_swap,
    brute_contains,
    brute_ends_at,
    filter_avoiders,
    inverse,
)

words = lambda lo, hi: st.integers(lo, hi).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)

ALL_PATTERNS = sorted(
    {p for cls in CLASSES_BY_NAME.values() for p in cls.patterns},
    key=str,
)

# Three classes outside the package: 3-12 is not closed under deleting
# the largest entry (3142 avoids it, 312 does not), 231, 21 is fully
# glued, and 2-1-4-3, 3-4-1-2 is the unglued pair whose block rises once
# negated, which no class of the package holds.
EXTRA_CLASSES = tuple(
    PatternClass(name, tuple(VincularPattern.from_dashed(d) for d in name.split(",")))
    for name in ("3-12", "231,21", "2-1-4-3,3-4-1-2")
)


def test_parse_digit_form():
    assert parse_permutation("4165372") == (4, 1, 6, 5, 3, 7, 2)
    assert parse_permutation(" 312 ") == (3, 1, 2)


def test_parse_comma_form():
    word = parse_permutation("10,2,3,4,5,6,7,8,9,1")
    assert word[0] == 10 and word[-1] == 1
    assert format_permutation(word) == "10,2,3,4,5,6,7,8,9,1"


@pytest.mark.parametrize("bad", ["", "0", "122", "13", "1,x", "a21"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_permutation(bad)


@pytest.mark.parametrize("text", ["²1", "1²", "2¹"])
def test_parse_rejects_non_decimal_digits_by_name(text):
    # str.isdigit accepts superscripts, which int() then rejects with a
    # message about int literals; the parser names the text instead.
    with pytest.raises(ValueError) as info:
        parse_permutation(text)
    assert str(info.value) == f"bad permutation text: {text!r}"


def test_pattern_rejects_non_decimal_digits():
    with pytest.raises(ValueError, match="bad pattern text"):
        VincularPattern.from_dashed("2-4²-3")


def test_format_short_is_digits():
    assert format_permutation((3, 1, 2)) == "312"


@given(words(1, 9))
def test_parse_format_round_trip(word):
    assert parse_permutation(format_permutation(word)) == word


def test_check_word_rejects_repeats():
    with pytest.raises(ValueError):
        check_word((1, 1, 2))


def test_dashed_notation():
    p = VincularPattern.from_dashed("2-41-3")
    assert p.word == (2, 4, 1, 3)
    assert sorted(p.glued) == [2]
    assert str(p) == "2-41-3"
    classical = VincularPattern.from_dashed("3-1-4-2")
    assert classical.glued == frozenset()


def test_class_registry():
    assert sorted(CLASSES_BY_NAME) == [
        "baxter",
        "rightmost_class",
        "s_class",
        "separable",
        "twisted_baxter",
    ]
    assert tuple(str(p) for p in BAXTER.patterns) == ("3-14-2", "2-41-3")
    assert tuple(str(p) for p in TWISTED_BAXTER.patterns) == ("3-41-2", "2-41-3")
    assert tuple(str(p) for p in RIGHTMOST.patterns) == ("3-14-2", "2-14-3")
    assert tuple(str(p) for p in S_CLASS.patterns) == ("3-41-2", "2-14-3")
    assert tuple(str(p) for p in SEPARABLE.patterns) == ("3-1-4-2", "2-4-1-3")


def test_matcher_agrees_with_brute_force_exhaustively():
    # Every host up to n=6 against every pattern used by the package,
    # plus a fully glued one to exercise the chain constraint, and the
    # two block-family patterns whose unglued block rises once negated.
    extra = [
        VincularPattern.from_dashed(d) for d in ("231", "21", "2-1-4-3", "3-4-1-2")
    ]
    for n in range(1, 7):
        for host in itertools.permutations(range(1, n + 1)):
            for pattern in ALL_PATTERNS + extra:
                assert contains_vincular(host, pattern) == brute_contains(
                    host, pattern.word, pattern.glued
                ), (host, str(pattern))


def test_end_anchored_matcher_agrees_with_brute_force_exhaustively():
    # _ends_at backtracks on every pattern, the block family included;
    # 21-4-3 and 3-4-12 are glued outside the middle gap.
    extra = [
        VincularPattern.from_dashed(d)
        for d in ("231", "21", "3-12", "2-1-4-3", "3-4-1-2", "21-4-3", "3-4-12")
    ]
    for n in range(1, 7):
        for host in itertools.permutations(range(1, n + 1)):
            for end in range(n):
                for pattern in ALL_PATTERNS + extra:
                    assert _ends_at(host, end, pattern) == brute_ends_at(
                        host, end, pattern.word, pattern.glued
                    ), (host, end, str(pattern))


# The eight patterns a-bc-d and a-b-c-d with {b, c} = {1, 4}.
BLOCK_FAMILY = tuple(
    VincularPattern.from_dashed(d)
    for d in (
        "3-14-2", "2-41-3", "3-41-2", "2-14-3",
        "3-1-4-2", "2-4-1-3", "2-1-4-3", "3-4-1-2",
    )
)


@given(words(1, 12), st.sampled_from(BLOCK_FAMILY))
def test_matcher_agrees_with_brute_force(host, pattern):
    # BLOCK_FAMILY holds every pattern of ALL_PATTERNS.
    assert contains_vincular(host, pattern) == brute_contains(
        host, pattern.word, pattern.glued
    )


# Each class at n = 9: the count, and the SHA-256 of its words' bytes
# joined in order, as enumeration returned them before the interval rule.
AVOIDERS_9 = {
    "baxter": (
        58202, "7baa780abd52117796d2d11200dee0afb77055929ec26b39f8b03289e9dbd080"
    ),
    "twisted_baxter": (
        58202, "f257f09200dfbf65dfc05fe9ce07624e50705ad37b05e412cf0e8b9ef3bbaca4"
    ),
    "rightmost_class": (
        58202, "353b2011a703ac6ac5c4c22d583c03754174acfbab60647d82316fad5893c875"
    ),
    "s_class": (
        37182, "129b9d8d192cae339d0fcba5947cd05997a78154900e45926991db24eb01f6bf"
    ),
    "separable": (
        41586, "c99508c4f2471d1c9547fd2d72dfb4b9471a451442867444493d02c1b7b77ee6"
    ),
}


def test_carried_masks_forbid_exactly_the_completing_slots():
    # Every word with n <= 7 is a prefix of size n - 1 grown at one slot,
    # and every prefix is grown here from the empty word by the carry,
    # so this covers every end letter of every such word.
    for pattern in BLOCK_FAMILY:
        level = [((), 0)]
        for p in range(7):
            grown = []
            for prefix, mask in level:
                if pattern.glued:
                    b = prefix[-1] if prefix else 0
                    new = [_glued_slots(pattern, b, v) for v in range(p + 2)]
                else:
                    new = _unglued_slots(prefix, pattern)
                for v in range(1, p + 2):
                    child = tuple(u + (u >= v) for u in prefix) + (v,)
                    assert bool(mask >> v & 1) == brute_ends_at(
                        child, p, pattern.word, pattern.glued
                    ), (prefix, v, str(pattern))
                    grown.append((child, _carry(mask, v) | new[v]))
            level = grown


def test_avoider_counts():
    # n = 9 is past the reach of the filter oracle below.  Baxter numbers
    # are OEIS A001181, separable ones the large Schroeder numbers A006318.
    assert [len(enumerate_avoiders(n, BAXTER)) for n in range(1, 9)] == [
        1, 2, 6, 22, 92, 422, 2074, 10754,
    ]
    assert [len(enumerate_avoiders(n, SEPARABLE)) for n in range(1, 9)] == [
        1, 2, 6, 22, 90, 394, 1806, 8558,
    ]
    assert [len(enumerate_avoiders(n, S_CLASS)) for n in range(1, 9)] == [
        1, 2, 6, 22, 88, 374, 1668, 7744,
    ]
    for name, (count, digest) in AVOIDERS_9.items():
        words = enumerate_avoiders(9, CLASSES_BY_NAME[name])
        assert len(words) == count, name
        assert hashlib.sha256(b"".join(map(bytes, words))).hexdigest() == digest, name


def test_three_classes_are_equinumerous():
    for n in range(1, 9):
        base = len(enumerate_avoiders(n, BAXTER))
        assert len(enumerate_avoiders(n, TWISTED_BAXTER)) == base
        assert len(enumerate_avoiders(n, RIGHTMOST)) == base


@pytest.mark.parametrize(
    "pclass", [*CLASSES_BY_NAME.values(), *EXTRA_CLASSES], ids=lambda c: c.name
)
def test_enumeration_matches_the_filter(pclass):
    for n in range(0, 8):
        assert enumerate_avoiders(n, pclass) == filter_avoiders(n, pclass.patterns), n


def test_enumeration_rejects_negative_sizes():
    # Size 0 has the one empty avoider (test_enumeration_matches_the_filter).
    with pytest.raises(ValueError):
        enumerate_avoiders(-2, BAXTER)


def test_enumeration_keeps_3142_for_3_12():
    # Inserting n into the size-(n-1) avoiders would miss it.
    assert (3, 1, 4, 2) in enumerate_avoiders(4, EXTRA_CLASSES[0])


def test_enumeration_is_lexicographic():
    # Levels grow reversed and in colex order, with no final sort.
    for pclass in [*CLASSES_BY_NAME.values(), *EXTRA_CLASSES]:
        for n in range(0, 9):
            found = enumerate_avoiders(n, pclass)
            assert all(a < b for a, b in zip(found, found[1:])), (pclass.name, n)
    found = enumerate_avoiders(4, BAXTER)
    assert (2, 4, 1, 3) not in found and (3, 1, 4, 2) not in found


def test_reversal_mirrors_the_glued_gaps():
    # Enumeration grows words reversed, so it matches reversed patterns.
    assert str(VincularPattern.from_dashed("3-12").reversed()) == "21-3"
    extra = [
        VincularPattern.from_dashed(d)
        for d in ("231", "21", "21-4-3", "3-4-12")
    ]
    patterns = {
        *ALL_PATTERNS, *BLOCK_FAMILY, *extra,
        *(p for cls in EXTRA_CLASSES for p in cls.patterns),
    }
    for pattern in patterns:
        assert pattern.reversed().reversed() == pattern, str(pattern)
    assert {p.reversed() for p in BLOCK_FAMILY} == set(BLOCK_FAMILY)
    for n in range(1, 7):
        for host in itertools.permutations(range(1, n + 1)):
            for pattern in patterns:
                back = pattern.reversed()
                assert brute_contains(host[::-1], back.word, back.glued) == brute_contains(
                    host, pattern.word, pattern.glued
                ), (host, str(pattern))


def test_baxter_closed_under_inverse():
    for n in range(1, 8):
        avoiders = set(enumerate_avoiders(n, BAXTER))
        assert {inverse(w) for w in avoiders} == avoiders


def test_inverse_of_running_example():
    assert inverse((4, 1, 6, 5, 3, 7, 2)) == (2, 7, 5, 1, 4, 3, 6)


@given(words(1, 8))
def test_inverse_properties(word):
    inv = inverse(word)
    assert inverse(inv) == word
    for i, v in enumerate(word):
        assert inv[v - 1] == i + 1


@given(words(2, 7), st.data())
def test_swaps_are_involutions(word, data):
    k = data.draw(st.integers(1, len(word) - 1))
    assert consecutive_value_swap(consecutive_value_swap(word, k), k) == word
    assert adjacent_position_swap(adjacent_position_swap(word, k), k) == word


@given(words(2, 7), st.data())
def test_value_swap_is_position_swap_of_the_inverse(word, data):
    k = data.draw(st.integers(1, len(word) - 1))
    assert inverse(consecutive_value_swap(word, k)) == adjacent_position_swap(
        inverse(word), k
    )


def test_swap_range_errors():
    with pytest.raises(ValueError):
        consecutive_value_swap((2, 1), 2)
    with pytest.raises(ValueError):
        adjacent_position_swap((2, 1), 0)


@given(words(1, 10))
def test_avoids_class_matches_contains(word):
    # avoids_class backtracks from each end of the word; the oracle scans
    # every choice of positions.
    for cls in CLASSES_BY_NAME.values():
        assert avoids_class(word, cls) == (
            not any(brute_contains(word, p.word, p.glued) for p in cls.patterns)
        ), cls.name
