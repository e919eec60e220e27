"""Weak order on permutations and its restriction to Baxter permutations.

Inversion sets are integer bitmasks, so one comparison is one mask
test; a set of words is an integer bitset, and ANDs of one bitset per
value pair give down-sets without a pairwise scan.  The restriction of
the weak order to Baxter permutations is the lattice whose cover pairs
drive the Law-Reading side of the flip taxonomy.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import or_
from typing import Iterable, Sequence

from .permutation import BAXTER, Word, enumerate_avoiders


def inversion_mask(word: Word) -> int:
    """Inversion set as a bitmask over value pairs, packed by the larger
    value: pair (a, b) with a < b is bit (b - 1)(b - 2)/2 + a - 1, so the
    smaller letters after b fill one block of it."""
    mask = later = 0
    for b in reversed(word):
        mask |= (later & (1 << b - 1) - 1) << (b - 1) * (b - 2) // 2
        later |= 1 << b - 1
    return mask


def pair_bitsets(masks: Sequence[int]) -> list[int]:
    """Entry p is the bitset of the positions k at which masks[k] has bit p."""
    width = reduce(or_, masks, 0).bit_length()
    return [
        int("".join("1" if m >> p & 1 else "0" for m in reversed(masks)), 2)
        for p in range(width)
    ]


def down_set(bitsets: Sequence[int], size: int, mask: int) -> int:
    """The weak-order down-set of ``mask`` among ``size`` masks, as a bitset.

    ``bitsets`` is :func:`pair_bitsets` of the masks.
    """
    found = (1 << size) - 1
    for p, bits in enumerate(bitsets):
        if not mask >> p & 1:
            found &= ~bits
    return found


def covers_within(words: Iterable[Word]) -> set[tuple[Word, Word]]:
    """Cover pairs of the order the weak order induces on ``words``.

    A pair (lo, hi) is a cover when lo < hi and no third listed word
    lies strictly between.  With the distinct words indexed by
    inversion count, a word's lower covers come from its down-set bitset
    (:func:`down_set`): take the top bit of the part below its count, a
    maximal word, and clear that word's down-set, until nothing is left.
    Of several words with one inversion set, only the first listed
    enters a cover, and none covers another.
    """
    masks = {w: inversion_mask(w) for w in words}
    # reversed, so that of equal counts the first listed is on top
    items = sorted(reversed(masks.items()), key=lambda wm: wm[1].bit_count())
    bitsets = pair_bitsets([m for _, m in items])
    down = [down_set(bitsets, len(items), m) for _, m in items]
    covers: set[tuple[Word, Word]] = set()
    start = 0
    for i, (hi, m) in enumerate(items):
        if m.bit_count() != items[start][1].bit_count():
            start = i
        rest = down[i] & ((1 << start) - 1)
        while rest:
            j = rest.bit_length() - 1
            covers.add((items[j][0], hi))
            rest &= ~down[j]
    return covers


@cache
def drec_covers(n: int) -> frozenset[tuple[Word, Word]]:
    """Cover pairs of the weak order restricted to Baxter permutations.

    Computed by transitive reduction over the restricted comparability
    relation, independent of any flip machinery, so that comparing the
    two is a genuine cross-check.
    """
    return frozenset(covers_within(enumerate_avoiders(n, BAXTER)))
