"""One-line permutations of {1, ..., n} and vincular pattern avoidance.

A permutation is stored as a tuple of values, so ``(3, 1, 2)`` is the
permutation sending position 1 to 3, position 2 to 1, position 3 to 2.
Patterns are given in dashed notation: ``"2-41-3"`` is the classical
pattern 2413 with the extra requirement that the 4 and the 1 occupy
adjacent positions in the host permutation.  An occurrence inside a
prefix is an occurrence in the whole word, so every standardised prefix
of an avoider is an avoider.  Enumeration grows the avoiders' reverses,
which avoid the reversed patterns, one appended letter at a time,
checking only the occurrences that end at the new letter; building each
level slot by slot keeps it in order with no sort.

Every pattern of the five classes, and its reverse, has the form a-bc-d
or a-b-c-d with {b, c} = {1, 4}.  For such a pattern enumeration hands
each prefix's mask of completing slots down to its children: a child
keeps its parent's slots and adds those completed through its own last
letter, which can only be an occurrence's third letter.  Any other
pattern, and every question about one whole word, is answered by the
backtracker of ``_ends_at``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import or_

Word = tuple[int, ...]


def check_word(word: Word) -> None:
    """Raise ValueError unless word is a permutation of 1..n in one-line form."""
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word!r}")


def consecutive_value_swap(word: Word, k: int) -> Word:
    """Exchange the values k and k+1, leaving all positions fixed.

    >>> consecutive_value_swap((4, 6, 5, 1, 3, 7, 2), 5)
    (4, 5, 6, 1, 3, 7, 2)
    """
    if not 1 <= k < len(word):
        raise ValueError(f"k must be in 1..{len(word) - 1}, got {k}")
    swap = {k: k + 1, k + 1: k}
    return tuple(swap.get(v, v) for v in word)


def parse_permutation(text: str) -> Word:
    """Parse either a digit string (n <= 9) or a comma-separated list.

    >>> parse_permutation("4165372")
    (4, 1, 6, 5, 3, 7, 2)
    >>> parse_permutation("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    try:
        if not text.isascii() or "_" in text:  # int() reads other digits and 1_0
            raise ValueError
        word = tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"bad permutation text: {text!r}") from None
    check_word(word)
    return word


def format_permutation(word: Word) -> str:
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


@dataclass(frozen=True)
class VincularPattern:
    """A pattern word plus the set of glued gaps.

    ``glued`` holds 1-based indices i meaning pattern positions i and
    i+1 must be matched to adjacent host positions.
    """

    word: Word
    glued: frozenset[int]

    @staticmethod
    def from_dashed(text: str) -> "VincularPattern":
        """Build from dashed notation.

        >>> p = VincularPattern.from_dashed("2-41-3")
        >>> p.word, sorted(p.glued)
        ((2, 4, 1, 3), [2])
        """
        groups = text.split("-")
        word: list[int] = []
        glued: set[int] = set()
        for group in groups:
            if not group.isdecimal():
                raise ValueError(f"bad pattern text: {text!r}")
            for offset, ch in enumerate(group):
                if offset > 0:
                    glued.add(len(word))
                word.append(int(ch))
        pattern = tuple(word)
        check_word(pattern)
        return VincularPattern(pattern, frozenset(glued))

    def reversed(self) -> "VincularPattern":
        """The pattern read right to left: glued gap i becomes gap k - i."""
        k = len(self.word)
        return VincularPattern(self.word[::-1], frozenset(k - i for i in self.glued))

    def __str__(self) -> str:
        parts = []
        for i, v in enumerate(self.word, start=1):
            if i > 1 and (i - 1) not in self.glued:
                parts.append("-")
            parts.append(str(v))
        return "".join(parts)


@dataclass(frozen=True)
class PatternClass:
    name: str
    patterns: tuple[VincularPattern, ...]


def _pattern_class(name: str, *dashed: str) -> PatternClass:
    return PatternClass(name, tuple(VincularPattern.from_dashed(d) for d in dashed))


BAXTER = _pattern_class("baxter", "3-14-2", "2-41-3")
TWISTED_BAXTER = _pattern_class("twisted_baxter", "3-41-2", "2-41-3")
RIGHTMOST = _pattern_class("rightmost_class", "3-14-2", "2-14-3")
S_CLASS = _pattern_class("s_class", "3-41-2", "2-14-3")
SEPARABLE = _pattern_class("separable", "3-1-4-2", "2-4-1-3")

CLASSES_BY_NAME = {
    cls.name: cls for cls in (BAXTER, TWISTED_BAXTER, RIGHTMOST, S_CLASS, SEPARABLE)
}


def _in_block_family(pattern: VincularPattern) -> bool:
    # a-bc-d or a-b-c-d with {b, c} = {1, 4}: every pattern of the five
    # classes, and 2-1-4-3 and 3-4-1-2.
    pat = pattern.word
    return len(pat) == 4 and pattern.glued <= {2} and {pat[1], pat[2]} == {1, 4}


def _glued_slots(pattern: VincularPattern, b: int, v: int) -> int:
    """The slots of a prefix's child at slot v, as a bit mask, that complete
    an occurrence of the glued block-family pattern whose block is the
    prefix's last letter b (0 for none), raised if it is >= v, and v.

    >>> bin(_glued_slots(VincularPattern.from_dashed("3-14-2"), 1, 4))
    '0b1100'
    """
    pat = pattern.word
    b += b >= v
    if (b < v) != (pat[1] < pat[2]):
        return 0
    lo, hi = min(b, v), max(b, v)
    return (1 << hi) - (2 << lo) if pat[0] > pat[3] else (2 << hi) - (4 << lo)


def _unglued_slots(word: Sequence[int], pattern: VincularPattern) -> list[int]:
    """Entry v, for v in 0..len(word) + 1: the slots at which the child of
    word grown at slot v is completed by an occurrence of the unglued
    block-family pattern through that child's last letter."""
    pat = pattern.word
    rising, above = pat[1] < pat[2], pat[0] > pat[3]
    p = len(word)
    table = [0] * (p + 2)
    # Letter u, given a later letter below it when the block rises or
    # above it when it falls, completes slots for every v above u or for
    # every v up to u, so table[u + 1] or table[u] holds them and a
    # running union over v gathers them.  Where v bounds the completing
    # letters (2-1-4-3, 3-4-1-2) the union is clipped at v.
    later = p + 1 if rising else 0  # the least or the greatest letter after u
    for u in reversed(word):
        if rising and later < u:
            table[u + 1] |= (1 << u + 1) - (2 << later) if above else -(2 << u)
        elif not rising and later > u:
            table[u] |= (4 << u) - 1 if above else (4 << later) - (4 << u)
        later = min(later, u) if rising else max(later, u)
    acc = 0
    for v in range(p + 2) if rising else range(p + 1, -1, -1):
        acc |= table[v]
        table[v] = acc & ((2 << v) - 1 if rising else -(2 << v)) if rising != above else acc
    return table


def _carry(mask: int, v: int) -> int:
    """The forbidden-slot mask of a prefix, carried to its child at slot v.

    The child keeps the prefix's mask with bit v duplicated, since both
    of its slots v and v + 1 sit where slot v sat; the slots completed
    through its last letter v are the caller's to add.
    """
    return mask & (2 << v) - 1 | mask >> v << v + 1


def _ends_at(word: Sequence[int], end: int, pattern: VincularPattern) -> bool:
    """True when some occurrence of the pattern has its last letter at word[end]."""
    pat, glued = pattern.word, pattern.glued
    k = len(pat)
    if end < k - 1:
        return False
    last, q_last = word[end], pat[-1]

    # Backtrack over the first k - 1 letters, all left of end, comparing
    # each candidate with the fixed last letter as well.
    def extend(values: list[int], last_pos: int) -> bool:
        j = len(values)
        if j == k - 1:
            return j not in glued or last_pos + 1 == end
        q = pat[j]
        stop = min(last_pos + 2, end) if j in glued else end
        for pos in range(last_pos + 1, stop):
            v = word[pos]
            if (v > last) == (q > q_last) and all(
                (v > u) == (q > p) for p, u in zip(pat, values)
            ):
                values.append(v)
                if extend(values, pos):
                    return True
                values.pop()
        return False

    return extend([], -1)


def contains_vincular(word: Word, pattern: VincularPattern) -> bool:
    """True when word contains an occurrence of the vincular pattern,
    asking ``_ends_at`` of each end of word in turn.

    >>> contains_vincular((2, 4, 1, 3), VincularPattern.from_dashed("2-41-3"))
    True
    >>> contains_vincular((2, 4, 1, 3), VincularPattern.from_dashed("2-14-3"))
    False
    """
    return any(_ends_at(word, end, pattern) for end in range(len(word)))


def avoids_class(word: Word, pclass: PatternClass) -> bool:
    """True when word contains none of the class's patterns.

    >>> avoids_class((4, 6, 5, 1, 3, 7, 2), BAXTER)
    True
    >>> avoids_class((4, 6, 5, 1, 3, 7, 2), SEPARABLE)
    False
    """
    return not any(contains_vincular(word, p) for p in pclass.patterns)


def enumerate_avoiders(n: int, pclass: PatternClass) -> list[Word]:
    """All avoiders of the class in lexicographic order.

    The reverses of the avoiders are grown, since a word avoids a
    pattern iff its reverse avoids the reversed pattern.  Level k grows
    from level k - 1: the child of a prefix at slot v in 1..k raises
    every entry >= v and appends v.  Every standardised prefix of an
    avoider is an avoider, so this misses none, and only occurrences
    ending at v count.  Each prefix carries a mask of the slots that
    complete an occurrence of a block-family pattern, and only its free
    slots get a child, whose mask is its parent's, carried by ``_carry``,
    plus the slots completed through its last letter (O(1) for a glued
    pattern, an O(k) table per prefix for an unglued one).  Any other
    pattern is checked on each child by ``_ends_at``.  Level k is built
    slot by slot, so it is in colex order, and the last level, which
    carries no masks, is reversed into lexicographic order as it becomes
    tuples.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return [()]
    patterns = [p.reversed() for p in pclass.patterns]
    family = [p for p in patterns if _in_block_family(p)]
    unglued = [p for p in family if not p.glued]
    others = [p for p in patterns if not _in_block_family(p)]
    # rows[b][v]: the glued patterns' slots for a prefix ending in b.
    rows = [
        [reduce(or_, [_glued_slots(p, b, v) for p in family if p.glued], 0) for v in range(n + 1)]
        for b in range(n)
    ]
    # raise_from[v] maps each value u >= v to u + 1.
    raise_from = [bytes(min(u + (u >= v), 255) for u in range(256)) for v in range(n + 1)]
    steps = [(v, raise_from[v], bytes((v,))) for v in range(1, n + 1)]

    def slots_through_last(prefix: bytes) -> list[int]:  # entry v for the child at v
        new = rows[prefix[-1] if prefix else 0]
        for pattern in unglued:
            new = [x | y for x, y in zip(new, _unglued_slots(prefix, pattern))]
        return new

    level = [(b"", 0)]
    for k in range(1, n + 1):
        if k < n:
            level = [(w, mask, slots_through_last(w)) for w, mask in level]
            grown = [
                (w.translate(up) + end, _carry(mask, v) | new[v])
                for v, up, end in steps[:k] for w, mask, new in level if not mask >> v & 1
            ]
        else:
            grown = [
                w.translate(up) + end
                for v, up, end in steps[:k] for w, mask in level if not mask >> v & 1
            ]
        if others:
            grown = [
                c for c in grown
                if not any(_ends_at(c if k == n else c[0], k - 1, p) for p in others)
            ]
        level = grown
    # In place, so the bytes and the tuples are never all held at once.
    for i, word in enumerate(level):
        level[i] = tuple(word[::-1])
    return level
