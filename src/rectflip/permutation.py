"""One-line permutations of {1, ..., n} and vincular pattern avoidance.

A permutation is stored as a tuple of values, so ``(3, 1, 2)`` is the
permutation sending position 1 to 3, position 2 to 1, position 3 to 2.
Patterns are given in dashed notation: ``"2-41-3"`` is the classical
pattern 2413 with the extra requirement that the 4 and the 1 occupy
adjacent positions in the host permutation.  An occurrence inside a
prefix is an occurrence in the whole word, so every standardised prefix
of an avoider is an avoider, and avoiders are grown one appended letter
at a time, checking only the occurrences that end at the new letter.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]


def check_word(word: Word) -> None:
    """Raise ValueError unless word is a permutation of 1..n in one-line form."""
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word!r}")


def inverse(word: Word) -> Word:
    """Inverse permutation: position of each value.

    The defining property is ``inverse(w)[w[i] - 1] == i + 1`` for every
    0-based index i.

    >>> inverse((4, 1, 6, 5, 3, 7, 2))
    (2, 7, 5, 1, 4, 3, 6)
    """
    out = [0] * len(word)
    for pos, value in enumerate(word, start=1):
        out[value - 1] = pos
    return tuple(out)


def inversion_set(word: Word) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b) with a < b such that b appears before a.

    >>> sorted(inversion_set((3, 1, 2)))
    [(1, 3), (2, 3)]
    """
    pos = inverse(word)
    n = len(word)
    return frozenset(
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if pos[b - 1] < pos[a - 1]
    )


def consecutive_value_swap(word: Word, k: int) -> Word:
    """Exchange the values k and k+1, leaving all positions fixed.

    >>> consecutive_value_swap((4, 6, 5, 1, 3, 7, 2), 5)
    (4, 5, 6, 1, 3, 7, 2)
    """
    if not 1 <= k < len(word):
        raise ValueError(f"k must be in 1..{len(word) - 1}, got {k}")
    swap = {k: k + 1, k + 1: k}
    return tuple(swap.get(v, v) for v in word)


def adjacent_position_swap(word: Word, j: int) -> Word:
    """Exchange the entries at positions j and j+1 (1-based)."""
    if not 1 <= j < len(word):
        raise ValueError(f"j must be in 1..{len(word) - 1}, got {j}")
    out = list(word)
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


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
    if "," in text:
        try:
            word = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"bad permutation text: {text!r}") from None
    else:
        if not text.isdecimal():
            raise ValueError(f"bad permutation text: {text!r}")
        word = tuple(int(ch) for ch in text)
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


def _ends_at(word: Word, end: int, pattern: VincularPattern) -> bool:
    """True when some occurrence of the pattern has its last letter at word[end]."""
    pat, glued = pattern.word, pattern.glued
    k = len(pat)
    if end < k - 1:
        return False
    last, q_last = word[end], pat[-1]
    if k == 4 and glued <= {2} and {pat[1], pat[2]} == {1, 4}:
        # The length-4 patterns used throughout this package.  The middle
        # block holds the smallest and largest letters, and the first
        # letter lies between the last letter and the block letter on its
        # side.  After negating every value when needed, that side is
        # below: first is the largest value below the last letter so far.
        # A glued block ends right after it starts, so there armed lasts
        # one entry; unset is below every value.
        rising, adjacent = pat[1] < pat[2], 2 in glued
        if pat[0] > q_last:
            word, last, rising = [-u for u in word], -last, not rising
        unset = -len(word) - 1
        first = armed = unset
        if rising:
            # A block starts below the last letter, so first is checked
            # at the start; armed marks a start that passed.
            for v in word[:end]:
                if v > last:
                    if armed != unset:
                        return True
                elif v < first:
                    armed = first
                else:
                    first = v
                    if adjacent:
                        armed = unset
            return False
        # A block ends below the last letter; armed carries first from the
        # latest start, which only grows, to be checked at the end.
        for v in word[:end]:
            if v > last:
                armed = first
            elif v < armed:
                return True
            else:
                if adjacent:
                    armed = unset
                if first < v:
                    first = v
        return False

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
    """True when word contains an occurrence of the vincular pattern."""
    ends = range(len(pattern.word) - 1, len(word))
    return any(_ends_at(word, end, pattern) for end in ends)


def avoids_class(word: Word, pclass: PatternClass) -> bool:
    return not any(contains_vincular(word, p) for p in pclass.patterns)


def enumerate_avoiders(n: int, pclass: PatternClass) -> list[Word]:
    """All avoiders of the class in lexicographic order.

    Level k grows from level k - 1 by raising every entry >= v and
    appending v, for each v in 1..k.  Every standardised prefix of an
    avoider is an avoider, so this misses none, and a prefix holds no
    occurrence, so only occurrences ending at v need checking.
    """
    level: list[Word] = [()]
    for k in range(1, n + 1):
        level = [
            word
            for prefix in level
            for v in range(1, k + 1)
            for word in (tuple(u + (u >= v) for u in prefix) + (v,),)
            if not any(_ends_at(word, k - 1, p) for p in pclass.patterns)
        ]
    level.sort()
    return level
