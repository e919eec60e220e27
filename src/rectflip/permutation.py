"""One-line permutations of {1, ..., n} and vincular pattern avoidance.

A permutation is stored as a tuple of values, so ``(3, 1, 2)`` is the
permutation sending position 1 to 3, position 2 to 1, position 3 to 2.
Patterns are given in dashed notation: ``"2-41-3"`` is the classical
pattern 2413 with the extra requirement that the 4 and the 1 occupy
adjacent positions in the host permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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
        if not text.isdigit():
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
            if not group.isdigit():
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


def _contains_mid_glued_extremes(word: Word, pattern: Word) -> bool:
    # Specialised matcher for the length-4 patterns used throughout this
    # package: the middle two letters are {1, 4} and must sit in adjacent
    # host positions, the outer two letters are {2, 3}.  Scan each
    # adjacent host pair as the 14/41 block, then look for an extremal
    # witness on each side.
    p1, p2, p3, p4 = pattern
    n = len(word)
    for i in range(1, n - 2):
        v2, v3 = word[i], word[i + 1]
        if (v2 < v3) != (p2 < p3):
            continue
        lo, hi = min(v2, v3), max(v2, v3)
        left = [v for v in word[:i] if lo < v < hi]
        if not left:
            continue
        if p1 < p4:
            v1 = min(left)
            if any(v1 < v < hi for v in word[i + 2 :]):
                return True
        else:
            v1 = max(left)
            if any(lo < v < v1 for v in word[i + 2 :]):
                return True
    return False


def _contains_general(word: Word, pattern: Word, glued: frozenset[int]) -> bool:
    k = len(pattern)
    n = len(word)

    def extend(values: list[int], last_pos: int) -> bool:
        j = len(values)
        if j == k:
            return True
        q = pattern[j]
        if j > 0 and j in glued:
            candidates: Iterable[int] = (
                (last_pos + 1,) if last_pos + 1 < n else ()
            )
        else:
            candidates = range(last_pos + 1, n)
        for pos in candidates:
            v = word[pos]
            if all((v > u) == (q > p) for p, u in zip(pattern, values)):
                values.append(v)
                if extend(values, pos):
                    return True
                values.pop()
        return False

    return extend([], -1)


def contains_vincular(word: Word, pattern: VincularPattern) -> bool:
    """True when word contains an occurrence of the vincular pattern."""
    pat = pattern.word
    if len(word) < len(pat):
        return False
    if (
        len(pat) == 4
        and pattern.glued == frozenset({2})
        and {pat[1], pat[2]} == {1, 4}
        and {pat[0], pat[3]} == {2, 3}
    ):
        return _contains_mid_glued_extremes(word, pat)
    return _contains_general(word, pat, pattern.glued)


def avoids_class(word: Word, pclass: PatternClass) -> bool:
    return not any(contains_vincular(word, p) for p in pclass.patterns)


def iter_avoiders(n: int, pclass: PatternClass) -> Iterator[Word]:
    for word in itertools.permutations(range(1, n + 1)):
        if avoids_class(word, pclass):
            yield word


def enumerate_avoiders(n: int, pclass: PatternClass) -> list[Word]:
    """All avoiders of the class in lexicographic order."""
    return list(iter_avoiders(n, pclass))
