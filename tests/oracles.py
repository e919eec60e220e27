"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: brute-force scans and wholesale
enumeration, no sharing with the library's algorithms beyond the data
types themselves.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import rectflip as rf

Word = tuple[int, ...]


def brute_contains(word: Word, pattern: Word, glued: frozenset[int]) -> bool:
    """Scan every index subsequence for an order-isomorphic occurrence."""
    k = len(pattern)
    for positions in itertools.combinations(range(len(word)), k):
        if any(positions[i] + 1 != positions[i + 1] for i in range(k - 1) if (i + 1) in glued):
            continue
        values = [word[p] for p in positions]
        if all(
            (values[i] < values[j]) == (pattern[i] < pattern[j])
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return True
    return False


def brute_fibers(n: int) -> dict[tuple, set[Word]]:
    """Group all of S_n by the drawing each word produces."""
    groups: dict[tuple, set[Word]] = defaultdict(set)
    for word in itertools.permutations(range(1, n + 1)):
        groups[rf.rho(word).matrix].add(word)
    return dict(groups)


def find_edge_by_scan(grid, a: int, b: int):
    """The interior edge separating rectangles a and b, by testing every edge."""
    for e in grid.interior_edges():
        if set(grid.edge_labels(e)) == {a, b}:
            return e
    raise ValueError(f"rectangles {a} and {b} share no wall")


def inversion_pairs(word: Word) -> frozenset[tuple[int, int]]:
    n = len(word)
    pos = {v: i for i, v in enumerate(word)}
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if pos[b] < pos[a]
    )


def brute_weak_leq(lo: Word, hi: Word) -> bool:
    return inversion_pairs(lo) <= inversion_pairs(hi)


def brute_covers(words: list[Word]) -> set[tuple[Word, Word]]:
    """Transitive reduction of the weak order restricted to words."""
    out = set()
    for lo in words:
        for hi in words:
            if lo == hi or not brute_weak_leq(lo, hi):
                continue
            if any(
                mid != lo and mid != hi and brute_weak_leq(lo, mid) and brute_weak_leq(mid, hi)
                for mid in words
            ):
                continue
            out.add((lo, hi))
    return out


def slash_consistency_problems(grid) -> list[str]:
    """The anti-diagonal representative suite for one rectangulation.

    Checks that the representative reads 1..n along the anti-diagonal,
    that bottom-left block deletion recovers first the identity and,
    after relabelling by the Baxter word, the Baxter word itself, and
    that reflecting back and canonicalizing lands on the drawing of the
    inverse Baxter word without renaming any rectangle.
    """
    from rectflip.rectangulation import canonicalize, reflect_rows, relabel

    n = grid.n
    ident = tuple(range(1, n + 1))
    baxter = rf.baxter_of(grid)
    slash = rf.slash_representative(grid)
    problems = []
    if rf.antidiagonal_reading(slash) != ident:
        problems.append("antidiagonal reading")
    if rf.block_deletion_word(slash) != ident:
        problems.append("deletion order on the representative")
    relabelled = relabel(slash, {k: baxter[k - 1] for k in ident})
    if rf.block_deletion_word(relabelled) != baxter:
        problems.append("deletion order after relabelling")
    back, ranks = canonicalize(reflect_rows(slash))
    if back.matrix != rf.rho(rf.inverse(baxter)).matrix:
        problems.append("reflected drawing")
    if any(ranks[k] != k for k in ident):
        problems.append("reflected labels not fixed")
    if rf.baxter_of(back) != rf.inverse(baxter):
        problems.append("inverse reading")
    return problems
