"""Typed flip graph over all drawings of a given size, plus verification suites.

The graph's nodes are keyed by the permutations that generate the
drawings; each undirected edge carries the flip kinds connecting its
endpoints with a multiplicity per kind.  The verify_* functions compare
flip-side adjacency against relations computed purely on the
permutation side, so each suite is a genuine cross-check rather than a
tautology.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .bijection import baxter_of
from .flips import FlipKind, _edge_recuts
from .order import drec_covers
from .permutation import (
    BAXTER,
    RIGHTMOST,
    TWISTED_BAXTER,
    Word,
    consecutive_value_swap,
    enumerate_avoiders,
    format_permutation,
)
from .rectangulation import (
    GridRectangulation,
    _check_tiling,
    _peel,
    _run_box,
    _run_boxes,
    block_deletion_word,
    peel_predecessors,
    rho,
)

Pair = tuple[Word, Word]


def _sorted_pair(a: Word, b: Word) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, eq=False)
class FlipGraph:
    """Flip adjacency between all drawings of one size.

    ``grids`` holds each node's canonical drawing, its matrix and boxes
    only.  Parallel flips between the same two drawings collapse to a
    single edge per kind with a multiplicity counter.
    """

    n: int
    nodes: tuple[Word, ...]
    grids: dict[Word, GridRectangulation]
    edges: dict[Pair, dict[FlipKind, int]]

    def pairs_tagged(self, kinds: set[FlipKind]) -> set[Pair]:
        return {pair for pair, tags in self.edges.items() if kinds & tags.keys()}


@cache
def build(n: int) -> FlipGraph:
    """Flip graph on every drawing of size n.

    Each flip result is keyed by the Baxter word read off its recut, one
    corner deletion and no drawing per flip; a word that is not a node
    raises KeyError.  The verification suites check the keys against the
    permutation side independently.
    """
    words = enumerate_avoiders(n, BAXTER)
    grids = {w: rho(w) for w in words}
    # Edges share the nodes' own word tuples rather than hold copies.
    key_of = dict(zip(words, words))
    directed: Counter = Counter()
    for w, grid in grids.items():
        for _, flip_class, recut in _edge_recuts(grid):
            if flip_class.flippable:
                directed[w, key_of[block_deletion_word(recut)], flip_class.kind] += 1
    edges: dict[Pair, dict[FlipKind, int]] = {}
    for (w, w2, kind), count in directed.items():
        assert directed[w2, w, kind] == count
        edges.setdefault(_sorted_pair(w, w2), {})[kind] = count
    return FlipGraph(n, tuple(words), grids, edges)


def _adjacency(
    fg: FlipGraph, kinds: set[FlipKind] | None = None
) -> dict[Word, set[Word]]:
    adj: dict[Word, set[Word]] = {w: set() for w in fg.nodes}
    for (a, b), tags in fg.edges.items():
        if kinds is None or kinds & tags.keys():
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _reach(adj: dict[Word, set[Word]]) -> tuple[int, list[int]]:
    # After k rounds of reach[v] |= reach[u] over neighbours u, reach[v]
    # is the bitset of nodes within k flips of v.  Rounds stop when every
    # set is full or none grows; each set is then its node's component.
    index = {w: i for i, w in enumerate(adj)}
    nbrs = [[index[u] for u in adj[w]] for w in adj]
    full = (1 << len(nbrs)) - 1
    reach = [1 << i for i in range(len(nbrs))]
    rounds = 0
    while any(r != full for r in reach):
        grown = []
        for r, around in zip(reach, nbrs):
            for u in around:
                r |= reach[u]
            grown.append(r)
        if grown == reach:
            break
        reach, rounds = grown, rounds + 1
    return rounds, reach


def simple_flip_components(n: int) -> int:
    """Connected components of the simple-flips-only subgraph."""
    return len(set(_reach(_adjacency(build(n), {FlipKind.SIMPLE}))[1]))


def metrics(fg: FlipGraph) -> dict:
    """Exact degree statistics, connectivity and diameter.

    Degrees count flip multiplicities, so a node's degree is the number
    of flippable edges of its drawing.  The diameter comes from rounds
    of bitset reachability (one bit per node) and is None when the graph
    is disconnected.
    """
    degrees = dict.fromkeys(fg.nodes, 0)
    for (a, b), tags in fg.edges.items():
        m = sum(tags.values())
        degrees[a] += m
        degrees[b] += m
    rounds, reach = _reach(_adjacency(fg))
    connected = len(set(reach)) == 1
    values = list(degrees.values())
    return {
        "diameter": rounds if connected else None,
        "degree_min": min(values),
        "degree_max": max(values),
        "degree_mean": sum(values) / len(values),
        "connected": connected,
    }


@dataclass(frozen=True)
class VerificationReport:
    name: str
    n: int
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED, {len(self.failures)} counterexamples"
        return f"{self.name} n={self.n}: checked {self.checked}, {status}"


def _fmt_pair(pair: Pair) -> str:
    return f"({format_permutation(pair[0])}, {format_permutation(pair[1])})"


def compare_edge_sets(
    name: str,
    n: int,
    flip_side: set[Pair],
    oracle_side: set[Pair],
    flip_desc: str,
    oracle_desc: str,
) -> VerificationReport:
    """Set equality with one readable failure line per missing pair."""
    failures = []
    for pair in sorted(flip_side - oracle_side):
        failures.append(f"{_fmt_pair(pair)} is {flip_desc} but not {oracle_desc}")
    for pair in sorted(oracle_side - flip_side):
        failures.append(f"{_fmt_pair(pair)} is {oracle_desc} but not {flip_desc}")
    return VerificationReport(name, n, len(flip_side | oracle_side), tuple(failures))


def _swap_pairs(fg: FlipGraph) -> set[Pair]:
    # Baxter pairs one consecutive-value swap apart
    nodes = set(fg.nodes)
    pairs = set()
    for w in fg.nodes:
        for k in range(1, fg.n):
            other = consecutive_value_swap(w, k)
            if other in nodes:
                pairs.add(_sorted_pair(w, other))
    return pairs


def _cover_pairs(n: int) -> set[Pair]:
    return {_sorted_pair(a, b) for a, b in drec_covers(n)}


def verify_theorem_main(n: int) -> VerificationReport:
    """Barcelona-flip adjacency against consecutive-value-swap adjacency."""
    fg = build(n)
    flip_side = fg.pairs_tagged({FlipKind.SIMPLE, FlipKind.ROTATION_BARCELONA})
    return compare_edge_sets(
        "theorem_main",
        n,
        flip_side,
        _swap_pairs(fg),
        "Barcelona-flip adjacent",
        "one consecutive-value swap apart",
    )


def verify_theorem_lr(n: int) -> VerificationReport:
    """Law-Reading-flip adjacency against weak-order covers on Baxter elements."""
    fg = build(n)
    flip_side = fg.pairs_tagged({FlipKind.SIMPLE, FlipKind.ROTATION_LR})
    return compare_edge_sets(
        "theorem_lr",
        n,
        flip_side,
        _cover_pairs(n),
        "Law-Reading-flip adjacent",
        "a cover of the restricted weak order",
    )


def verify_characterization(n: int) -> VerificationReport:
    """Simple flips as the intersection, all flips as the union, of the two relations."""
    fg = build(n)
    swaps = _swap_pairs(fg)
    covers = _cover_pairs(n)
    inter = compare_edge_sets(
        "characterization",
        n,
        fg.pairs_tagged({FlipKind.SIMPLE}),
        swaps & covers,
        "Simple-flip adjacent",
        "in both permutation-side relations",
    )
    union = compare_edge_sets(
        "characterization",
        n,
        set(fg.edges),
        swaps | covers,
        "flip adjacent",
        "in some permutation-side relation",
    )
    return VerificationReport(
        "characterization",
        n,
        inter.checked + union.checked,
        inter.failures + union.failures,
    )


def _box_key(boxes: list[tuple[int, int, int, int]]) -> bytes:
    # The coordinates of boxes in label order, one byte each.
    return bytes(itertools.chain.from_iterable(boxes))


def _group(n: int) -> dict[bytes, list[bytes]]:
    # Every permutation of size n, as bytes, grouped by the boxes rho
    # draws for it, in lexicographic order.  The walk extends a prefix by
    # one unplaced value at a time.  The values placed after that value
    # are exactly the unplaced ones, so its box is fixed then and is
    # written into the prefix's key.
    groups: dict[bytes, list[bytes]] = {}
    key = bytearray(4 * n)
    word = bytearray(n)
    full = (1 << n) - 1

    def place(k: int, placed: int) -> None:
        free = full ^ placed
        while free:
            bit = free & -free
            free ^= bit
            d = bit.bit_length() - 1
            key[4 * d : 4 * d + 4] = _run_box(d, placed, n)
            word[k] = d + 1
            if k + 1 < n:
                place(k + 1, placed | bit)
                continue
            groups.setdefault(bytes(key), []).append(bytes(word))

    place(0, 0)
    return groups


def _fibers(n: int) -> Iterator[tuple[list[tuple[int, int, int, int]], list[Word]]]:
    # The fibers of rho on S_n, in order of first member, each as the
    # boxes rho draws for its first member and its members.  The boxes
    # must be the ones the fiber was grouped by, and they must tile the
    # square as rho checks before it draws; no grid is drawn.  Member
    # tuples are made as the fibers are consumed.
    for key, members in _group(n).items():
        members = list(map(tuple, members))
        boxes = _run_boxes(members[0])
        if _box_key(boxes) != key:
            raise RuntimeError(
                f"rho draws {format_permutation(members[0])} off its run boxes"
            )
        _check_tiling(members[0], boxes)
        yield boxes, members


def verify_counts(n: int) -> VerificationReport:
    """Node inventory against the grouping of S_n and the Baxter selector.

    Groups every permutation by drawing; the set of drawings must match
    the nodes exactly, and bottom-left block deletion on each node's
    drawing (:func:`rectflip.bijection.baxter_of`) must return the
    node's own key, the Baxter word that drew it.
    """
    fg = build(n)
    failures = []
    distinct = _group(n).keys()
    node_keys = {_box_key(grid.boxes) for grid in fg.grids.values()}
    if len(fg.nodes) != len(distinct):
        failures.append(
            f"{len(fg.nodes)} nodes but {len(distinct)} distinct drawings"
        )
    if node_keys != distinct:
        failures.append("node drawings differ from the drawings of all permutations")
    for w in fg.nodes:
        back = baxter_of(fg.grids[w])
        if back != w:
            failures.append(
                f"{format_permutation(w)} draws a grid whose Baxter member is "
                f"{format_permutation(back)}"
            )
    checked = len(fg.nodes) + len(distinct)
    return VerificationReport("counts", n, checked, tuple(failures))


def verify_inversion(n: int) -> VerificationReport:
    """Fibers are weak-order intervals with the stated extremes and members.

    For every drawing: the leftmost extraction word lo and the rightmost
    hi are members of its fiber, the fiber is exactly the weak-order
    interval [lo, hi], and each of the three pattern classes contributes
    exactly one member.  The interval is walked up from lo, swapping
    adjacent letters x < y to y, x only where y comes before x in hi;
    when lo lies below hi, that reaches all of [lo, hi] and nothing else
    (notes/decisions.md, "A fiber is checked by walking its interval").
    """
    classes = (BAXTER, TWISTED_BAXTER, RIGHTMOST)
    # Bit k of bits[w] is set when w avoids classes[k].
    bits: dict[Word, int] = {}
    for k, pclass in enumerate(classes):
        for w in enumerate_avoiders(n, pclass):
            bits[w] = bits.get(w, 0) | 1 << k
    failures = []
    fibers = 0
    for boxes, members in _fibers(n):
        fibers += 1
        preds = peel_predecessors(boxes)
        lo, hi = _peel(preds, "leftmost"), _peel(preds, "rightmost")
        fiber, problems = set(members), []
        if lo not in fiber or hi not in fiber:
            problems.append("extraction words are not members")
        else:
            # A one-member fiber is its interval, since lo = hi = its member.
            walked, todo = {lo}, [lo] if len(fiber) > 1 else []
            rank = {v: i for i, v in enumerate(hi)}
            while todo:
                w = todo.pop()
                for i in range(n - 1):
                    x, y = w[i], w[i + 1]
                    if x < y and rank[y] < rank[x]:
                        up = w[:i] + (y, x) + w[i + 2 :]
                        if up not in walked:
                            walked.add(up)
                            todo.append(up)
            for w in sorted(fiber - walked):
                problems.append(f"{format_permutation(w)} is not between the extremes")
            # Unless lo lies below hi, the walk misses hi and [lo, hi] is empty.
            for w in sorted(walked - fiber) if hi in walked else ():
                problems.append(
                    f"{format_permutation(w)} is between the extremes but not a member"
                )
            seen = twice = 0
            for m in members:
                twice |= seen & bits.get(m, 0)
                seen |= bits.get(m, 0)
            if seen != 0b111 or twice:  # some class has no member here, or two
                for k, pclass in enumerate(classes):
                    hits = sum(bits.get(m, 0) >> k & 1 for m in members)
                    if hits != 1:
                        problems.append(f"{hits} members avoid {pclass.name}")
        failures += [f"fiber of {format_permutation(lo)}: {p}" for p in problems]
    return VerificationReport("inversion", n, fibers, tuple(failures))


def graph_json(fg: FlipGraph) -> str:
    """Deterministic JSON dump: permutation strings and typed edges.

    The text is what ``json.dumps(doc, indent=2)`` makes of the document,
    written line by line: node strings are digits and commas and kind
    values are plain words, so nothing needs escaping.
    """
    nodes = [f'    "{format_permutation(w)}"' for w in fg.nodes]
    edges = []
    for a, b in sorted(fg.edges):
        tags = fg.edges[a, b]
        pair = (
            f'      "a": "{format_permutation(a)}",\n'
            f'      "b": "{format_permutation(b)}",\n'
        )
        for kind in sorted(tags, key=lambda k: k.value):
            edges.append(
                f'    {{\n{pair}      "class": "{kind.value}",\n'
                f'      "multiplicity": {tags[kind]}\n    }}'
            )
    return (
        f'{{\n  "n": {fg.n},\n'
        f'  "nodes": {_json_list(nodes)},\n'
        f'  "edges": {_json_list(edges)}\n}}\n'
    )


def _json_list(items: list[str]) -> str:
    # A list of already indented items, as json.dumps(indent=2) lays it
    # out two levels deep.
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
