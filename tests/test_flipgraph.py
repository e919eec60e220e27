import itertools
import json
from collections import Counter

import pytest

import rectflip as rf
from rectflip import flipgraph, rectangulation
from rectflip.bijection import baxter_of
from rectflip.flipgraph import (
    FlipGraph,
    VerificationReport,
    _sorted_pair,
    build,
    compare_edge_sets,
    graph_json,
    metrics,
    simple_flip_components,
    verify_characterization,
    verify_counts,
    verify_inversion,
    verify_theorem_lr,
    verify_theorem_main,
)
from rectflip.flips import FlipKind, neighbors
from rectflip.order import inversion_mask, pair_bitsets
from rectflip.permutation import consecutive_value_swap
from rectflip.rectangulation import GridRectangulation, _peel, peel_predecessors, rho

from oracles import (
    between,
    bfs_diameter,
    brute_fibers,
    dumped_graph_json,
    matrix_keyed_build,
)


def test_build_3_is_the_known_graph():
    fg = build(3)
    assert fg.nodes == (
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    )
    expected = {
        ((1, 2, 3), (1, 3, 2)): {FlipKind.SIMPLE: 1},
        ((1, 2, 3), (2, 1, 3)): {FlipKind.SIMPLE: 1},
        ((1, 3, 2), (2, 3, 1)): {FlipKind.ROTATION_BARCELONA: 1},
        ((1, 3, 2), (3, 1, 2)): {FlipKind.ROTATION_LR: 1},
        ((2, 1, 3), (2, 3, 1)): {FlipKind.ROTATION_LR: 1},
        ((2, 1, 3), (3, 1, 2)): {FlipKind.ROTATION_BARCELONA: 1},
        ((2, 3, 1), (3, 2, 1)): {FlipKind.SIMPLE: 1},
        ((3, 1, 2), (3, 2, 1)): {FlipKind.SIMPLE: 1},
    }
    assert fg.edges == expected


def test_build_4_census_and_metrics():
    fg = build(4)
    assert len(fg.nodes) == 22
    census = Counter()
    for tags in fg.edges.values():
        for kind, mult in tags.items():
            census[kind.value] += mult
    assert census == {"simple": 18, "rotation_barcelona": 12, "rotation_lr": 16}
    stats = metrics(fg)
    assert stats["diameter"] == 5
    assert stats["degree_min"] == 3
    assert stats["degree_max"] == 5
    assert stats["degree_mean"] == 92 / 22
    assert stats["connected"]


def test_build_matches_per_node_rebuild():
    fg = build(4)
    for w in fg.nodes:
        seen = Counter()
        for flipped, flip_class, _ in neighbors(rho(w)):
            seen[baxter_of(flipped), flip_class.kind] += 1
        from_graph = Counter()
        for (a, b), tags in fg.edges.items():
            if w == a or w == b:
                other = b if w == a else a
                for kind, mult in tags.items():
                    from_graph[other, kind] += mult
        assert seen == from_graph


def test_build_matches_matrix_keyed_oracle():
    # Same nodes, edges, kinds and multiplicities as drawing every flip
    # result and looking its matrix up among the nodes' drawings.
    for n in range(1, 7):
        fg = build(n)
        nodes, edges = matrix_keyed_build(n)
        assert fg.nodes == nodes
        assert fg.edges == edges


def test_metrics_trivial_sizes():
    assert metrics(build(1)) == {
        "diameter": 0,
        "degree_min": 0,
        "degree_max": 0,
        "degree_mean": 0.0,
        "connected": True,
    }
    m2 = metrics(build(2))
    assert m2["diameter"] == 1 and m2["connected"]


def test_diameter_growth():
    # 2n - 3 for n = 2..7 (11 at n = 7), but not beyond: the diameter at
    # n = 8 is 14 (notes/decisions.md).  All inside the coarse 8n bound.
    diameters = [metrics(build(n))["diameter"] for n in range(1, 8)]
    assert diameters == [0, 1, 3, 5, 7, 9, 11]
    for n, d in enumerate(diameters, start=1):
        assert d <= 8 * n


def test_flip_graph_is_simple():
    # Every adjacent pair is joined by one flip of one kind, for n <= 7
    # (and at n = 8 in a one-off run; notes/decisions.md).  No code
    # relies on it.
    for n in range(1, 8):
        for tags in build(n).edges.values():
            assert list(tags.values()) == [1]
    assert len(build(7).edges) == 9032


def test_law_reading_degree_is_descents_plus_ascents():
    # In a lattice quotient of the weak order a class has one lower cover
    # per descent of its bottom element and one upper cover per ascent of
    # its top (Reading, Order 2004); checked up to n = 7 in
    # notes/decisions.md.
    law_reading = {FlipKind.SIMPLE, FlipKind.ROTATION_LR}
    for n in range(1, 7):
        fg = build(n)
        degree = Counter()
        for pair, tags in fg.edges.items():
            if law_reading & tags.keys():
                degree.update(pair)
        for w in fg.nodes:
            grid = rho(w)
            low, high = rf.twisted_baxter_of(grid), rf.rightmost_of(grid)
            descents = sum(x > y for x, y in zip(low, low[1:]))
            ascents = sum(x < y for x, y in zip(high, high[1:]))
            assert degree[w] == descents + ascents
        assert sum(degree.values()) == 2 * [0, 1, 6, 34, 194, 1132][n - 1]


def test_bitset_diameter_matches_per_node_bfs():
    for n in range(1, 8):
        fg = build(n)
        assert metrics(fg)["diameter"] == bfs_diameter(fg)
    for n in range(3, 6):
        fg = build(n)
        simple = {p: t for p, t in fg.edges.items() if FlipKind.SIMPLE in t}
        sub = FlipGraph(n, fg.nodes, fg.grids, simple)
        assert bfs_diameter(sub) is None
        assert metrics(sub)["diameter"] is None
        assert not metrics(sub)["connected"]


def _transpose(matrix):
    return tuple(zip(*matrix))


def _rotate_half_turn(matrix):
    # 180 degrees, with label i renamed n + 1 - i so that label i again
    # holds the i-th diagonal cell
    n = len(matrix)
    return tuple(
        tuple(n + 1 - matrix[n - 1 - r][n - 1 - c] for c in range(n)) for r in range(n)
    )


def test_symmetries_are_flip_graph_automorphisms():
    for n in range(1, 7):
        fg = build(n)
        key_of = {grid.matrix: w for w, grid in fg.grids.items()}
        for symmetry in (_transpose, _rotate_half_turn):
            image = {w: key_of[symmetry(fg.grids[w].matrix)] for w in fg.nodes}
            assert sorted(image.values()) == sorted(fg.nodes)
            mapped = {
                tuple(sorted((image[a], image[b]))): tags
                for (a, b), tags in fg.edges.items()
            }
            assert mapped == fg.edges


def test_simple_flip_component_counts():
    # One component per drawing of size n - 1: matches the avoider
    # counts of the s_class one size down.
    assert [simple_flip_components(n) for n in range(1, 7)] == [1, 1, 2, 6, 22, 88]
    for n in range(2, 7):
        assert simple_flip_components(n) == len(
            rf.enumerate_avoiders(n - 1, rf.S_CLASS)
        )


def test_verifiers_pass_at_desk_scale():
    for n in range(1, 6):
        for verifier in (
            verify_theorem_main,
            verify_theorem_lr,
            verify_characterization,
            verify_counts,
            verify_inversion,
        ):
            report = verifier(n)
            assert report.ok, report.summary()
            assert report.n == n


def test_verification_report_summary_format():
    report = verify_theorem_main(4)
    assert report.summary() == "theorem_main n=4: checked 30, ok"
    assert verify_inversion(3).summary() == "inversion n=3: checked 6, ok"


def test_theorem_main_names_the_swapped_values():
    # Stronger than set equality: on each Simple or Barcelona edge the
    # swapped values are exactly the labels of the flipped wall piece.
    for n in range(2, 7):
        for w in rf.enumerate_avoiders(n, rf.BAXTER):
            g = rho(w)
            for flipped, flip_class, edge in neighbors(g):
                if flip_class.kind is FlipKind.ROTATION_LR:
                    continue
                a, b = edge.labels
                assert b == a + 1
                assert baxter_of(flipped) == consecutive_value_swap(w, a)


def test_compare_edge_sets_reports_differences():
    pair = ((1, 2), (2, 1))
    report = compare_edge_sets("demo", 2, {pair}, set(), "flip adjacent", "related")
    assert not report.ok
    assert report.checked == 1
    assert report.failures == ("(12, 21) is flip adjacent but not related",)
    assert report.summary() == "demo n=2: checked 1, FAILED, 1 counterexamples"
    report = compare_edge_sets("demo", 2, set(), {pair}, "flip adjacent", "related")
    assert report.failures == ("(12, 21) is related but not flip adjacent",)
    assert compare_edge_sets("demo", 2, {pair}, {pair}, "x", "y").ok


def test_graph_json_shape():
    fg = build(3)
    doc = json.loads(graph_json(fg))
    assert doc["n"] == 3
    assert doc["nodes"] == ["123", "132", "213", "231", "312", "321"]
    assert len(doc["edges"]) == 8
    assert doc["edges"][0] == {
        "a": "123",
        "b": "132",
        "class": "simple",
        "multiplicity": 1,
    }
    assert graph_json(fg) == graph_json(build(3))


def test_graph_json_matches_json_dumps():
    for n in range(1, 8):
        fg = build(n)
        assert graph_json(fg) == dumped_graph_json(fg)


def test_pairs_tagged_filters_kinds():
    fg = build(3)
    simple = fg.pairs_tagged({FlipKind.SIMPLE})
    assert ((1, 2, 3), (1, 3, 2)) in simple
    assert ((1, 3, 2), (2, 3, 1)) not in simple
    assert len(simple) == 4
    assert len(fg.pairs_tagged(set(FlipKind))) == 8


def test_fibers_match_staircase_oracle():
    # Same fibers, yielded in the same order: by first member in
    # lexicographic order, each listing its members in that order.
    for n in range(1, 7):
        fibers = list(flipgraph._fibers(n))
        expected = brute_fibers(n).items()
        assert [(boxes, set(ws)) for boxes, ws in fibers] == [
            (list(GridRectangulation(m).boxes), ws) for m, ws in expected
        ]
        assert all(members == sorted(members) for _, members in fibers)


def test_fibers_are_the_bitset_intervals_of_their_extraction_words():
    # The popcount interval over all of S_n that verify_inversion once
    # computed, kept as the oracle of its walk.
    for n in range(1, 7):
        words = list(itertools.permutations(range(1, n + 1)))
        masks = [inversion_mask(w) for w in words]
        bitsets = pair_bitsets(masks)
        for boxes, members in flipgraph._fibers(n):
            preds = peel_predecessors(boxes)
            lo, hi = _peel(preds, "leftmost"), _peel(preds, "rightmost")
            found = between(bitsets, len(words), inversion_mask(lo), inversion_mask(hi))
            assert found.bit_count() == len(members)
            assert [w for k, w in enumerate(words) if found >> k & 1] == members


def _verify_with_fiber(monkeypatch, edit):
    # verify_inversion(5) with the members of the fiber of 21453, which
    # are 21453, 24153 and 24513, replaced by edit(members).  The middle
    # word avoids none of the three pattern classes, so only the
    # interval check can see it go.
    real = flipgraph._fibers

    def edited(n):
        for boxes, members in real(n):
            if members[0] == (2, 1, 4, 5, 3):
                assert members == [(2, 1, 4, 5, 3), (2, 4, 1, 5, 3), (2, 4, 5, 1, 3)]
                members = edit(members)
            yield boxes, members

    monkeypatch.setattr(flipgraph, "_fibers", edited)
    return verify_inversion(5)


def test_inversion_reports_a_fiber_missing_a_word_of_its_interval(monkeypatch):
    report = _verify_with_fiber(monkeypatch, lambda ms: [ms[0], ms[2]])
    assert report.failures == (
        "fiber of 21453: 24153 is between the extremes but not a member",
    )


def test_inversion_reports_a_fiber_holding_a_word_of_another_fiber(monkeypatch):
    # 25143 lies in the fiber of 21543 and avoids no pattern class.  The
    # fiber keeps its size, so only comparing sets catches the swap.
    report = _verify_with_fiber(monkeypatch, lambda ms: [ms[0], (2, 5, 1, 4, 3), ms[2]])
    assert report.failures == (
        "fiber of 21453: 25143 is not between the extremes",
        "fiber of 21453: 24153 is between the extremes but not a member",
    )
    assert report.checked == 92


def test_inversion_reports_extremes_in_the_wrong_order(monkeypatch):
    # With the extraction rules swapped, lo is the top of its fiber and
    # hi the bottom.  The walk may only add inversions, so it stays at
    # lo, and every other member is reported; a walk that also undid
    # inversions would reach the whole fiber from its top.
    real = flipgraph._peel

    def swapped(preds, rule):
        return real(preds, "rightmost" if rule == "leftmost" else "leftmost")

    expected = []
    for boxes, members in flipgraph._fibers(4):
        top = real(peel_predecessors(boxes), "rightmost")
        expected += [
            f"fiber of {rf.format_permutation(top)}: "
            f"{rf.format_permutation(m)} is not between the extremes"
            for m in members
            if m != top
        ]
    monkeypatch.setattr(flipgraph, "_peel", swapped)
    assert verify_inversion(4).failures == tuple(expected)
    assert len(expected) == 2


def test_inversion_checks_the_extremes_of_a_one_member_fiber(monkeypatch):
    # The fiber of 1234 is 1234 alone, so it needs no walk; its extraction
    # words must still be its member.
    real = flipgraph._peel

    def edited(preds, rule):
        word = real(preds, rule)
        return (2, 1, 3, 4) if word == (1, 2, 3, 4) and rule == "rightmost" else word

    assert [ms for _, ms in flipgraph._fibers(4)][0] == [(1, 2, 3, 4)]
    monkeypatch.setattr(flipgraph, "_peel", edited)
    report = verify_inversion(4)
    assert report.failures == ("fiber of 1234: extraction words are not members",)
    assert report.checked == 22


def test_group_matches_a_direct_grouping_of_every_word():
    # Grouping each word of S_n by the key of its own run boxes gives the
    # same fibers as the walk over its run-box table: the same keys in the
    # same order, each with the same members in the same order.
    for n in range(1, 8):
        direct = {}
        for w in itertools.permutations(range(1, n + 1)):
            key = flipgraph._box_key(rectangulation._run_boxes(w))
            direct.setdefault(key, []).append(bytes(w))
        grouped = flipgraph._group(n)
        assert list(grouped.items()) == list(direct.items())


def test_fibers_reject_a_box_the_drawing_lacks(monkeypatch):
    # 2143 and 2413 draw the same grid; a shifted box for 2413 would split
    # their fiber in two if the keys were not checked.  The run-box table
    # holds one box per value and set placed before it, so the shift goes
    # on the box of 1 when {2, 4} is placed, which 2413 and 4213 read.
    real = flipgraph._run_box

    def shifted(d, placed, n):
        top, left, bottom, right = real(d, placed, n)
        if d == 0 and placed == 0b1010:
            return top, left + 1, bottom, right + 1
        return top, left, bottom, right

    assert rho((2, 1, 4, 3)) == rho((2, 4, 1, 3))
    monkeypatch.setattr(flipgraph, "_run_box", shifted)
    with pytest.raises(RuntimeError, match="rho draws 2413 off its run boxes"):
        list(flipgraph._fibers(4))


def test_fibers_reject_boxes_that_do_not_tile(monkeypatch):
    # A box rule that widens the box of 2 by one column, used both by the
    # grouping and by the boxes of each first member, so that the keys
    # agree; the tiling check that rho runs must still catch it.
    real = rectangulation._run_box

    def widened(d, placed, n):
        top, left, bottom, right = real(d, placed, n)
        return (top, left, bottom, right + 1) if d == 1 else (top, left, bottom, right)

    monkeypatch.setattr(flipgraph, "_run_box", widened)
    monkeypatch.setattr(rectangulation, "_run_box", widened)
    message = r"box 3 of rho\(\(1, 2, 3\)\) writes a cell twice"
    with pytest.raises(ValueError, match=message):
        list(flipgraph._fibers(3))


def test_value_swaps_over_all_words_join_pairs_that_are_not_flips():
    # Project every consecutive-value swap in S_n onto the fibers of rho,
    # each fiber named by its Baxter member.  Every Barcelona pair is
    # among the swap pairs, but so is a rest that holds no flip at all:
    # theorem_main holds only for the swaps between Baxter members.
    found = {}
    for n in range(2, 7):
        fg = build(n)
        nodes = set(fg.nodes)
        node_of = {}
        for _, members in flipgraph._fibers(n):
            (node,) = nodes.intersection(members)
            node_of.update(dict.fromkeys(members, node))
        swaps = {
            _sorted_pair(node_of[w], node_of[consecutive_value_swap(w, k)])
            for w in node_of
            for k in range(1, n)
        }
        swaps = {(a, b) for a, b in swaps if a != b}
        barcelona = fg.pairs_tagged({FlipKind.SIMPLE, FlipKind.ROTATION_BARCELONA})
        assert barcelona <= swaps
        assert not (swaps - barcelona) & fg.edges.keys()
        found[n] = (len(swaps), len(barcelona), len(swaps - barcelona))
        if n == 4:
            # The smallest witness: 1423 -> 2413 joins 1423 to the fiber
            # of 2143, and those two drawings are not one flip apart.
            assert node_of[(2, 4, 1, 3)] == (2, 1, 4, 3)
            assert min(swaps - barcelona) == ((1, 4, 2, 3), (2, 1, 4, 3))
    assert found == {
        2: (1, 1, 0),
        3: (6, 6, 0),
        4: (35, 30, 5),
        5: (204, 156, 48),
        6: (1212, 848, 364),
    }
