import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectflip as rf
from rectflip.bijection import baxter_of
from rectflip.flipgraph import build
from rectflip.flips import (
    EdgeUnflippable,
    FlipClass,
    FlipKind,
    _classify,
    _recut,
    classify_edge,
    flip,
    law_reading_edges,
    neighbors,
)
from rectflip.rectangulation import (
    GridRectangulation,
    _paint,
    block_deletion_word,
    diagonal_obstruction,
    geometry,
    reflect_rows,
    rho,
)

from oracles import inverse, recut_cells, swept_edges


def grids(n):
    return (rho(w) for w in rf.enumerate_avoiders(n, rf.BAXTER))


def test_flippable_flags():
    assert FlipKind.SIMPLE.flippable
    assert FlipKind.ROTATION_LR.flippable
    assert FlipKind.ROTATION_BARCELONA.flippable
    assert not FlipKind.UNFLIPPABLE_ONE_MATCHED.flippable
    assert not FlipKind.UNFLIPPABLE_BOTH_MATCHED.flippable


def test_flip_class_str_and_validation():
    assert str(FlipClass(FlipKind.SIMPLE)) == "simple"
    assert str(FlipClass(FlipKind.UNFLIPPABLE_ONE_MATCHED, 3)) == "unflippable_one_matched[3]"
    with pytest.raises(AssertionError):
        FlipClass(FlipKind.UNFLIPPABLE_ONE_MATCHED)
    with pytest.raises(AssertionError):
        FlipClass(FlipKind.SIMPLE, 1)


WORKED_EXAMPLE_TABLE = (
    ("1|2:v", "rotation_barcelona", "4652371"),
    ("1|3:v", "rotation_lr", "4653712"),
    ("1|4:h", "rotation_lr", "1465372"),
    ("2|3:h", "unflippable_one_matched[2]", "-"),
    ("2|7:h", "rotation_lr", "4651327"),
    ("3|4:h", "unflippable_both_matched", "-"),
    ("3|5:h", "rotation_lr", "4136572"),
    ("3|7:v", "rotation_lr", "4657132"),
    ("4|5:v", "rotation_barcelona", "5641372"),
    ("4|6:v", "rotation_lr", "6451372"),
    ("5|6:h", "simple", "4561372"),
    ("5|7:v", "unflippable_both_matched", "-"),
    ("6|7:v", "rotation_barcelona", "4751362"),
)


def test_classification_of_worked_example():
    g = rho((4, 1, 6, 5, 3, 7, 2))
    rows = []
    for e in sorted(g.interior_edges(), key=lambda e: (*e.labels, e.orient)):
        fc = classify_edge(g, e)
        target = "-"
        if fc.flippable:
            target = "".join(map(str, baxter_of(flip(g, e)[0])))
        rows.append((g.edge_id(e), str(fc), target))
    assert tuple(rows) == WORKED_EXAMPLE_TABLE


def test_unflippable_one_matched_example():
    g = rho((1, 4, 2, 3))
    e = g.find_edge(1, 2)
    fc = classify_edge(g, e)
    assert str(fc) == "unflippable_one_matched[4]"
    assert e.orient == "v" and not e.matched_start and e.matched_end
    with pytest.raises(EdgeUnflippable) as exc:
        flip(g, e)
    assert exc.value.edge == e
    assert exc.value.flip_class == fc
    assert "unflippable_one_matched[4]" in str(exc.value)


def test_unflippable_both_matched_example():
    g = rho((1, 4, 3, 2))
    e = g.find_edge(1, 3)
    assert classify_edge(g, e).kind is FlipKind.UNFLIPPABLE_BOTH_MATCHED
    # Recutting at either T-junction leaves a non-rectangular part.
    assert recut_cells(g, e, e.start) is None
    assert recut_cells(g, e, e.end) is None
    with pytest.raises(EdgeUnflippable):
        flip(g, e)


def test_classify_rejects_foreign_edge():
    g = rho((1, 2, 3))
    stranger = rho((3, 2, 1)).find_edge(2, 3)
    with pytest.raises(ValueError):
        classify_edge(g, stranger)


def _near_misses(edge, n):
    # The edge with one field shifted by one, one flag flipped, the
    # orientation swapped, or its labels swapped or naming no rectangle.
    yield edge
    for name in ("line", "start", "end"):
        for step in (-1, 1):
            yield dataclasses.replace(edge, **{name: getattr(edge, name) + step})
    yield dataclasses.replace(edge, matched_start=not edge.matched_start)
    yield dataclasses.replace(edge, matched_end=not edge.matched_end)
    yield dataclasses.replace(edge, orient="v" if edge.orient == "h" else "h")
    a, b = edge.labels
    for labels in ((b, a), (0, b), (a, n + 1)):
        yield dataclasses.replace(edge, labels=labels)


def test_interior_check_accepts_exactly_the_interior_edges():
    # Every wall piece of every drawing, boundary pieces included, its
    # near misses and the interior pieces of the drawing before it that
    # it lacks: classify_edge and flip take the interior pieces and
    # reject everything else with the same message, never with an
    # IndexError or a KeyError.
    rejected = foreign = 0
    for n in range(1, 7):
        previous = set()
        for g in grids(n):
            interior = set(g.interior_edges())
            strangers = previous - interior
            foreign += len(strangers)
            previous = interior
            candidates = {m for e in swept_edges(g.matrix) for m in _near_misses(e, n)}
            for e in candidates | strangers:
                if e in interior:
                    fc = classify_edge(g, e)
                    if fc.flippable:
                        flip(g, e)
                    else:
                        with pytest.raises(EdgeUnflippable):
                            flip(g, e)
                    continue
                rejected += 1
                message = f"not an interior edge of this drawing: {e}"
                for check in (classify_edge, flip):
                    with pytest.raises(ValueError) as exc:
                        check(g, e)
                    assert type(exc.value) is ValueError
                    assert str(exc.value) == message
    assert rejected > 0 and foreign > 0


def test_interior_check_rejects_labels_that_are_not_two_ints():
    # An edge whose labels are not a pair of ints is not an interior edge
    # either, and gets the same ValueError, not a TypeError from
    # unpacking or comparing them.  The check does not depend on the
    # drawing, so one drawing is enough.
    g = rho((2, 4, 1, 3))
    edge = g.interior_edges()[0]
    for labels in (("1", "2"), (1, 2, 3), None):
        e = dataclasses.replace(edge, labels=labels)
        for check in (classify_edge, flip):
            with pytest.raises(ValueError) as exc:
                check(g, e)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"not an interior edge of this drawing: {e}"


def test_flips_leave_no_cache_on_graph_grids():
    # The graph's drawings keep their matrix and boxes and nothing else,
    # however they have been flipped and classified.
    for g in build(6).grids.values():
        neighbors(g)
        law_reading_edges(g)
        for e in g.interior_edges():
            if classify_edge(g, e).flippable:
                flip(g, e)
        assert vars(g).keys() == {"matrix", "boxes"}


def _rotation_kind(e):
    # The class of an edge matched at one end, read off the edge alone
    # (notes/decisions.md, "A recut keeps its labels' diagonal order"):
    # Law-Reading unless it crosses the diagonal, and then Barcelona
    # exactly when its pivot is one step from the diagonal.
    if not e.crosses_diagonal:
        return FlipKind.ROTATION_LR
    if (e.start == e.line - 1) if e.matched_start else (e.end == e.line + 1):
        return FlipKind.ROTATION_BARCELONA
    return FlipKind.UNFLIPPABLE_ONE_MATCHED


def test_crossing_behaviour_by_class():
    # Simple pieces and both rotation families sit on consecutive
    # labels; crossing the diagonal separates Barcelona from LR, and the
    # pivot's distance from the diagonal separates Barcelona from
    # unflippable.
    for n in range(2, 6):
        for g in grids(n):
            for e in g.interior_edges():
                a, b = e.labels
                kind = classify_edge(g, e).kind
                if e.crosses_diagonal:
                    assert b == a + 1
                if kind is FlipKind.SIMPLE:
                    assert e.crosses_diagonal
                if e.matched_count == 1:
                    assert kind is _rotation_kind(e)


@settings(max_examples=30)
@given(
    st.integers(2, 40).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))
)
def test_rotation_class_follows_the_edge_on_large_drawings(word):
    g = rho(word)
    for e in g.interior_edges():
        if e.matched_count == 1:
            assert _classify(g, e)[0].kind is _rotation_kind(e)


def test_flip_is_an_involution():
    for n in range(2, 6):
        for g in grids(n):
            for e in g.interior_edges():
                if not classify_edge(g, e).flippable:
                    continue
                h, f = flip(g, e)
                back, e2 = flip(h, f)
                assert back.matrix == g.matrix
                assert e2 == e


def test_flip_swaps_orientation_and_preserves_class_kind():
    for n in range(2, 6):
        for g in grids(n):
            for e in g.interior_edges():
                fc = classify_edge(g, e)
                if not fc.flippable:
                    continue
                h, f = flip(g, e)
                assert f.orient != e.orient
                assert classify_edge(h, f).kind is fc.kind


def test_law_reading_edges_are_simple_or_lr():
    for n in range(1, 7):
        for g in grids(n):
            expected = frozenset(
                e
                for e in g.interior_edges()
                if classify_edge(g, e).kind in (FlipKind.SIMPLE, FlipKind.ROTATION_LR)
            )
            assert law_reading_edges(g) == expected


def test_corner_kinds_at_matched_junctions():
    # At a one-end-matched piece the far corners of the two rectangles
    # pinpoint the class: a Barcelona rotation shows a fixed pair of
    # perpendicular T shapes, an unflippable piece two parallel ones.
    barcelona = {
        ("h", "start"): ("stem_down", "stem_right"),
        ("v", "start"): ("stem_right", "stem_down"),
        ("h", "end"): ("stem_left", "stem_up"),
        ("v", "end"): ("stem_up", "stem_left"),
    }
    blocked = {
        ("h", "start"): ("stem_right", "stem_right"),
        ("v", "start"): ("stem_down", "stem_down"),
        ("h", "end"): ("stem_left", "stem_left"),
        ("v", "end"): ("stem_up", "stem_up"),
    }
    for n in range(2, 7):
        for g in grids(n):
            verts = geometry(g.matrix).vertices
            for e in g.interior_edges():
                if e.matched_count != 1:
                    continue
                kind = classify_edge(g, e).kind
                box_a, box_b = (g.boxes[lab - 1] for lab in e.labels)
                if e.matched_start:
                    pa = (box_a.top, box_a.left)
                    pb = (box_b.top, box_b.left)
                    key = (e.orient, "start")
                else:
                    pa = (box_a.bottom + 1, box_a.right + 1)
                    pb = (box_b.bottom + 1, box_b.right + 1)
                    key = (e.orient, "end")
                pair = (verts[pa], verts[pb])
                if kind is FlipKind.ROTATION_BARCELONA:
                    assert pair == barcelona[key]
                elif kind is FlipKind.UNFLIPPABLE_ONE_MATCHED:
                    assert pair == blocked[key]


def test_barcelona_partners_stay_adjacent_after_inversion():
    # A Barcelona rotation between two drawings corresponds, through
    # inverting their Baxter words, to a flip of the other two kinds.
    for n in range(2, 7):
        fg = build(n)
        for g in grids(n):
            w = baxter_of(g)
            for e in g.interior_edges():
                if classify_edge(g, e).kind is not FlipKind.ROTATION_BARCELONA:
                    continue
                w2 = baxter_of(flip(g, e)[0])
                pair = tuple(sorted((inverse(w), inverse(w2))))
                kinds = fg.edges[pair]
                assert FlipKind.SIMPLE in kinds or FlipKind.ROTATION_LR in kinds


def test_one_matched_subtypes_encode_geometry():
    seen = set()
    for n in range(2, 6):
        for g in grids(n):
            for e in g.interior_edges():
                fc = classify_edge(g, e)
                if fc.kind is not FlipKind.UNFLIPPABLE_ONE_MATCHED:
                    continue
                seen.add(fc.subtype)
                if e.orient == "h":
                    assert fc.subtype == (1 if e.matched_start else 2)
                else:
                    assert fc.subtype == (3 if e.matched_start else 4)
    assert seen == {1, 2, 3, 4}


def test_neighbors_scans_each_recut_once(monkeypatch):
    # A one-end-matched edge's recut is scanned while it is classified,
    # and a rotation flip reuses that scan; a simple edge's recut keeps
    # every rectangle on its diagonal cell and is not scanned at all.
    grids_5 = list(build(5).grids.values())
    scanned = []

    def counting(matrix):
        scanned.append(matrix)
        return obstruction(matrix)

    obstruction = rf.rectangulation.diagonal_obstruction
    monkeypatch.setattr(rf.flips, "diagonal_obstruction", counting)
    monkeypatch.setattr(rf.rectangulation, "diagonal_obstruction", counting)
    for g in grids_5:
        scanned.clear()
        neighbors(g)
        assert len(scanned) == sum(e.matched_count == 1 for e in g.interior_edges())


def _pivots(e):
    # The pivot _classify recuts an edge at (None for an edge matched at
    # both ends), and the other endpoints.
    if e.matched_count == 2:
        return None, (e.start, e.end)
    if e.matched_count == 0:
        return e.labels[0], ()
    if e.matched_start:
        return e.start, (e.end,)
    return e.end, (e.start,)


def test_recut_matches_cell_oracle():
    # Every interior edge matched at fewer than two ends, cut at its
    # pivot: the cell oracle gives two rectangles there, and _recut the
    # same matrix.  Every other endpoint leaves a part empty or not a
    # rectangle (notes/decisions.md, "A recut has one pivot").
    recuts = {0: 0, 1: 0}
    refused = 0
    for n in range(1, 7):
        for g in grids(n):
            for e in g.interior_edges():
                pivot, others = _pivots(e)
                if pivot is not None:
                    expected = recut_cells(g, e, pivot)
                    assert expected is not None
                    assert _paint(_recut(g, e).values()) == expected
                    recuts[e.matched_count] += 1
                for other in others:
                    assert recut_cells(g, e, other) is None
                    refused += 1
    assert recuts == {0: 1142, 1: 2832}
    assert refused == 2 * 644 + 2832


@settings(max_examples=30)
@given(
    st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))
)
def test_recut_matches_cell_oracle_on_large_drawings(word):
    g = rho(word)
    for e in g.interior_edges():
        pivot, others = _pivots(e)
        if pivot is not None:
            assert _paint(_recut(g, e).values()) == recut_cells(g, e, pivot)
        for other in others:
            assert recut_cells(g, e, other) is None


def test_simple_recuts_are_canonical():
    # Top-left corner deletion ranks every label of every flippable
    # recut as itself (notes/decisions.md, "A recut keeps its labels'
    # diagonal order").  Simple and Law-Reading recuts are canonical
    # drawings; in a Barcelona recut one of the two rectangles covers
    # both of their diagonal cells.
    checked = 0
    for n in range(2, 7):
        identity = tuple(range(1, n + 1))
        for g in grids(n):
            for e in g.interior_edges():
                flip_class, boxes = _classify(g, e)
                if e.matched_count == 0:
                    assert flip_class.kind is FlipKind.SIMPLE
                if not flip_class.flippable:
                    continue
                recut = _paint(boxes.values())
                assert diagonal_obstruction(recut) is None
                assert block_deletion_word(reflect_rows(recut)) == identity
                a, b = e.labels
                if flip_class.kind is FlipKind.ROTATION_BARCELONA:
                    assert recut[a - 1][a - 1] == recut[b - 1][b - 1]
                else:
                    sigma = block_deletion_word(recut)
                    assert rho(sigma) == GridRectangulation(recut)
                checked += 1
    assert checked == 3674


@settings(max_examples=30)
@given(
    st.integers(2, 40).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))
)
def test_recut_ranks_are_the_identity_on_large_drawings(word):
    g = rho(word)
    identity = tuple(range(1, g.n + 1))
    for e in g.interior_edges():
        flip_class, boxes = _classify(g, e)
        if flip_class.flippable:
            recut = _paint(boxes.values())
            assert block_deletion_word(reflect_rows(recut)) == identity


def test_build_deletes_corners_once_per_flip(monkeypatch):
    # Each directed flip of build(5) reads one Baxter word off its
    # recut's boxes and ranks nothing.
    calls = []

    def counting(boxes):
        calls.append(boxes)
        return real(boxes)

    real = rf.rectangulation.corner_deletion_word
    for module in (rf.rectangulation, rf.flips, rf.flipgraph, rf.bijection):
        if hasattr(module, "corner_deletion_word"):
            monkeypatch.setattr(module, "corner_deletion_word", counting)
    fg = build.__wrapped__(5)
    assert sum(sum(tags.values()) for tags in fg.edges.values()) == 262
    assert len(calls) == 524


def test_neighbors_listing():
    for n in range(2, 5):
        for g in grids(n):
            out = neighbors(g)
            ids = [g.edge_id(e) for _, _, e in out]
            assert ids == sorted(ids)
            flippable = [
                e for e in g.interior_edges() if classify_edge(g, e).flippable
            ]
            assert len(out) == len(flippable)
            for h, fc, e in out:
                assert classify_edge(g, e) == fc
                back_words = {baxter_of(x) for x, _, _ in neighbors(h)}
                assert baxter_of(g) in back_words
