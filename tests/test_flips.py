import pytest

import rectflip as rf
from rectflip.bijection import baxter_of
from rectflip.flipgraph import build
from rectflip.flips import (
    EdgeUnflippable,
    FlipClass,
    FlipKind,
    classify_edge,
    flip,
    law_reading_edges,
    neighbors,
    rotated_partition,
)
from rectflip.permutation import inverse
from rectflip.rectangulation import rho


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
    for e in sorted(g.interior_edges(), key=lambda e: (*g.edge_labels(e), e.orient)):
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
    assert rotated_partition(g, e, e.start) is None
    assert rotated_partition(g, e, e.end) is None
    with pytest.raises(EdgeUnflippable):
        flip(g, e)


def test_classify_rejects_foreign_edge():
    g = rho((1, 2, 3))
    stranger = rho((3, 2, 1)).find_edge(2, 3)
    with pytest.raises(ValueError):
        classify_edge(g, stranger)


def test_crossing_behaviour_by_class():
    # Simple pieces and both rotation families sit on consecutive
    # labels; crossing the diagonal separates Barcelona from LR.
    for n in range(2, 6):
        for g in grids(n):
            for e in g.interior_edges():
                a, b = g.edge_labels(e)
                kind = classify_edge(g, e).kind
                if e.crosses_diagonal:
                    assert b == a + 1
                if kind is FlipKind.SIMPLE:
                    assert e.crosses_diagonal
                elif kind is FlipKind.ROTATION_BARCELONA:
                    assert e.crosses_diagonal
                elif kind is FlipKind.ROTATION_LR:
                    assert not e.crosses_diagonal
                elif kind is FlipKind.UNFLIPPABLE_ONE_MATCHED:
                    assert e.crosses_diagonal


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
            verts = g.geometry.vertices
            for e in g.interior_edges():
                if e.matched_count != 1:
                    continue
                kind = classify_edge(g, e).kind
                a, b = g.edge_labels(e)
                if e.matched_start:
                    pa = (g.rects[a].top, g.rects[a].left)
                    pb = (g.rects[b].top, g.rects[b].left)
                    key = (e.orient, "start")
                else:
                    pa = (g.rects[a].bottom + 1, g.rects[a].right + 1)
                    pb = (g.rects[b].bottom + 1, g.rects[b].right + 1)
                    key = (e.orient, "end")
                pair = (verts[pa].kind, verts[pb].kind)
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
    # A one-end-matched edge is scanned while it is classified, and a
    # rotation flip reuses that scan; a simple flip's recut is scanned
    # once, by canonicalize.  Nothing is scanned twice.
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
        assert len(scanned) == sum(e.matched_count < 2 for e in g.interior_edges())


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
