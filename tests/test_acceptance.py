"""Acceptance gate: one test per shipped guarantee, at desk scale.

Each test states its bound explicitly and asserts exact values; the
suite doubles as the release checklist for the package.
"""

import hashlib

import rectflip as rf
from rectflip.bijection import baxter_of, rightmost_of, twisted_baxter_of
from rectflip.cli import graph_dot, render_svg
from rectflip.flipgraph import (
    build,
    graph_json,
    metrics,
    simple_flip_components,
    verify_characterization,
    verify_counts,
    verify_inversion,
    verify_theorem_lr,
    verify_theorem_main,
)
from rectflip.flips import FlipKind, classify_edge, flip
from rectflip.permutation import avoids_class
from rectflip.rectangulation import extraction_word, rho

from conftest import GOLDEN
from oracles import slash_consistency_problems
from test_cli import GRID_7, run


def all_grids(n):
    return (rho(w) for w in rf.enumerate_avoiders(n, rf.BAXTER))


def test_criterion_01_seven_rectangle_representatives():
    """The seven-rectangle drawing yields its documented representatives."""
    grid = rho((4, 1, 6, 5, 3, 7, 2))
    assert twisted_baxter_of(grid) == (4, 1, 6, 5, 3, 7, 2)
    assert baxter_of(grid) == (4, 6, 5, 1, 3, 7, 2)
    assert avoids_class((4, 6, 5, 1, 3, 7, 2), rf.BAXTER)


def test_criterion_02_eight_rectangle_representatives():
    """The eight-rectangle drawing yields three distinct representative words."""
    grid = rho((3, 1, 4, 2, 6, 5, 8, 7))
    left = extraction_word(grid, "leftmost")
    right = extraction_word(grid, "rightmost")
    bax = baxter_of(grid)
    assert left == (3, 1, 4, 2, 6, 5, 8, 7)
    assert bax == (3, 4, 1, 2, 6, 5, 8, 7)
    assert right == (3, 4, 6, 8, 1, 2, 5, 7)
    assert avoids_class(right, rf.RIGHTMOST)
    assert len({left, right, bax}) == 3


def test_criterion_03_node_inventory_matches_enumeration():
    """Size-n drawings biject with Baxter words for every n up to 7."""
    expected = {1: 1, 2: 2, 3: 6, 4: 22, 5: 92, 6: 422, 7: 2074}
    for n in range(1, 8):
        words = rf.enumerate_avoiders(n, rf.BAXTER)
        assert len(words) == expected[n]
        for w in words:
            assert baxter_of(rho(w)) == w
        report = verify_counts(n)
        assert report.ok, report.summary()
        assert len(build(n).nodes) == expected[n]


def test_criterion_04_fibers_are_weak_order_intervals():
    """Each fiber is an interval with the extraction words as extremes, n up to 8."""
    for n in range(1, 9):
        report = verify_inversion(n)
        assert report.ok, report.summary()


def test_criterion_05_antidiagonal_representative_consistency():
    """The reflected representative passes its reading checks, n up to 6."""
    for n in range(1, 7):
        for grid in all_grids(n):
            assert slash_consistency_problems(grid) == []


def test_criterion_06_crossing_flips_are_value_swaps():
    """Simple and Barcelona adjacency equals consecutive-value-swap adjacency, n up to 7."""
    for n in range(1, 8):
        report = verify_theorem_main(n)
        assert report.ok, report.summary()


def test_criterion_07_noncrossing_flips_are_weak_order_covers():
    """Simple and LR adjacency equals restricted weak-order covers, n up to 7."""
    for n in range(1, 8):
        report = verify_theorem_lr(n)
        assert report.ok, report.summary()


def test_criterion_08_simple_is_intersection_all_is_union():
    """Simple edges are the overlap and all edges the union of the two relations, n up to 7."""
    for n in range(1, 8):
        report = verify_characterization(n)
        assert report.ok, report.summary()


def test_criterion_09_unflippable_taxonomy():
    """One-end-matched unflippables cross the diagonal in four subtypes, n up to 6."""
    for n in range(1, 7):
        for grid in all_grids(n):
            for edge in grid.interior_edges():
                fc = classify_edge(grid, edge)
                if fc.kind is FlipKind.UNFLIPPABLE_ONE_MATCHED:
                    assert edge.crosses_diagonal
                    assert fc.subtype in (1, 2, 3, 4)
                elif edge.matched_count == 2:
                    assert fc.kind is FlipKind.UNFLIPPABLE_BOTH_MATCHED
                    assert not fc.flippable


def test_criterion_10_simple_flip_components_and_connectivity():
    """Simple-only component counts match s_class one size down, full graph connected, n up to 6."""
    for n in range(1, 7):
        assert metrics(build(n))["connected"]
    for n in range(1, 7):
        assert simple_flip_components(n) == len(rf.enumerate_avoiders(n - 1, rf.S_CLASS))


def test_criterion_11_involution_and_determinism():
    """Every flippable edge flips back to the start, and CLI output is stable, n up to 6."""
    for n in range(1, 7):
        for grid in all_grids(n):
            for edge in grid.interior_edges():
                if not classify_edge(grid, edge).flippable:
                    continue
                other, back_edge = flip(grid, edge)
                again, final_edge = flip(other, back_edge)
                assert again.matrix == grid.matrix
                assert final_edge == edge
    for argv, text in (
        (["flips"], GRID_7),
        (["render", "--svg", "-"], GRID_7),
        (["graph", "4", "--json"], None),
        (["graph", "4", "--dot"], None),
    ):
        assert run(argv, text) == run(argv, text)


def test_criterion_12_golden_artifacts():
    """Renders and graph exports are byte-identical to the checked-in files."""
    assert render_svg(rho((4, 1, 6, 5, 3, 7, 2))) == (GOLDEN / "rho_4165372.svg").read_text()
    for n in (3, 4):
        fg = build(n)
        assert graph_dot(fg) == (GOLDEN / f"flips_{n}.dot").read_text()
        assert graph_json(fg) == (GOLDEN / f"flips_{n}.json").read_text()
    # Larger exports pinned by digest, to catch drawing changes that the
    # small golden files cannot show.
    digests = {
        5: ("0b06a0526ce9bc50f39340cc961f62cbbfcfbff41caf344dcdf812f175a22b8b",
            "eb8ccb483ee8cbc644fce74d6cfea6981ce3097feebf9bdbca4b015a4cabb180"),
        6: ("32ba5101554577094a3970de8186788a9aa4ac5e68caf2afaee717b8c613f680",
            "fad393de81395c7ee0ef7d3ec60870ee7a5912c7ba25062de9222dba1fc475fd"),
        7: ("84b9cbc9297863eca4bcfcda7a233b55d9356d111282a87c05a4982d1a7df5b8",
            "006b3236eff42e3f628c54b24c9aefe186f6e74360c89c96e4060543065c3dba"),
    }
    for n, (json_digest, dot_digest) in digests.items():
        fg = build(n)
        assert hashlib.sha256(graph_json(fg).encode()).hexdigest() == json_digest
        assert hashlib.sha256(graph_dot(fg).encode()).hexdigest() == dot_digest
