import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_first_occurrence
from shiftforge.core import (Grid, Patterns, SftSpec, Tile, check_alphabet,
                             make_tileset, validate_tiling)
from shiftforge.errors import InvalidSpec, MalformedInput


def test_make_tileset_infers_color_universe():
    ts = make_tileset("t", [(0, 1, 0, 1), (2, 0, 2, 0)])
    assert len(ts.colors) == 3
    assert ts.tiles == (Tile(0, 1, 0, 1), Tile(2, 0, 2, 0))


def test_tileset_rejects_out_of_range_side():
    with pytest.raises(InvalidSpec):
        make_tileset("t", [(0, 0, 0, 5)], num_colors=2)


def test_tileset_rejects_duplicate_tiles():
    with pytest.raises(InvalidSpec):
        make_tileset("t", [(0, 0, 0, 0), (0, 0, 0, 0)])


def test_pattern_from_rows_bottom_up():
    p = Grid.from_rows(["ab", "cd"])  # row 0 = bottom
    assert p.cells[0] == ("a", "b")
    assert p.cells[1] == ("c", "d")
    assert (p.width, p.height) == (2, 2)


def test_pattern_dimension_mismatch():
    with pytest.raises(InvalidSpec):
        Grid(2, 1, (("a",),))
    with pytest.raises(InvalidSpec, match="grid dimensions must be positive"):
        Grid(0, 1, ((),))


def test_an_alphabet_needs_a_letter():
    with pytest.raises(InvalidSpec, match="alphabet must be nonempty"):
        check_alphabet(())


def test_sft_spec_window_property():
    spec = SftSpec(("a", "b"), (Grid.from_rows(["ab"]), Grid.from_rows(["a", "b", "a"])))
    assert spec.window == 3
    assert SftSpec(("a",), ()).window == 1


def test_sft_spec_rejects_foreign_letters():
    with pytest.raises(InvalidSpec):
        SftSpec(("a",), (Grid.from_rows(["x"]),))


def test_validate_tiling_matching_rules():
    # east(tile 0) = 1 = west(tile 1), but east(tile 1) = 2 != west(tile 0)
    ts = make_tileset("t", [(0, 1, 0, 0), (0, 2, 0, 1)])
    assert validate_tiling(ts, Grid.from_rows([[0, 1]]))
    assert not validate_tiling(ts, Grid.from_rows([[1, 0]]))


def test_validate_tiling_vertical_rule_uses_bottom_up_rows():
    # north(tile 0) = 1 = south(tile 1); the reverse stack cannot match
    ts = make_tileset("t", [(1, 0, 0, 0), (2, 0, 1, 0)])
    assert validate_tiling(ts, Grid.from_rows([[0], [1]]))
    assert not validate_tiling(ts, Grid.from_rows([[1], [0]]))


def test_validate_tiling_index_out_of_range():
    ts = make_tileset("t", [(0, 0, 0, 0)])
    with pytest.raises(MalformedInput):
        validate_tiling(ts, Grid.from_rows([[3]]))


def test_validate_torus_wraps_both_axes():
    ts = make_tileset("t", [(0, 1, 0, 2)])
    # east=1 never matches west=2 across the wrap
    assert not validate_tiling(ts, Grid.from_rows([[0]]), wrap=True)
    ok = make_tileset("t", [(0, 1, 0, 1)])
    assert validate_tiling(ok, Grid.from_rows([[0]]), wrap=True)


def test_window_from_rows():
    w = Grid.from_rows(["ab", "ba"])
    assert w.cells[0] == ("a", "b")
    assert (w.width, w.height) == (2, 2)


@st.composite
def pattern_windows(draw):
    """Patterns over 1-3 letters up to 3x3, some sharing a shape and some
    repeated, and a window over the same letters."""
    letter = st.sampled_from("abc"[:draw(st.integers(1, 3))])

    def grid(w, h):
        return st.lists(st.lists(letter, min_size=w, max_size=w),
                        min_size=h, max_size=h).map(Grid.from_rows)

    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=1, max_size=3))
    pats = draw(st.lists(st.sampled_from(shapes).flatmap(lambda s: grid(*s)),
                         max_size=6))
    pats += draw(st.lists(st.sampled_from(pats), max_size=2)) if pats else []
    pats = draw(st.permutations(pats))
    window = draw(grid(draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    return tuple(pats), window


@settings(max_examples=300, deadline=None)
@given(case=pattern_windows())
# two shapes hit at one placement, the earlier-listed shape with the larger index
@example(case=(tuple(Grid.from_rows([r]) for r in ("bb", "a", "ab")), Grid.from_rows(["ab"])))
def test_patterns_first_matches_naive_least_occurrence(case):
    pats, window = case
    scanner = Patterns([p.cells for p in pats])
    # `top` keeps the placements whose top row is at row top or above
    for top in range(window.height):
        assert scanner.first(window.cells, top=top) == naive_first_occurrence(
            window.cells, pats, top=top)
