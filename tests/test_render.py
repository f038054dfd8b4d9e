import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import naive_ppm, naive_svg
from shiftforge.core import Grid, make_tileset
from shiftforge.errors import InvalidInput
from shiftforge.render import PPM, SVG, RenderSpec, palette_rgb, render
from shiftforge.solve import SearchBudget, enumerate_tilings


TS = make_tileset("t", [(0, 1, 2, 3)], num_colors=4)
ONE = Grid.from_rows([[0]])


def test_palette_is_stable_and_in_range():
    assert palette_rgb(0) == palette_rgb(0)
    for c in range(16):
        assert all(64 <= ch < 256 for ch in palette_rgb(c))
    assert palette_rgb(0) != palette_rgb(1)


def test_ppm_header_and_size():
    data = render(TS, ONE, RenderSpec(cell_pixels=4, format=PPM))
    assert data.startswith(b"P6\n4 4\n255\n")
    assert len(data) == len(b"P6\n4 4\n255\n") + 4 * 4 * 3


def test_ppm_triangles_show_side_colors():
    c = 9
    data = render(TS, ONE, RenderSpec(cell_pixels=c, format=PPM))
    body = data[len(f"P6\n{c} {c}\n255\n".encode()):]

    def px(dx, py_top):
        off = (py_top * c + dx) * 3
        return tuple(body[off:off + 3])

    t = TS.tiles[0]
    assert px(c // 2, 0) == palette_rgb(t.north)       # top center
    assert px(c // 2, c - 1) == palette_rgb(t.south)   # bottom center
    assert px(0, c // 2) == palette_rgb(t.west)        # left middle
    assert px(c - 1, c // 2) == palette_rgb(t.east)    # right middle


def test_ppm_row_zero_is_at_the_image_bottom():
    # tile 1 (north color 2) stacks above tile 0 (south color 0)
    ts = make_tileset("two", [(1, 0, 0, 0), (2, 0, 1, 0)])
    t = Grid.from_rows([[0], [1]])
    c = 4
    data = render(ts, t, RenderSpec(cell_pixels=c))
    body = data[len(f"P6\n{c} {2 * c}\n255\n".encode()):]

    def px(dx, py_top):
        off = (py_top * c + dx) * 3
        return tuple(body[off:off + 3])

    assert px(c // 2, 0) == palette_rgb(2)          # top cell's north
    assert px(c // 2, 2 * c - 1) == palette_rgb(0)  # bottom cell's south


def test_svg_structure():
    data = render(TS, ONE, RenderSpec(cell_pixels=8, format=SVG)).decode()
    assert data.startswith("<svg ")
    assert data.count("<polygon") == 4
    r, g, b = palette_rgb(TS.tiles[0].north)
    assert f"rgb({r},{g},{b})" in data


def test_render_rejects_invalid_tiling():
    ts = make_tileset("t", [(0, 1, 0, 2)])
    bad = Grid.from_rows([[0, 0]])
    with pytest.raises(InvalidInput):
        render(ts, bad)


def test_render_spec_validation():
    with pytest.raises(InvalidInput):
        RenderSpec(cell_pixels=0)
    with pytest.raises(InvalidInput):
        RenderSpec(format="png")


def test_a_ppm_body_past_sys_maxsize_bytes_is_rejected_before_drawing():
    # 3 * 10**40 bytes; drawing even one pixel row of it would never end
    with pytest.raises(InvalidInput):
        render(TS, ONE, RenderSpec(cell_pixels=10**20))
    # an SVG's size does not grow with the cell size
    assert render(TS, ONE, RenderSpec(cell_pixels=10**20, format=SVG)).startswith(b"<svg")


def test_render_is_deterministic():
    a = render(TS, ONE, RenderSpec(cell_pixels=5))
    b = render(TS, ONE, RenderSpec(cell_pixels=5))
    assert a == b


@st.composite
def render_instances(draw):
    """(tile set, one of its tilings, cell size): <= 6 tiles over <= 3
    colors, rectangles up to 5 x 5, 1 to 9 pixels per cell."""
    k = draw(st.integers(1, 3))
    color = st.integers(0, k - 1)
    tiles = draw(st.lists(st.tuples(color, color, color, color),
                          min_size=1, max_size=6, unique=True))
    ts = make_tileset("p", tiles, num_colors=k)
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    tilings, _ = enumerate_tilings(ts, w, h, budget=SearchBudget(max_nodes=2_000), limit=32)
    assume(tilings)
    return ts, draw(st.sampled_from(tilings)), draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(render_instances())
@example((make_tileset("s", [(0, 1, 2, 1), (2, 1, 0, 1)]), Grid.from_rows([[0, 0], [1, 1]]), 5))
def test_ppm_matches_the_per_pixel_renderer(instance):
    ts, tiling, c = instance
    assert render(ts, tiling, RenderSpec(c, PPM)) == naive_ppm(ts, tiling, c)


@settings(max_examples=200, deadline=None)
@given(render_instances())
@example((make_tileset("s", [(0, 1, 2, 1), (2, 1, 0, 1)]), Grid.from_rows([[0, 0], [1, 1]]), 5))
@example((TS, ONE, 1))
def test_svg_matches_the_per_polygon_renderer(instance):
    # odd cell sizes put cell centers on halves, such as 2.5
    ts, tiling, c = instance
    assert render(ts, tiling, RenderSpec(c, SVG)) == naive_svg(ts, tiling, c)
