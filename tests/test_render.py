import pytest

from shiftforge.core import Grid, make_tileset
from shiftforge.errors import InvalidInput
from shiftforge.render import PPM, SVG, RenderSpec, palette_rgb, render


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


def test_render_is_deterministic():
    a = render(TS, ONE, RenderSpec(cell_pixels=5))
    b = render(TS, ONE, RenderSpec(cell_pixels=5))
    assert a == b
