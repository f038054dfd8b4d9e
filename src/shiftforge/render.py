"""Deterministic raster (binary PPM) and vector (SVG) tiling renderers.

Each cell is drawn as four triangles meeting at the cell center, one per
side, filled with that side color's palette entry.  The palette is a
fixed hash of the color id, so identical inputs always produce identical
bytes.

Both renderers do work in proportion to what they write.  A PPM pixel
row dy above a c-pixel cell's bottom is three runs of bytes: west, then
south (2 dy < c) or north, then east, with lo = dy or c - dy pixels on
either side.  Each used tile's c rows are built once and joined into the
image.  An SVG cell is one string of its four polygons, from x and y
coordinate strings formatted once per column and row and fills looked up
once per used tile.  Both hash each distinct color once per image.
"""

from __future__ import annotations

import hashlib
import sys
from typing import NamedTuple

from .core import Grid, TileSet, validate_tiling
from .errors import InvalidInput, MalformedInput

PPM = "ppm"
SVG = "svg"


class _RenderFields(NamedTuple):
    cell_pixels: int
    format: str


class RenderSpec(_RenderFields):
    __slots__ = ()

    def __new__(cls, cell_pixels=16, format=PPM):
        if cell_pixels < 1:
            raise InvalidInput("cell_pixels must be >= 1")
        if format not in (PPM, SVG):
            raise InvalidInput(f"unknown render format {format!r}")
        return super().__new__(cls, cell_pixels, format)


def palette_rgb(color_id: int) -> tuple[int, int, int]:
    """Stable, well-spread RGB for a color id."""
    digest = hashlib.sha256(f"color:{color_id}".encode()).digest()
    # keep channels away from pure black so edges stay distinguishable
    return tuple(64 + b % 192 for b in digest[:3])


def render(tileset: TileSet, tiling: Grid, spec: RenderSpec = RenderSpec()) -> bytes:
    if not validate_tiling(tileset, tiling):
        raise MalformedInput("tiling does not validate against the tile set")
    if spec.format == PPM:
        c = spec.cell_pixels
        if 3 * (tiling.width * c) * (tiling.height * c) > sys.maxsize:
            raise InvalidInput("PPM body must be at most sys.maxsize bytes")
        return _render_ppm(tileset, tiling, c)
    return _render_svg(tileset, tiling, spec.cell_pixels)


def _render_ppm(tileset: TileSet, tiling: Grid, c: int) -> bytes:
    used = {i for row in tiling.cells for i in row}
    rgb = {color: bytes(palette_rgb(color))
           for i in used for color in tileset.tiles[i]}
    # strips[i]: tile i's pixel rows as runs, top-down
    strips = {}
    for i in used:
        n, e, s, w = (rgb[color] for color in tileset.tiles[i])
        strips[i] = [w * lo + mid * (c - 2 * lo) + e * lo
                     for lo, mid in ((dy, s) if 2 * dy < c else (c - dy, n)
                                     for dy in reversed(range(c)))]
    # image rows run top-down; tiling row 0 is at the bottom
    body = b"".join(b"".join(pixels) for row in reversed(tiling.cells)
                    for pixels in zip(*map(strips.__getitem__, row)))
    header = f"P6\n{tiling.width * c} {tiling.height * c}\n255\n".encode()
    return header + body


def _render_svg(tileset: TileSet, tiling: Grid, c: int) -> bytes:
    w_px, h_px = tiling.width * c, tiling.height * c
    used = {i for row in tiling.cells for i in row}
    fill = {color: "rgb({},{},{})".format(*palette_rgb(color))
            for i in used for color in tileset.tiles[i]}
    fills = {i: tuple(map(fill.__getitem__, tileset.tiles[i])) for i in used}
    # (left, center, right) x strings per column and (top, center, bottom)
    # y strings per row; svg y points down, so tiling row 0 is at the bottom
    xs = [(str(x * c), str(x * c + c / 2), str((x + 1) * c)) for x in range(tiling.width)]
    ys = [(str(top), str(top + c / 2), str(top + c))
          for top in ((tiling.height - 1 - y) * c for y in range(tiling.height))]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    ]
    for (ty, cy, by), row in zip(ys, tiling.cells):
        for (lx, cx, rx), i in zip(xs, row):
            n, e, s, w = fills[i]
            out.append(
                f'<polygon points="{lx},{ty} {rx},{ty} {cx},{cy}" fill="{n}"/>\n'
                f'<polygon points="{rx},{ty} {rx},{by} {cx},{cy}" fill="{e}"/>\n'
                f'<polygon points="{lx},{by} {rx},{by} {cx},{cy}" fill="{s}"/>\n'
                f'<polygon points="{lx},{ty} {lx},{by} {cx},{cy}" fill="{w}"/>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
