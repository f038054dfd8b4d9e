"""Deterministic raster (binary PPM) and vector (SVG) tiling renderers.

Each cell is drawn as four triangles meeting at the cell center, one per
side, filled with that side color's palette entry.  The palette is a
fixed hash of the color id, so identical inputs always produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

from .core import Grid, TileSet, validate_tiling
from .errors import InvalidInput, MalformedInput

PPM = "ppm"
SVG = "svg"


@dataclass(frozen=True)
class RenderSpec:
    cell_pixels: int = 16
    format: str = PPM

    def __post_init__(self):
        if self.cell_pixels < 1:
            raise InvalidInput("cell_pixels must be >= 1")
        if self.format not in (PPM, SVG):
            raise InvalidInput(f"unknown render format {self.format!r}")


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
           for i in used for color in tileset.tiles[i].sides()}
    # strips[i][dy]: tile i's pixel row dy above the cell's bottom
    strips = {}
    for i in used:
        n, e, s, w = tileset.tiles[i].sides()
        strip = []
        for dy in range(c):
            row = []
            for dx in range(c):
                # triangle test: compare distances to the four sides
                below_rising = dy * 2 < (dx * 2 + 1)  # under the / diagonal
                below_falling = dy * 2 < (2 * c - 1 - dx * 2)  # under the \
                if below_rising and below_falling:
                    color = s
                elif not below_rising and not below_falling:
                    color = n
                elif below_rising:
                    color = e
                else:
                    color = w
                row.append(rgb[color])
            strip.append(b"".join(row))
        strips[i] = strip
    # image rows run top-down; tiling row 0 is at the bottom
    body = b"".join(b"".join(strips[i][dy] for i in row)
                    for row in reversed(tiling.cells) for dy in reversed(range(c)))
    header = f"P6\n{tiling.width * c} {tiling.height * c}\n255\n".encode()
    return header + body


def _render_svg(tileset: TileSet, tiling: Grid, c: int) -> bytes:
    w_px, h_px = tiling.width * c, tiling.height * c
    used = {i for row in tiling.cells for i in row}
    fills = {color: "rgb({},{},{})".format(*palette_rgb(color))
             for i in used for color in tileset.tiles[i].sides()}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    ]
    for y in range(tiling.height):
        top = (tiling.height - 1 - y) * c  # svg y axis points down
        for x in range(tiling.width):
            n, e, s, w = tileset.tiles[tiling.cells[y][x]].sides()
            lx, cx, rx = x * c, x * c + c / 2, (x + 1) * c
            ty, cy, by = top, top + c / 2, top + c
            tris = (
                (n, f"{lx},{ty} {rx},{ty} {cx},{cy}"),
                (e, f"{rx},{ty} {rx},{by} {cx},{cy}"),
                (s, f"{lx},{by} {rx},{by} {cx},{cy}"),
                (w, f"{lx},{ty} {lx},{by} {cx},{cy}"),
            )
            for color, points in tris:
                out.append(f'<polygon points="{points}" fill="{fills[color]}"/>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
