"""Domain types for tiles, patterns and finite tilings.

Conventions used everywhere in this package:

* Grids are stored as tuples of rows, row 0 being the *bottom* row.
  Cell (x, y) is ``cells[y][x]``.
* A tile's sides are named north (top), east, south (bottom), west.
* Two horizontally adjacent tiles match iff east(left) == west(right);
  two vertically adjacent tiles match iff north(bottom) == south(top).
* Colors are small integers local to one tile set; tilings store tile
  indices, not tile values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import InvalidSpec, MalformedInput


class Tile(NamedTuple):
    """A Wang tile, which is its own (north, east, south, west) color tuple."""

    north: int
    east: int
    south: int
    west: int

    def sides(self) -> tuple[int, int, int, int]:
        return self


@dataclass(frozen=True)
class TileSet:
    """A finite set of Wang tiles over a shared color universe.

    ``colors[i]`` names color i: the key its builder numbered (an overlap
    block, a tape payload, a signal, a border word), or None for parsed
    and hand-made sets.
    """

    name: str
    colors: tuple
    tiles: tuple[Tile, ...]

    def __post_init__(self):
        n = len(self.colors)
        if len(set(self.tiles)) != len(self.tiles):
            raise InvalidSpec(f"tileset {self.name!r}: duplicate tiles")
        for t in self.tiles:
            for c in t:
                if not 0 <= c < n:
                    raise InvalidSpec(
                        f"tileset {self.name!r}: tile {t} references color {c} "
                        f"outside universe of size {n}"
                    )

    @cached_property
    def supports(self) -> Supports:
        """The set's one adjacency table and the solver's support memo (see
        `Supports`).  An entry depends on neither the grid, its boundary nor
        the budget, so the table is kept with this object, out of its
        equality, hash and repr, and shared by every solve of the set."""
        return Supports(self.tiles, len(self.colors))


class Supports(dict):
    """A memo from a domain (a tile bitset) to the tiles allowed across
    each side of it, in `Tile` field order.  Side k faces side k ^ 2 of
    the tile across it, and per side k the table keeps each tile's color
    there (`colors[k]`), the tiles showing each color there (`mine[k]`) and
    the solver's closed-walk masks by period (`walks[k]`).  A miss fills the
    domain's entry for all four sides at once, so a revision looks its
    domain up once."""

    def __init__(self, tiles: tuple[Tile, ...], ncolors: int):
        super().__init__()
        self.colors = list(zip(*tiles)) or [()] * 4
        self.mine = [[0] * ncolors for _ in range(4)]
        for row, col in zip(self.mine, self.colors):
            for i, c in enumerate(col):
                row[c] |= 1 << i
        self.walks: list[dict[int, int]] = [{} for _ in range(4)]

    def __missing__(self, domain: int) -> tuple[int, ...]:
        # per side, one step per distinct color the domain shows there: the
        # color's tiles across are allowed, and its own leave the domain
        entry = []
        for k, colors in enumerate(self.colors):
            mine, theirs = self.mine[k], self.mine[k ^ 2]
            allowed, d = 0, domain
            while d:
                col = colors[(d & -d).bit_length() - 1]
                allowed |= theirs[col]
                d &= ~mine[col]
            entry.append(allowed)
        sup = self[domain] = tuple(entry)
        return sup


def make_tileset(
    name: str,
    tiles: list[tuple[int, int, int, int]],
    num_colors: int | None = None,
    names: tuple | list | None = None,
) -> TileSet:
    """Build a TileSet from raw (north, east, south, west) tuples.
    `names` lists the color names in id order, so its length is the
    color count; without it every color is unnamed."""
    if names is None:
        if num_colors is None:
            num_colors = 1 + max((max(t) for t in tiles), default=-1)
        names = (None,) * num_colors
    return TileSet(name, tuple(names), tuple(map(Tile._make, tiles)))


class _GridFields(NamedTuple):
    width: int
    height: int
    cells: tuple[tuple, ...]


class Grid(_GridFields):
    """A finite rectangle of cells, rows bottom-up: a tiling or torus of
    tile indices, or a forbidden pattern or window of letters."""

    __slots__ = ()

    def __new__(cls, width, height, cells):
        if width < 1 or height < 1:
            raise InvalidSpec("grid dimensions must be positive")
        if len(cells) != height or any(len(r) != width for r in cells):
            raise InvalidSpec("grid does not match its declared dimensions")
        return super().__new__(cls, width, height, cells)

    @staticmethod
    def from_rows(rows) -> "Grid":
        """Rows given bottom-up: strings of single-letter cells or
        sequences of tile indices."""
        cells = tuple(tuple(r) for r in rows)
        return Grid(len(cells[0]) if cells else 0, len(cells), cells)


# kept for callers that build tilings by the older name
Tiling = Grid


class Patterns:
    """The package's one forbidden-occurrence scanner (internal).

    Patterns are tuples of rows, bottom-up, like `Grid.cells`; a word is a
    one-row pattern.  They are grouped by shape, and each distinct pattern
    maps to its least index, so one dict lookup per placement and shape
    finds the least index occurring there.  Scanned rows must have the
    patterns' row type: strings for words, tuples for grids.
    """

    def __init__(self, patterns):
        shapes: dict[tuple[int, int], dict[tuple, int]] = {}
        for i, p in enumerate(patterns):
            shapes.setdefault((len(p), len(p[0])), {}).setdefault(tuple(p), i)
        self.shapes = [(h, w, index) for (h, w), index in shapes.items()]
        self.max_height = max((h for h, _, _ in self.shapes), default=0)

    def first(self, rows, top: int = 0) -> tuple[int, int, int] | None:
        """Least (y, x, i) such that pattern i occurs in `rows` with its
        bottom-left cell at (x, y) and its top row at row `top` or above;
        None when there is no such occurrence."""
        height = len(rows)
        width = len(rows[0])
        for y in range(max(0, top + 1 - self.max_height), height):
            best = None  # least (x, i) in row y so far
            for h, w, index in self.shapes:
                if not top < y + h <= height:
                    continue
                band = rows[y:y + h]
                last = width - w if best is None else min(width - w, best[0])
                for x in range(last + 1):
                    i = index.get(tuple(map(itemgetter(slice(x, x + w)), band)))
                    if i is not None:
                        if best is None or (x, i) < best:
                            best = (x, i)
                        break
            if best is not None:
                return y, best[0], best[1]
        return None


def check_alphabet(alphabet: tuple[str, ...]) -> None:
    """Letters are distinct single characters, because grids and words
    store one letter per character; there must be at least one.  `#` is
    not a letter: the text formats read a line starting with it as a
    comment."""
    if not alphabet:
        raise InvalidSpec("alphabet must be nonempty")
    if "#" in alphabet:
        raise InvalidSpec("alphabet letter '#' is reserved for comments")
    for a in alphabet:
        if len(a) != 1:
            raise InvalidSpec(f"alphabet letter {a!r} must be a single character")
    if len(set(alphabet)) != len(alphabet):
        raise InvalidSpec("alphabet letters must be distinct")


class _SftFields(NamedTuple):
    alphabet: tuple[str, ...]
    forbidden: tuple[Grid, ...]


class SftSpec(_SftFields):
    """A 2D subshift of finite type: alphabet plus forbidden patterns."""

    __slots__ = ()

    def __new__(cls, alphabet, forbidden):
        check_alphabet(alphabet)
        letters = set(alphabet)
        for p in forbidden:
            for row in p.cells:
                for a in row:
                    if a not in letters:
                        raise InvalidSpec(f"pattern letter {a!r} outside alphabet")
        return super().__new__(cls, alphabet, forbidden)

    @property
    def window(self) -> int:
        """Smallest k such that every forbidden pattern fits in a k x k square."""
        k = max((max(p.width, p.height) for p in self.forbidden), default=1)
        return max(k, 1)


def validate_tiling(tileset: TileSet, t: Grid, *, wrap: bool = False) -> bool:
    """True iff every adjacent pair of tiles matches; with `wrap` the grid
    is a torus, so the last column and row also meet the first."""
    tiles = tileset.tiles
    n = len(tiles)
    for row in t.cells:
        for i in row:
            if not 0 <= i < n:
                raise MalformedInput(f"tile index {i} out of range (|tiles| = {n})")
    w, h = t.width, t.height
    for y in range(h):
        for x in range(w):
            here = tiles[t.cells[y][x]]
            if (wrap or x + 1 < w) and here.east != tiles[t.cells[y][(x + 1) % w]].west:
                return False
            if (wrap or y + 1 < h) and here.north != tiles[t.cells[(y + 1) % h][x]].south:
                return False
    return True

