"""Macro-tiles and structural comparison of tile sets.

An n x n valid block of a tile set behaves like a single tile whose four
sides are the sequences of base colors along its outer edges.  Giving
each distinct border sequence a composite color id turns the set of all
such blocks into an ordinary tile set, so the grouping can be iterated.

Two notions of "one tile set behaving like another" are provided:
``find_simulation`` (an adjacency-preserving map, a homomorphism) and
``check_isomorphism`` (a bijection that preserves and reflects adjacency
on both axes).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .core import Grid, TileSet, make_tileset
from .errors import InvalidInput
from .solve import SearchBudget, enumerate_tilings

BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass(frozen=True)
class MacroTileSet:
    """The valid n x n blocks of a base set, one per distinct border, as a
    tile set of their own.

    ``tileset.tiles[i]`` carries composite color ids; ``blocks[i]`` is the
    least n x n Grid of the base set with that tile's borders.  Two
    macro-tiles match along an axis iff all n underlying base edges match,
    because composite ids are injective on border sequences.
    """

    base: TileSet
    n: int
    blocks: tuple[Grid, ...]
    tileset: TileSet

    def border_sequences(self, index: int) -> dict[str, tuple[int, ...]]:
        """The four base-color sequences on block ``index``'s outer edges
        (rows west-to-east, columns south-to-north)."""
        sides = ("north", "east", "south", "west")
        return dict(zip(sides, _borders(self.base, self.blocks[index])))


def _borders(base: TileSet, block: Grid) -> tuple[tuple[int, ...], ...]:
    """The (north, east, south, west) border sequences of a block."""
    tiles = base.tiles
    n = block.width
    return (tuple(tiles[block.cells[n - 1][x]].north for x in range(n)),
            tuple(tiles[block.cells[y][n - 1]].east for y in range(n)),
            tuple(tiles[block.cells[0][x]].south for x in range(n)),
            tuple(tiles[block.cells[y][0]].west for y in range(n)))


def macro_tiles(
    tileset: TileSet,
    n: int,
    budget: SearchBudget = SearchBudget(),
    max_tiles: int | None = None,
) -> MacroTileSet | str:
    """Exhaustively enumerate the valid n x n blocks, keeping the least one
    per distinct border 4-tuple; BUDGET_EXCEEDED when the search budget
    runs out or more than ``max_tiles`` blocks exist, counted before that
    merge (macro-tile counts explode quickly; that is expected)."""
    if n < 1:
        raise InvalidInput("block size must be positive")
    if max_tiles is not None and max_tiles < 0:
        raise InvalidInput("max_tiles must not be negative")
    limit = None if max_tiles is None else max_tiles + 1
    blocks, complete = enumerate_tilings(tileset, n, n, budget=budget, limit=limit)
    if not complete or (max_tiles is not None and len(blocks) > max_tiles):
        return BUDGET_EXCEEDED
    # the first block seen per border 4-tuple is the least: blocks come sorted
    least: dict[tuple, Grid] = {}
    for b in blocks:
        least.setdefault(_borders(tileset, b), b)
    # composite colors: one id per distinct border sequence, per axis
    keyed = [(("v", north), ("h", east), ("v", south), ("h", west))
             for north, east, south, west in least]
    names = sorted({key for keys in keyed for key in keys})
    ids = {key: i for i, key in enumerate(names)}
    ts = make_tileset(f"{tileset.name}^{n}",
                      [tuple(ids[key] for key in keys) for keys in keyed], names=names)
    return MacroTileSet(tileset, n, tuple(least.values()), ts)


# --- simulation / isomorphism -------------------------------------------------


@dataclass(frozen=True)
class TileSetMap:
    """A map of tile indices from one set into another."""

    source: TileSet
    target: TileSet
    assignment: tuple[int, ...]


def _adjacency(ts: TileSet) -> tuple[list[list[bool]], list[list[bool]]]:
    """(H, V): H[i][j] iff j may sit directly east of i; V[i][j] iff j may
    sit directly north of i."""
    m = len(ts.tiles)
    H = [[ts.tiles[i].east == ts.tiles[j].west for j in range(m)] for i in range(m)]
    V = [[ts.tiles[i].north == ts.tiles[j].south for j in range(m)] for i in range(m)]
    return H, V


def preserves_adjacency(m: TileSetMap) -> bool:
    """Independent check of the TileSetMap invariant."""
    HS, VS = _adjacency(m.source)
    HT, VT = _adjacency(m.target)
    k = len(m.source.tiles)
    a = m.assignment
    return all(
        (not HS[i][j] or HT[a[i]][a[j]]) and (not VS[i][j] or VT[a[i]][a[j]])
        for i in range(k)
        for j in range(k)
    )


def _least_map(source: TileSet, target: TileSet, bijective: bool) -> TileSetMap | None:
    """Lexicographically least map of source tiles to target tiles under
    which every source adjacency is a target adjacency, or None (the
    search is exhaustive).  A `bijective` map must also be injective and
    reflect adjacency: a pair is adjacent in the source iff its image is
    adjacent in the target."""
    HS, VS = _adjacency(source)
    HT, VT = _adjacency(target)
    fits = operator.eq if bijective else operator.le  # booleans: a <= b is a -> b
    assign: list[int] = []

    def ok(k: int, v: int) -> bool:
        if bijective and v in assign:
            return False
        for i, w in enumerate(assign + [v]):
            if not (fits(HS[i][k], HT[w][v]) and fits(HS[k][i], HT[v][w])
                    and fits(VS[i][k], VT[w][v]) and fits(VS[k][i], VT[v][w])):
                return False
        return True

    # depth-first in lexicographic order; a backtrack resumes after the popped value
    v = 0
    while len(assign) < len(source.tiles):
        if v == len(target.tiles):
            if not assign:
                return None
            v = assign.pop() + 1
        elif ok(len(assign), v):
            assign.append(v)
            v = 0
        else:
            v += 1
    return TileSetMap(source, target, tuple(assign))


def find_simulation(source: TileSet, target: TileSet) -> TileSetMap | None:
    """Lexicographically least adjacency-preserving map of source tiles
    into target tiles, or None (the search is exhaustive)."""
    if not source.tiles or not target.tiles:
        raise InvalidInput("both tile sets must be nonempty")
    return _least_map(source, target, bijective=False)


def check_isomorphism(a: TileSet, b: TileSet) -> TileSetMap | None:
    """Lexicographically least bijection of tiles that preserves and
    reflects adjacency on both axes, or None.  Different sizes give None
    immediately."""
    if len(a.tiles) != len(b.tiles):
        return None
    return _least_map(a, b, bijective=True)
