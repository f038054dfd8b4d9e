"""Macro-tiles and simulation of one tile set by another.

An n x n valid block of a tile set behaves like a single tile whose four
sides are the sequences of base colors along its outer edges.  Giving
each distinct border sequence a composite color id turns the set of all
such blocks into an ordinary tile set, so the grouping can be iterated.

One tile set simulates another through a map of its tiles that preserves
adjacency (a homomorphism): ``find_simulation`` returns the
lexicographically least such map σ as a tuple, σ[i] the target tile of
source tile i, found by forward checking on the target's per-color tile
bitsets.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Grid, TileSet, make_tileset
from .errors import InvalidInput
from .solve import SearchBudget, enumerate_tilings

BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class MacroTileSet(NamedTuple):
    """The valid n x n blocks of a base set, one per distinct border, as a
    tile set of their own.

    ``tileset.tiles[i]`` carries composite color ids; ``blocks[i]`` is the
    least n x n Grid of the base set with that tile's borders.  Two
    macro-tiles match along an axis iff all n underlying base edges match,
    because composite ids are injective on border sequences.
    """

    blocks: tuple[Grid, ...]
    tileset: TileSet


def _borders(base: TileSet, block: Grid) -> tuple[tuple[int, ...], ...]:
    """The (north, east, south, west) base-color sequences on a block's
    outer edges, rows west-to-east and columns south-to-north."""
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
    # a block past max_tiles stops the search short: complete is False
    limit = None if max_tiles is None else max_tiles + 1
    blocks, complete = enumerate_tilings(tileset, n, n, budget=budget, limit=limit)
    if not complete:
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
                      [tuple(ids[key] for key in keys) for keys in keyed])
    return MacroTileSet(tuple(least.values()), ts)


# --- simulation ---------------------------------------------------------------


def preserves_adjacency(source: TileSet, target: TileSet, sigma: tuple[int, ...]) -> bool:
    """Independent check of a map `sigma` of source tile indices to target
    ones: source tiles that meet east-west or north-south have images that
    meet the same way."""
    s, t = source.tiles, target.tiles
    return all((s[i].east != s[j].west or t[sigma[i]].east == t[sigma[j]].west)
               and (s[i].north != s[j].south or t[sigma[i]].north == t[sigma[j]].south)
               for i in range(len(s)) for j in range(len(s)))


def find_simulation(source: TileSet, target: TileSet) -> tuple[int, ...] | None:
    """Lexicographically least map of source tiles to target tiles under
    which every source adjacency is a target adjacency, or None (the
    search is exhaustive).  An empty source has the empty map ``()``; a
    nonempty source has no map into an empty target.

    Forward checking, depth first over the source tiles in index order:
    image v for tile i masks the images left to tile i itself (a tile can
    meet itself) and to every later tile with the target's supports of v,
    the tiles allowed across each side of v where the source colors meet.
    Masks drop only images that break a constraint with an assigned tile
    and images ascend, so the first complete map is the least."""
    sides = source.tiles
    # stack[i][j - i]: tile j's images allowed beside tiles < i (untried, if j == i)
    stack = [[(1 << len(target.tiles)) - 1] * len(sides)]
    assign: list[int] = []
    while stack:
        i = len(stack) - 1
        if i == len(sides):
            return tuple(assign)
        doms = stack[-1]
        if not doms[0]:
            stack.pop()
            continue
        low = doms[0] & -doms[0]
        doms[0] ^= low
        v = low.bit_length() - 1
        assign[i:] = [v]
        fits = target.supports[low]
        mine = sides[i]
        new = []
        for j, (d, theirs) in enumerate(zip(doms, sides[i:])):
            d = d if j else low
            for k in range(4):
                if mine[k] == theirs[k ^ 2]:
                    d &= fits[k]
            if not d:
                break
            new.append(d)
        else:
            stack.append(new[1:])
    return None
