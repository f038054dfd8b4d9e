import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_blocks, naive_least_map
from shiftforge.aperiodic import robinson_tileset
from shiftforge.core import Grid, Tile, make_tileset, validate_tiling
from shiftforge.errors import InvalidInput
from shiftforge.macrotile import (BUDGET_EXCEEDED, MacroTileSet, _borders,
                                  find_simulation, macro_tiles,
                                  preserves_adjacency)
from shiftforge.solve import SearchBudget, count_rectangle


def test_single_free_tile_macro():
    ts = make_tileset("one", [(0, 0, 0, 0)])
    m = macro_tiles(ts, 2)
    assert len(m.blocks) == 1
    t = m.tileset.tiles[0]
    # one distinct border sequence per axis
    assert t.north == t.south and t.east == t.west
    assert _borders(ts, m.blocks[0])[0] == (0, 0)


def test_two_free_tiles_macro_count():
    ts = make_tileset("two", [(0, 0, 0, 0), (0, 1, 0, 1)])
    # horizontal chaining is restricted, vertical is free
    m = macro_tiles(ts, 2)
    assert len(m.blocks) == count_rectangle(ts, 2, 2).count
    for b in m.blocks:
        assert validate_tiling(ts, b)


def test_macro_blocks_listed_lexicographically():
    ts = make_tileset("free", [(0, 0, 0, 0), (1, 1, 1, 1)])
    m = macro_tiles(ts, 2)
    flats = [sum(b.cells, ()) for b in m.blocks]
    assert flats == sorted(flats)
    assert len(m.blocks) == 2  # colors must agree across the whole block


def test_macro_adjacency_matches_base_edges():
    # macro-tiles match iff all base edges on the shared border match
    ts = robinson_tileset().tileset
    m = macro_tiles(ts, 2, max_tiles=2000)
    assert m != BUDGET_EXCEEDED
    assert len(m.blocks) == count_rectangle(ts, 2, 2).count
    a, b = 0, 1
    ta, tb = m.tileset.tiles[a], m.tileset.tiles[b]
    same = _borders(ts, m.blocks[a])[1] == _borders(ts, m.blocks[b])[3]
    assert (ta.east == tb.west) == same


def test_macro_budget_and_cap():
    ts = make_tileset("free", [(0, 0, 0, 0), (1, 1, 1, 1)])
    assert macro_tiles(ts, 2, max_tiles=1) == BUDGET_EXCEEDED
    assert macro_tiles(ts, 3, budget=SearchBudget(max_nodes=1)) == BUDGET_EXCEEDED
    with pytest.raises(InvalidInput):
        macro_tiles(ts, 0)
    # 10^20 cells: rejected before any block is searched
    with pytest.raises(InvalidInput, match="at most sys.maxsize cells"):
        macro_tiles(ts, 10**10)


def assert_max_tiles_allows_exactly(ts, n, count):
    # the cap counts blocks before the merge per border: at the block count
    # the search completes, one below it the search stops short
    m = macro_tiles(ts, n, max_tiles=count)
    assert isinstance(m, MacroTileSet) and m == macro_tiles(ts, n)
    assert len(m.blocks) <= count
    if count:
        assert macro_tiles(ts, n, max_tiles=count - 1) == BUDGET_EXCEEDED


def test_robinson_max_tiles_boundary_is_its_512_blocks():
    ts = robinson_tileset().tileset
    assert count_rectangle(ts, 2, 2).count == 512
    assert_max_tiles_allows_exactly(ts, 2, 512)


@pytest.mark.parametrize("seed", range(40))
def test_max_tiles_boundary_is_the_block_count(seed):
    rng = random.Random(seed)
    c = rng.randint(2, 3)
    tiles = {tuple(rng.randrange(c) for _ in range(4)) for _ in range(rng.randint(2, 6))}
    ts = make_tileset("r", sorted(tiles), num_colors=c)
    n = rng.randint(2, 3)
    assert_max_tiles_allows_exactly(ts, n, count_rectangle(ts, n, n).count)


def test_macro_tiles_keep_the_least_block_per_border():
    # these 3 x 3 blocks repeat border 4-tuples, which once made equal tiles
    ts = make_tileset("t", [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1)])
    least = {}
    for block in naive_blocks(ts, 3):
        north = tuple(ts.tiles[i].north for i in block[-1])
        south = tuple(ts.tiles[i].south for i in block[0])
        east = tuple(ts.tiles[row[-1]].east for row in block)
        west = tuple(ts.tiles[row[0]].west for row in block)
        least.setdefault((north, east, south, west), block)
    m = macro_tiles(ts, 3)
    assert len(least) < len(naive_blocks(ts, 3))
    assert [b.cells for b in m.blocks] == list(least.values())
    assert len(set(m.tileset.tiles)) == len(least)


def test_identity_simulation_found():
    ts = make_tileset("t", [(0, 1, 0, 1), (1, 0, 1, 0)])
    m = find_simulation(ts, ts)
    assert m is not None
    assert preserves_adjacency(ts, ts, m)
    # identity is the least adjacency-preserving self-map here
    assert m == (0, 0) or preserves_adjacency(ts, ts, (0, 1))


def test_simulation_none_when_target_too_rigid():
    # source tiles self-stack vertically; target tile does not
    src = make_tileset("s", [(0, 0, 0, 0)])
    tgt = make_tileset("t", [(0, 1, 1, 0)])
    assert find_simulation(src, tgt) is None


def test_simulation_answers_on_empty_sets():
    ts = make_tileset("t", [(0, 0, 0, 0)])
    empty = make_tileset("e", [])
    # the empty map sends no tile anywhere, so it preserves every adjacency
    assert find_simulation(empty, ts) == ()
    assert find_simulation(empty, empty) == ()
    # a tile has no image in an empty set
    assert find_simulation(ts, empty) is None


@st.composite
def tile_sets(draw):
    """A set of <= 4 tiles over <= 3 colors, possibly empty."""
    color = st.integers(0, draw(st.integers(1, 3)) - 1)
    tiles = draw(st.lists(st.tuples(color, color, color, color),
                          min_size=0, max_size=4, unique=True))
    return make_tileset("h", tiles)


@st.composite
def tile_set_pairs(draw):
    """(source, target): independent sets, or a target that permutes the
    source's tiles and colors, so that a map always exists."""
    source = draw(tile_sets())
    if draw(st.booleans()):
        return source, draw(tile_sets())
    n = source.ncolors
    relabel = draw(st.permutations(range(n)))
    tiles = draw(st.permutations([t.sides() for t in source.tiles]))
    return source, make_tileset("p", [tuple(relabel[c] for c in t) for t in tiles],
                                num_colors=n)


# after tile 0 -> 0 no image fits tile 1, so the search must backtrack
# to tile 0 -> 1 before it finds the least map (1, 2)
BACKTRACK = (make_tileset("s", [(0, 1, 0, 2), (0, 2, 0, 1)]),
             make_tileset("t", [(0, 3, 0, 4), (0, 5, 0, 6), (0, 6, 0, 5)]))


@settings(max_examples=300, deadline=None)
@given(tile_set_pairs())
@example(BACKTRACK)
def test_least_maps_match_naive_enumeration(pair):
    source, target = pair
    assert find_simulation(source, target) == naive_least_map(source, target)


def test_least_map_of_a_set_larger_than_the_recursion_limit():
    # one search level per source tile: 1,100 levels
    source = make_tileset("s", [(i, 0, i, 0) for i in range(1100)])
    target = make_tileset("t", [(0, 0, 0, 0)])
    assert find_simulation(source, target) == (0,) * 1100


def test_robinson_simulates_itself():
    ts = robinson_tileset().tileset
    m = find_simulation(ts, ts)
    assert m is not None and preserves_adjacency(ts, ts, m)


def test_robinson_substitutes_into_its_macro_tiles():
    # sigma maps each tile to a 2 x 2 block, so k substitutions of tile 0
    # build a 2^k x 2^k Robinson square with no search
    ts = robinson_tileset().tileset
    macro = macro_tiles(ts, 2)
    sigma = find_simulation(ts, macro.tileset)
    assert sigma is not None and preserves_adjacency(ts, macro.tileset, sigma)
    rows = [(0,)]
    for k in range(1, 6):
        blocks = [[macro.blocks[sigma[t]].cells for t in row] for row in rows]
        rows = [sum((b[y] for b in row), ()) for row in blocks for y in range(2)]
        assert len(rows) == len(rows[0]) == 2 ** k
        assert validate_tiling(ts, Grid.from_rows(rows))
