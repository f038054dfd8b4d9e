import gc
import random
import sys
import time
import tracemalloc
import weakref
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (naive_allowed, naive_arc_consistency, naive_closed_walk_tiles,
                     naive_count_tilings, naive_solve, naive_start_domains,
                     naive_tilings, tm_run)
from shiftforge import solve
from shiftforge.aperiodic import aperiodicity_evidence, robinson_tileset
from shiftforge.compilers import tm_initial_boundary, tm_to_tileset
from shiftforge.core import Supports, make_tileset, validate_tiling
from shiftforge.errors import InvalidInput
from shiftforge.macrotile import find_simulation, macro_tiles
from shiftforge.solve import (SAT, UNKNOWN, UNSAT, BoundaryConstraint,
                              SearchBudget, SearchResult, count_rectangle,
                              enumerate_tilings, solve_rectangle, solve_torus)
from shiftforge.textio import parse_tileset, serialize_tileset
from test_compilers import INCREMENTER, counter, run_and_check


def random_tileset(rng, max_tiles=4, max_colors=3):
    c = rng.randint(1, max_colors)
    n = rng.randint(1, min(max_tiles, c ** 4))
    tiles = set()
    while len(tiles) < n:
        tiles.add(tuple(rng.randrange(c) for _ in range(4)))
    return make_tileset("rand", sorted(tiles), num_colors=c)


def test_count_matches_naive_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        ts = random_tileset(rng)
        while True:
            w, h = rng.randint(1, 3), rng.randint(1, 3)
            if len(ts.tiles) ** (w * h) <= 20_000:  # keep the oracle cheap
                break
        got = count_rectangle(ts, w, h)
        assert got.status == "COUNT"
        assert got.count == naive_count_tilings(ts, w, h)


def test_torus_count_matches_naive_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        ts = random_tileset(rng)
        p, q = rng.randint(1, 2), rng.randint(1, 3)
        sols, complete = enumerate_tilings(ts, p, q, wrap=True)
        assert complete
        assert len(sols) == naive_count_tilings(ts, p, q, torus=True)
        for t in sols:
            assert validate_tiling(ts, t, wrap=True)


def test_sat_witness_is_lexicographically_least():
    rng = random.Random(3)
    for _ in range(30):
        ts = random_tileset(rng)
        sols, complete = enumerate_tilings(ts, 2, 2)
        assert complete
        flat = [sum(t.cells, ()) for t in sols]
        assert flat == sorted(flat)
        r = solve_rectangle(ts, 2, 2)
        if sols:
            assert r.status == SAT and r.tiling == sols[0]
            assert validate_tiling(ts, r.tiling)
        else:
            assert r.status == UNSAT


def test_rectangle_unsat_is_monotone_in_size():
    # unsat at 2x2 stays unsat at larger sizes (sub-rectangle argument)
    ts = make_tileset("t", [(0, 1, 1, 0), (1, 0, 0, 1)])
    statuses = {(w, h): solve_rectangle(ts, w, h).status
                for w in (1, 2, 3) for h in (1, 2, 3)}
    for (w, h), st in statuses.items():
        if st == UNSAT:
            for (w2, h2), st2 in statuses.items():
                if w2 >= w and h2 >= h:
                    assert st2 == UNSAT


def test_boundary_constraint_forces_edges():
    # colors: west/east alternate 0/1; forcing west edge selects the tile
    ts = make_tileset("t", [(0, 0, 0, 0), (0, 1, 0, 1)])
    r = solve_rectangle(ts, 1, 1, boundary=BoundaryConstraint(west=(1,)))
    assert r.status == SAT and r.tiling.cells == ((1,),)
    r = solve_rectangle(ts, 1, 1, boundary=BoundaryConstraint(west=(0,), east=(1,)))
    assert r.status == UNSAT
    # a color that is declared but shown by no tile empties its edge
    wide = make_tileset("w", ts.tiles, num_colors=10**22)
    r = solve_rectangle(wide, 2, 1, boundary=BoundaryConstraint(west=(10**21,)))
    assert r == SearchResult(UNSAT)


def test_boundary_forced_cells():
    ts = make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)])
    b = BoundaryConstraint(forced_cells=((1, 0, 1),))
    r = solve_rectangle(ts, 2, 1, boundary=b)
    assert r.status == SAT and r.tiling.cells == ((1, 1),)


def test_an_empty_tile_set_tiles_nothing():
    empty = make_tileset("e", [], num_colors=1)
    assert solve_rectangle(empty, 2, 2, BoundaryConstraint(south=(0, 0))).status == UNSAT
    assert solve_torus(empty, 1, 1).status == UNSAT
    assert count_rectangle(empty, 2, 1).count == 0


def test_boundary_dimension_checks():
    ts = make_tileset("t", [(0, 0, 0, 0)])
    with pytest.raises(InvalidInput, match="south boundary sequence has wrong length"):
        solve_rectangle(ts, 2, 1, boundary=BoundaryConstraint(south=(0,)))
    with pytest.raises(InvalidInput, match="east boundary sequence has wrong length"):
        solve_rectangle(ts, 2, 1, boundary=BoundaryConstraint(east=(0, 0)))
    with pytest.raises(InvalidInput, match="boundary color 1 outside universe"):
        solve_rectangle(ts, 2, 1, boundary=BoundaryConstraint(west=(1,)))
    with pytest.raises(InvalidInput, match=r"forced cell \(5, 0\) outside rectangle"):
        solve_rectangle(ts, 2, 1, boundary=BoundaryConstraint(forced_cells=((5, 0, 0),)))
    with pytest.raises(InvalidInput, match="forced tile index 1 out of range"):
        solve_rectangle(ts, 2, 1, boundary=BoundaryConstraint(forced_cells=((1, 0, 1),)))
    with pytest.raises(InvalidInput):
        enumerate_tilings(ts, 2, 1, BoundaryConstraint(), wrap=True)


def test_dimensions_must_be_positive():
    ts = make_tileset("t", [(0, 0, 0, 0)])
    with pytest.raises(InvalidInput):
        solve_rectangle(ts, 0, 3)
    with pytest.raises(InvalidInput):
        solve_torus(ts, 1, 0)


def test_period_one_torus_self_constraints():
    # 1x1 torus needs north==south and east==west
    bad = make_tileset("t", [(0, 1, 0, 2)])
    assert solve_torus(bad, 1, 1).status == UNSAT
    ok = make_tileset("t", [(1, 0, 1, 0)])
    assert solve_torus(ok, 1, 1).status == SAT


def test_an_empty_start_domain_is_unsat_before_any_propagation(monkeypatch):
    # a boundary color no tile shows, a period-1 torus axis whose tiles do
    # not match themselves, and an empty set each leave a cell no tile
    monkeypatch.setattr(solve, "_propagate", lambda *args: pytest.fail("propagated"))
    ts = make_tileset("t", [(0, 1, 0, 2)], num_colors=4)
    empty = make_tileset("e", [], num_colors=1)
    assert solve_rectangle(ts, 3, 2, BoundaryConstraint(north=(0, 3, 0))) == SearchResult(UNSAT)
    assert solve_torus(ts, 1, 4) == SearchResult(UNSAT)
    assert count_rectangle(empty, 2, 2) == SearchResult("COUNT", count=0)
    # tile 0 is on closed walks both ways, but its east neighbor on a walk,
    # tile 1, is on none north: no tile supports itself on every side
    lone = make_tileset("t", [(0, 1, 0, 2), (3, 2, 4, 1)])
    assert solve._closed_walk_tiles(lone, 1, 2) & solve._closed_walk_tiles(lone, 0, 100_000)
    assert solve_torus(lone, 2, 3) == SearchResult(UNSAT)
    # nor is a grid allocated for it: the domains and neighbor arrays of a
    # torus of 200,000 cells would take tens of megabytes
    for tiles, p, q in ((ts, 1, 200_000), (lone, 2, 100_000)):
        tracemalloc.start()
        try:
            r = solve_torus(tiles, p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == SearchResult(UNSAT)
        assert peak < 1_000_000


def test_a_declared_color_allocates_nothing():
    # colors that no tile shows cost neither the set nor its support table,
    # so a header of a million colors reads, solves and writes like one of 1
    text = "tileset t colors=1000000\ntile 0 0 0 0\n"
    tracemalloc.start()
    try:
        ts, _ = parse_tileset(text)
        results = (solve_rectangle(ts, 2, 2).status, solve_torus(ts, 2, 2).status,
                   aperiodicity_evidence(ts, 2, 2).periodic_found,
                   len(macro_tiles(ts, 2).tileset.tiles))
        written = serialize_tileset(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results == (SAT, SAT, (1, 1), 1)
    assert written == text
    assert peak < 1_000_000


def test_node_budget_gives_unknown():
    # fully free 3-color set on a big grid with a 1-node budget
    ts = make_tileset("t", [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)])
    max_nodes = 1
    r = count_rectangle(ts, 4, 4, budget=SearchBudget(max_nodes=max_nodes))
    assert r.status == UNKNOWN and r.count is None
    assert r.nodes <= max_nodes


def test_enumerate_limit_marks_incomplete():
    ts = make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)])
    sols, complete = enumerate_tilings(ts, 1, 1, limit=1)
    assert len(sols) == 1 and not complete


def test_torus_enumeration_lists_every_translate():
    # 3 of the 8 tilings have a tile at cell 0 that is not their least;
    # the first-solution rule for tori must not drop them here
    ts = make_tileset("t", [(0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1), (1, 0, 1, 0)])
    tilings, complete = enumerate_tilings(ts, 3, 3, wrap=True)
    assert complete
    assert len(tilings) == len(set(tilings)) == naive_count_tilings(ts, 3, 3, torus=True) == 8
    assert all(validate_tiling(ts, g, wrap=True) for g in tilings)


def test_clock_budget_covers_setup():
    one = make_tileset("t", [(0, 0, 0, 0)])
    start = time.monotonic()
    r = solve_rectangle(one, 600, 600, budget=SearchBudget(1, 1))
    assert time.monotonic() - start < 1.0
    assert (r.status, r.nodes) == (UNKNOWN, 0)
    with pytest.raises(InvalidInput):
        solve_rectangle(one, 600, 600, BoundaryConstraint(north=(0,)), SearchBudget(1, 1))


def test_a_grid_past_sys_maxsize_cells_is_invalid_input(monkeypatch):
    # rejected before its domains are built; an empty start still answers
    # UNSAT, since it builds no grid
    monkeypatch.setattr(solve, "_propagate", lambda *args: pytest.fail("propagated"))
    one = make_tileset("t", [(0, 0, 0, 0)])
    big = sys.maxsize + 1
    for attempt in (lambda: solve_rectangle(one, big, 1), lambda: solve_torus(one, 1, big),
                    lambda: count_rectangle(one, 10**10, 10**10),
                    lambda: enumerate_tilings(one, 10**20, 1, wrap=True)):
        with pytest.raises(InvalidInput, match="at most sys.maxsize cells"):
            attempt()
    lone = make_tileset("t", [(0, 1, 2, 3)], num_colors=4)
    assert solve_torus(lone, 1, 10**20) == SearchResult(UNSAT)


def test_a_clock_budget_past_sys_maxsize_millis_is_invalid_input():
    with pytest.raises(InvalidInput, match="max_millis must be at most sys.maxsize"):
        SearchBudget(5, 10**400)
    with pytest.raises(InvalidInput, match="max_millis must be at most sys.maxsize"):
        SearchBudget(max_millis=sys.maxsize + 1)
    one = make_tileset("t", [(0, 0, 0, 0)])
    assert solve_rectangle(one, 1, 1, budget=SearchBudget(5, sys.maxsize)).status == SAT


def expired_setup_peak(monkeypatch, reads_in_time: int) -> int:
    """Peak traced bytes of a 600 x 600 one-tile solve whose clock passes
    the deadline after its first `reads_in_time` reads, the first of which
    sets the deadline; asserts the answer is UNKNOWN with 0 nodes.  Memory,
    unlike time, does not depend on how fast the machine is."""
    reads = iter([0.0] * reads_in_time)
    monkeypatch.setattr(solve, "time", SimpleNamespace(monotonic=lambda: next(reads, 1e9)))
    one = make_tileset("t", [(0, 0, 0, 0)])
    tracemalloc.start()
    try:
        r = solve_rectangle(one, 600, 600, budget=SearchBudget(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.status, r.nodes) == (UNKNOWN, 0)
    return peak


def test_an_expired_clock_budget_builds_no_neighbor_arrays(monkeypatch):
    # past the deadline from set-up's first read on, set-up stops with the
    # domains (~3 MB) before it builds the cell index list (~13 MB)
    assert expired_setup_peak(monkeypatch, 1) < 10_000_000


def test_a_clock_budget_expiring_during_setup_builds_no_more_arrays(monkeypatch):
    # past the deadline once the index list and the first neighbor array
    # (~20 MB with the domains) are built, set-up builds none of the other
    # three, which would add ~3 MB each
    assert expired_setup_peak(monkeypatch, 2) < 21_600_000


def test_a_full_setup_shares_one_int_per_cell_index(monkeypatch):
    # past the deadline only at the root's clock read, after set-up's six:
    # the four neighbor arrays and the sweep slices are slices of one index
    # list, ~32 MB in all, where one list of ints each would take ~61 MB
    assert expired_setup_peak(monkeypatch, 6) < 45_000_000


def stop_the_clock_after_propagating(monkeypatch, calls=1):
    """The solver's clock stands still until `_propagate` has returned
    `calls` times (a sweep slice or a search step each), then jumps past
    every deadline: only a solver that reads the clock after that call
    answers UNKNOWN, however fast the machine and however often set-up
    reads the clock.  Returns the list that gains an entry per return."""
    returned = []
    propagate = solve._propagate

    def propagate_then_count(*args):
        ok = propagate(*args)
        returned.append(1)
        return ok

    monkeypatch.setattr(solve, "_propagate", propagate_then_count)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: 1e9 if len(returned) >= calls else 0.0))
    return returned


def test_clock_budget_covers_the_initial_propagation(monkeypatch):
    stop_the_clock_after_propagating(monkeypatch)
    one = make_tileset("t", [(0, 0, 0, 0)])
    r = solve_rectangle(one, 100, 100, budget=SearchBudget(1, 1))
    assert (r.status, r.nodes) == (UNKNOWN, 0)


def test_clock_budget_covers_each_slice_of_an_initial_propagation_with_work(monkeypatch):
    # a boundary makes the sweep revise all 10,000 cells in three slices;
    # the clock passes the deadline once the first slice has propagated,
    # so the other two are not revised
    returned = stop_the_clock_after_propagating(monkeypatch)
    one = make_tileset("t", [(0, 0, 0, 0)])
    r = solve_rectangle(one, 100, 100, BoundaryConstraint(north=(0,) * 100),
                        SearchBudget(1, 1))
    assert (r.status, r.nodes) == (UNKNOWN, 0)
    assert len(returned) == 1


def test_clock_budget_covers_every_search_node(monkeypatch):
    # every cell of the row branches; the clock passes the deadline once the
    # first node has propagated, so the second node is not tried
    stop_the_clock_after_propagating(monkeypatch, 2)
    r = solve_rectangle(FREE_COLUMNS, 5, 1, budget=SearchBudget(max_millis=1))
    assert (r.status, r.nodes) == (UNKNOWN, 1)


def test_clock_budget_covers_the_lex_leader_step(monkeypatch):
    # tiles 0 and 1 alternate both ways and tile 2 matches itself, so every
    # tile is on closed walks of 2 and 3 steps (0 -> 1 -> 2 -> 0) and starts
    # in every cell; but the 0/1 checkerboard needs even periods, so tiles 0
    # and 1 fail at cell 0.  Tile 1's try is refuted without propagating:
    # without tile 0 no tile fits west of it.  So the third propagation is
    # the lex-leader step of the third and last node, which would answer SAT
    odd = make_tileset("t", [(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)])
    r = solve_torus(odd, 2, 3)
    assert (r.status, r.nodes) == (SAT, 3)
    stop_the_clock_after_propagating(monkeypatch, 3)
    r = solve_torus(odd, 2, 3, budget=SearchBudget(max_millis=1))
    assert (r.status, r.nodes) == (UNKNOWN, 3)


def record_propagated_cells(monkeypatch) -> list[list[int]]:
    """The cells each `_propagate` call starts from, in call order."""
    starts = []
    propagate = solve._propagate

    def record_then_propagate(dom, dirty, *args):
        starts.append(list(dirty))
        return propagate(dom, dirty, *args)

    monkeypatch.setattr(solve, "_propagate", record_then_propagate)
    return starts


def sweep_slices(total: int) -> list[list[int]]:
    return [list(range(c, min(c + solve._SWEEP_SLICE, total)))
            for c in range(0, total, solve._SWEEP_SLICE)]


def solved(r: SearchResult) -> tuple:
    return r.status, r.tiling.cells if r.tiling else None, r.nodes


def test_a_start_that_supports_itself_is_not_swept(monkeypatch):
    # with no boundary every cell of the square starts from all of
    # Robinson's tiles, which support themselves across every side
    starts = record_propagated_cells(monkeypatch)
    rob = robinson_tileset().tileset
    r = solve_rectangle(rob, 12, 12)
    assert starts[0] == []
    assert solved(r) == naive_solve(rob, 12, 12)


def test_a_boundary_sweeps_every_cell_slice_by_slice(monkeypatch):
    # the start domain supports itself, but the boundary may narrow it
    starts = record_propagated_cells(monkeypatch)
    one = make_tileset("t", [(0, 0, 0, 0)])
    boundary = BoundaryConstraint(north=(0,) * 70)
    r = solve_rectangle(one, 70, 70, boundary)
    assert starts == sweep_slices(70 * 70) and len(starts) == 2
    assert solved(r) == naive_solve(one, 70, 70, boundary=boundary)


def test_a_start_that_does_not_support_itself_sweeps_every_cell(monkeypatch):
    # tile 1's east color is no tile's west color, so tile 1 fits only in
    # the east column: the start narrows with no boundary
    starts = record_propagated_cells(monkeypatch)
    ts = make_tileset("t", [(0, 0, 0, 0), (0, 1, 0, 0)])
    r = solve_rectangle(ts, 3, 3)
    assert starts[:1] == sweep_slices(9)
    assert solved(r) == naive_solve(ts, 3, 3)


def test_the_lex_leader_step_sweeps_every_cell(monkeypatch):
    # a torus starts from its fixpoint, so only the initial sweep is empty;
    # tile 0 fails at cell 0 in a search step, tile 1 fails without any
    # propagation, since no tile but tile 0 fits west of it, and tile 2
    # drops both from every other cell and sweeps every cell
    starts = record_propagated_cells(monkeypatch)
    odd = make_tileset("t", [(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)])
    r = solve_torus(odd, 2, 3)
    assert starts == [[], [0], list(range(6))]
    assert solved(r) == naive_solve(odd, 2, 3, torus=True)


@pytest.mark.parametrize("limit", [0, -3])
def test_enumerate_rejects_limit_below_one(limit):
    ts = make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)])
    with pytest.raises(InvalidInput):
        enumerate_tilings(ts, 1, 1, limit=limit)


def test_domino_all_zero_tile_periodic_1_1():
    ts = make_tileset("t", [(0, 0, 0, 0)])
    rep = aperiodicity_evidence(ts, 4, 4)
    assert (rep.periodic_found, rep.unsat_square, rep.completed_n) == ((1, 1), None, 0)


def test_domino_mismatch_tile_no_tiling_at_2():
    # (n,e,s,w) = (0,1,0,2): 1x1 rect SAT, 1x1 torus UNSAT (e != w),
    # 2x2 rect UNSAT -> the walk reports NO_TILING at n=2
    ts = make_tileset("t", [(0, 1, 0, 2)])
    assert solve_rectangle(ts, 1, 1).status == SAT
    assert solve_torus(ts, 1, 1).status == UNSAT
    assert solve_rectangle(ts, 2, 2).status == UNSAT
    rep = aperiodicity_evidence(ts, 5, 5)
    assert (rep.periodic_found, rep.unsat_square, rep.completed_n) == (None, 2, 1)


def test_domino_undecided_reports_completed_sweep():
    ts = make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)])
    assert aperiodicity_evidence(ts, 3, 3).periodic_found == (1, 1)
    checker = make_tileset("t", [(0, 1, 0, 2), (0, 2, 0, 1)])
    rep = aperiodicity_evidence(checker, 2, 2)
    # checkerboard-ish pair: 1x1 torus impossible, 2x? torus works
    assert (rep.periodic_found, rep.completed_n) == ((2, 1), 1)
    # no torus and no UNSAT square: every square and torus up to 2 is tried
    rep = aperiodicity_evidence(robinson_tileset().tileset, 2, 2)
    assert (rep.periodic_found, rep.unsat_square, rep.completed_n) == (None, None, 2)
    assert len(rep.square_verdicts) + len(rep.torus_verdicts) == 2 + 4


def test_determinism_identical_runs():
    rng = random.Random(5)
    for _ in range(10):
        ts = random_tileset(rng)
        a = solve_rectangle(ts, 3, 2)
        b = solve_rectangle(ts, 3, 2)
        assert a == b


def boundaries(c: int, ntiles: int, w: int, h: int):
    """None or a boundary of a w x h rectangle over c colors and ntiles
    tiles: each edge free or forced, and up to 3 forced cells."""
    color = st.integers(0, c - 1)

    def edge(n):
        return st.none() | st.tuples(*[color] * n)

    forced = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                       st.integers(0, ntiles - 1))
    return st.none() | st.builds(
        BoundaryConstraint, north=edge(w), south=edge(w), east=edge(h), west=edge(h),
        forced_cells=st.lists(forced, max_size=3).map(tuple))


@st.composite
def tile_lists(draw, ntiles=(1, 6)):
    """(c, ntiles[0] to ntiles[1] distinct tiles over c <= 3 colors)."""
    c = draw(st.integers(1, 3))
    color = st.integers(0, c - 1)
    return c, draw(st.lists(st.tuples(color, color, color, color),
                            min_size=ntiles[0], max_size=ntiles[1], unique=True))


@st.composite
def solve_instances(draw, ntiles=(1, 6), max_side=4, torus=st.booleans()):
    """(tile set, w, h, torus, boundary) with ntiles[0] to ntiles[1] tiles,
    <= 3 colors and sides <= `max_side`; a torus if `torus` draws True."""
    c, tiles = draw(tile_lists(ntiles))
    w, h = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if draw(torus):
        return make_tileset("h", tiles, num_colors=c), w, h, True, None
    boundary = draw(boundaries(c, len(tiles), w, h))
    return make_tileset("h", tiles, num_colors=c), w, h, False, boundary


def tile_sets(ts, dom: list[int]) -> list[set[int]]:
    """Each domain of `dom` as the set of its tile indices."""
    return [{t for t in range(len(ts.tiles)) if d >> t & 1} for d in dom]


# an incrementer's space-time diagram with its bottom row forced: the
# initial propagation revises each of its 12 cells once
INCREMENTER_4 = tm_to_tileset(INCREMENTER, 4)
INCREMENTER_4_SOUTH = BoundaryConstraint(
    south=tm_initial_boundary(INCREMENTER, INCREMENTER_4, "1", 4, 3).south)
# the same diagram with only its top row forced, to the colors its halted
# row shows north: the top row is narrowed before the rows below it are
# revised, and narrows them again after their revision.  The naive oracle
# finds that row, so that a solver fault fails tests, not the import of
# this module and of test_cli
INCREMENTER_4_NORTH = BoundaryConstraint(north=tuple(
    INCREMENTER_4.tileset.tiles[t].north for t in naive_solve(
        INCREMENTER_4.tileset, 4, 3, boundary=INCREMENTER_4_SOUTH)[1][-1]))


@settings(max_examples=300, deadline=None)
@given(solve_instances())
@example((make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)]), 2, 2, False,
          BoundaryConstraint(forced_cells=((1, 1, 0), (1, 1, 1)))))
@example((make_tileset("t", [(0, 1, 0, 2), (1, 1, 1, 1)]), 1, 3, True, None))
# a torus whose search the translation rule shortens: 4 nodes, not 11
@example((make_tileset("t", [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 1)]),
          3, 3, True, None))
# one with 8 tilings, 3 of them with a tile at cell 0 that is not their least
@example((make_tileset("t", [(0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1), (1, 0, 1, 0)]),
          3, 3, True, None))
@example((INCREMENTER_4.tileset, 4, 3, False, INCREMENTER_4_SOUTH))
@example((INCREMENTER_4.tileset, 4, 3, False, INCREMENTER_4_NORTH))
# tori of period 1 or 2 over tiles whose opposite sides differ: a cell is
# its own neighbor across a period-1 axis, and across a period-2 axis both
# of its neighbors are the same cell
@example((make_tileset("t", [(0, 1, 0, 0), (1, 1, 1, 1)]), 1, 1, True, None))
@example((make_tileset("t", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]), 2, 1, True, None))
@example((make_tileset("t", [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)]), 1, 2, True, None))
@example((make_tileset("t", [(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)]),
          2, 2, True, None))
@example((make_tileset("t", [(0, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 0)]), 2, 2, True, None))
# a torus whose root domain lacks tile 0: cell 0 first tries the root's
# least tile, tile 1, which drops nothing from the other cells (SAT after
# 2 nodes); and one where tile 0 fails at cell 0 and tile 1, tried next,
# drops tile 0 from every other cell (SAT after 2 nodes)
@example((make_tileset("t", [(0, 0, 1, 0), (1, 0, 1, 0), (1, 1, 1, 1)]), 2, 2, True, None))
@example((make_tileset("t", [(0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 0, 0)]), 2, 2, True, None))
def test_search_matches_naive_reference_solver(instance):
    ts, w, h, torus, boundary = instance
    if torus:
        r = solve_torus(ts, w, h)
    else:
        r = solve_rectangle(ts, w, h, boundary=boundary)
    got = (r.status, r.tiling.cells if r.tiling else None, r.nodes)
    assert got == naive_solve(ts, w, h, torus=torus, boundary=boundary)
    # the same search run to the end; budgeted, because a free 4-tile set
    # has 4**16 tilings of a 4 x 4 square
    budget = SearchBudget(max_nodes=2_000)
    tilings, complete = enumerate_tilings(ts, w, h, boundary, budget, wrap=torus)
    assert r.nodes <= budget.max_nodes  # so the enumeration reached the verdict
    assert tilings[:1] == ([r.tiling] if r.status == SAT else [])
    if not torus:
        c = count_rectangle(ts, w, h, boundary, budget)
        assert (c.status, c.count) == (("COUNT", len(tilings)) if complete else (UNKNOWN, None))


# at least 3 tiles, so that about one draw in twelve tries a second tile at
# cell 0 and drops the tiles below it from every other cell
@settings(max_examples=300, deadline=None)
@given(solve_instances(ntiles=(3, 5), max_side=6, torus=st.just(True)))
def test_torus_search_matches_naive_reference_solver(instance):
    ts, w, h, _, _ = instance
    r = solve_torus(ts, w, h)
    assert (r.status, r.tiling.cells if r.tiling else None, r.nodes) == \
        naive_solve(ts, w, h, torus=True)


@settings(max_examples=300, deadline=None)
@given(solve_instances(max_side=6))
@example((INCREMENTER_4.tileset, 4, 3, False, INCREMENTER_4_SOUTH))
@example((INCREMENTER_4.tileset, 4, 3, False, INCREMENTER_4_NORTH))
def test_the_initial_propagation_reaches_the_arc_consistency_fixpoint(instance):
    ts, w, h, torus, boundary = instance
    doms = naive_start_domains(ts, w, h, torus, boundary)
    fixpoint = doms if naive_arc_consistency(ts, w, h, torus, doms) else None
    if torus:
        # set-up's one self-supporting domain is already the fixpoint, or
        # its one empty domain the wipeout
        dom, _, _ = solve._setup(ts, w, h, True, None, float("inf"))
        assert (tile_sets(ts, dom) if all(dom) else None) == fixpoint
    # at every slice length, so that cells pull from east neighbors that a
    # later slice revises
    sweep_cells = solve._sweep_cells
    for cells in (1, 2, 3, 4096):
        swept = []

        def record_sweep(dom, *args):
            ok = sweep_cells(dom, *args)
            swept.append(tile_sets(ts, dom) if ok else None)
            return ok

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_SWEEP_SLICE", cells)
            mp.setattr(solve, "_sweep_cells", record_sweep)
            budget = SearchBudget(max_nodes=1)  # only the initial propagation matters
            if torus:
                solve_torus(ts, w, h, budget)
            else:
                solve_rectangle(ts, w, h, boundary, budget)
        # an empty start domain is a wipeout found before any sweep
        assert (swept[0] if swept else None) == fixpoint


@settings(max_examples=300, deadline=None)
@given(solve_instances())
# a 2 x 2 rectangle where 2 of 7 steps wipe out, and a 2 x 2 torus where
# all 3 do
@example((make_tileset("t", [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 1, 1)]), 2, 2, False, None))
@example((make_tileset("t", [(0, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1)]), 2, 2, True, None))
def test_every_search_step_reaches_the_arc_consistency_fixpoint(instance):
    # a step assigns one cell of a fixpoint and propagates from that cell
    # alone; it must end at the fixpoint of its input, or in a wipeout
    # exactly when that fixpoint holds an empty domain
    ts, w, h, torus, boundary = instance
    steps = []
    propagate = solve._propagate

    def record_step(dom, dirty, sides, memo, pending=None):
        before = tile_sets(ts, dom)
        ok = propagate(dom, dirty, sides, memo, pending)
        if pending is None:  # a sweep passes `pending`
            steps.append((before, tile_sets(ts, dom) if ok else None))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_propagate", record_step)
        budget = SearchBudget(max_nodes=60)
        if torus:
            solve_torus(ts, w, h, budget)  # steps after a lex-leader sweep
        enumerate_tilings(ts, w, h, boundary, budget, wrap=torus)
    for before, after in steps:
        assert (before if naive_arc_consistency(ts, w, h, torus, before) else None) == after


@settings(max_examples=300, deadline=None)
@given(solve_instances(ntiles=(2, 5), torus=st.just(True)))
# tile 1 is refuted at cell 0 without a propagation: with tile 0 dropped, no
# tile fits west of it
@example((make_tileset("t", [(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]), 2, 3, True, None))
# tile 2's try narrows tiles 2 to 4 to tiles 2 and 4, and so propagates
@example((make_tileset("t", [(0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1),
                             (1, 1, 0, 1)]), 2, 3, True, None))
def test_a_lex_leader_try_refuted_by_its_self_supporting_domain_wipes_out(instance):
    # a torus narrows a uniform domain d to its self-supporting part u: at
    # the root, and at each lex-leader try of tile t at cell 0, from the
    # tiles from t up.  u must be the fixpoint of d everywhere.  A try
    # propagates exactly when t is in u; otherwise tile t at cell 0 and d
    # elsewhere must wipe out
    ts, w, h, _, _ = instance
    events = []  # (d, u) per narrowing, None per `_propagate` call
    self_supporting, propagate = solve._self_supporting, solve._propagate

    def record_narrowing(d, memo):
        u = self_supporting(d, memo)
        events.append((d, u))
        return u

    def record_propagation(*args):
        events.append(None)
        return propagate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_self_supporting", record_narrowing)
        mp.setattr(solve, "_propagate", record_propagation)
        solve_torus(ts, w, h, SearchBudget(max_nodes=60))
    for i, event in enumerate(events):
        if event is None:
            continue
        d, u = event
        doms = tile_sets(ts, [d] * (w * h))
        naive_arc_consistency(ts, w, h, True, doms)
        assert doms == tile_sets(ts, [u] * (w * h))
        if i == 0:
            continue  # the root's start, not a try
        t = (d & -d).bit_length() - 1
        propagated = i + 1 < len(events) and events[i + 1] is None
        assert propagated == bool(u >> t & 1)
        if not propagated:
            trial = [{t}] + tile_sets(ts, [d] * (w * h - 1))
            assert not naive_arc_consistency(ts, w, h, True, trial)


def count_revisions(monkeypatch) -> list[int]:
    """A one-item list counting the cells `_propagate` revises from now on:
    each revision pops one cell from its queue."""
    revisions = [0]

    class CountingDeque(deque):
        def popleft(self):
            revisions[0] += 1
            return super().popleft()

    monkeypatch.setattr(solve, "deque", CountingDeque)
    return revisions


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
@pytest.mark.parametrize("decrement", [False, True], ids=["inc", "dec"])
def test_a_forced_counter_diagram_takes_one_revision_per_cell(monkeypatch, decrement,
                                                              mirrored):
    # a 6-bit counter counts through 898 rows of an 8-cell tape: 7,184
    # cells, two slices of the initial propagation.  Each cell takes its
    # east neighbor's support before its revision, and no revision narrows
    # a cell revised before it.
    tape = "#" + ("1" if decrement else "0") * 6 + "#"
    n = len(tape)
    head = n - 1 if mirrored else 0
    tm = counter(decrement, mirrored)
    height = len(tm_run(tm, tape, n, head=head))
    assert n * height > solve._SWEEP_SLICE
    revisions = count_revisions(monkeypatch)
    comp, _, configs, r = run_and_check(tm, tape, n, height, head=head)
    assert (r.status, r.nodes, revisions[0]) == (SAT, 0, n * height)
    assert [tuple(comp.decode[i] for i in row) for row in r.tiling.cells] == configs


def test_a_cell_narrowed_after_its_revision_is_revised_again(monkeypatch):
    revisions = count_revisions(monkeypatch)
    south = solve_rectangle(INCREMENTER_4.tileset, 4, 3, INCREMENTER_4_SOUTH)
    assert (south.nodes, revisions[0]) == (0, 12)
    revisions[0] = 0
    north = solve_rectangle(INCREMENTER_4.tileset, 4, 3, INCREMENTER_4_NORTH)
    assert north.nodes == 0 and revisions[0] > 12
    assert north.tiling == south.tiling


@pytest.mark.parametrize("side", ["east", "west", "north", "south"])
def test_a_wipeout_ends_the_propagation_at_the_revision_that_finds_it(monkeypatch, side):
    # two cells across `side` holding tiles that do not match: revising the
    # first empties the second, and the propagation stops there instead of
    # revising the emptied cell, which would find the same wipeout one
    # revision later
    ts = make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)])
    w, h = (2, 1) if side in ("east", "west") else (1, 2)
    dom, sides, _ = solve._setup(ts, w, h, False, None, float("inf"))
    first = 0 if side in ("east", "north") else 1
    dom[first], dom[1 - first] = 0b01, 0b10
    revisions = count_revisions(monkeypatch)
    assert not solve._propagate(dom, (first,), sides, ts.supports)
    assert revisions[0] == 1


@settings(max_examples=200, deadline=None)
# at most 4**6 grids, to keep the enumeration cheap
@given(tile_lists(ntiles=(1, 4)),
       st.sampled_from([(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if p * q <= 6]))
def test_torus_start_domains_drop_only_tiles_in_no_tiling(tiles, periods):
    (c, tiles), (p, q) = tiles, periods
    ts = make_tileset("h", tiles, num_colors=c)
    mask = solve._closed_walk_tiles(ts, 1, p) & solve._closed_walk_tiles(ts, 0, q)
    start = {t for t in range(len(tiles)) if mask >> t & 1}
    assert start == naive_closed_walk_tiles(ts, "east", p) & naive_closed_walk_tiles(ts, "north", q)
    for flat in naive_tilings(ts, p, q, torus=True):
        assert set(flat) <= start


def test_closed_walks_of_any_period_stop_at_a_repeat():
    # east of tile 0 lies the 2-cycle 1 -> 2 -> 1, so tile 0 is on no closed
    # walk and tiles 1 and 2 are on every even one; 10**18 steps would never
    # finish, and no grid is built
    ts = make_tileset("t", [(0, 1, 0, 0), (0, 2, 0, 1), (0, 1, 0, 2)])
    tracemalloc.start()
    try:
        masks = [solve._closed_walk_tiles(ts, 1, p) for p in (10**18, 10**18 + 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == [0b110, 0]
    assert peak < 100_000
    assert ts.supports.walks[1] == {10**18: 0b110, 10**18 + 1: 0}


@settings(max_examples=200, deadline=None)
@given(tile_lists(ntiles=(0, 6)), st.integers(0, 2), st.data())
def test_each_side_table_allows_what_the_oracle_allows(tiles, unused, data):
    # `unused` extra colors no tile shows; the empty domain is always looked
    # up, and each lookup stores its entry (`get` never fills the memo)
    c, tiles = tiles
    ts = make_tileset("h", tiles, num_colors=c + unused)
    domains = data.draw(st.lists(st.integers(0, (1 << len(tiles)) - 1), max_size=6)) + [0]
    memo = ts.supports
    for d in domains:
        got = memo[d]
        assert len(got) == 4
        for k, allowed in enumerate(got):
            assert {u for u in range(len(tiles)) if allowed >> u & 1} == naive_allowed(ts, k, d)
        assert memo.get(d) == got
    assert memo.keys() == set(domains)


def test_a_domain_misses_once_and_fills_every_side(monkeypatch):
    # the first lookup of a domain misses once and stores all four sides,
    # in `Tile.sides()` order; a second lookup misses none
    ts = make_tileset("t", [(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)])
    asked = []
    missing = Supports.__missing__
    monkeypatch.setattr(Supports, "__missing__",
                        lambda memo, d: asked.append((memo, d)) or missing(memo, d))
    first = ts.supports[0b011]
    assert asked == [(ts.supports, 0b011)]
    assert [{u for u in range(3) if allowed >> u & 1} for allowed in first] == \
        [naive_allowed(ts, k, 0b011) for k in range(4)]
    assert ts.supports[0b011] is first
    assert len(asked) == 1
    assert dict(ts.supports) == {0b011: first}
    ts.supports[0b100]
    assert asked == [(ts.supports, 0b011), (ts.supports, 0b100)]


@st.composite
def call_sequences(draw):
    """(c, tiles, calls): 1 to 6 solver or map-search calls, on grids up to
    4 x 4 for the solvers, each (kind, w, h, boundary, limit); tori, torus
    enumerations and map searches have no boundary."""
    c, tiles = draw(tile_lists())
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["rect", "torus", "count", "enum", "enum-torus",
                                     "sim"]))
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        boundary = (draw(boundaries(c, len(tiles), w, h))
                    if kind in ("rect", "count", "enum") else None)
        calls.append((kind, w, h, boundary, draw(st.sampled_from([None, 1, 3]))))
    return c, tiles, calls


ENOUGH = SearchBudget(max_nodes=2_000)  # a free 4-tile 4 x 4 square has 4**16 tilings


def call(ts, kind, w, h, boundary, limit):
    if kind == "rect":
        return solve_rectangle(ts, w, h, boundary)
    if kind == "torus":
        return solve_torus(ts, w, h)
    if kind == "count":
        return count_rectangle(ts, w, h, boundary, ENOUGH)
    if kind == "sim":
        return find_simulation(ts, ts)
    return enumerate_tilings(ts, w, h, boundary, ENOUGH, wrap=kind == "enum-torus",
                             limit=limit)


@settings(max_examples=150, deadline=None)
@given(call_sequences())
def test_solves_sharing_a_tile_set_match_solves_of_a_fresh_copy(sequence):
    # every call on `shared` finds the memos its earlier calls filled; the
    # same call on an equal, new tile set starts from empty ones
    c, tiles, calls = sequence
    shared = make_tileset("h", tiles, num_colors=c)
    for kind, w, h, boundary, limit in calls:
        fresh = make_tileset("h", tiles, num_colors=c)
        got = call(shared, kind, w, h, boundary, limit)
        assert got == call(fresh, kind, w, h, boundary, limit)
        # what the fresh copy memoized, the shared set memoized alike
        assert fresh.supports.items() <= shared.supports.items()
        if kind == "sim":
            continue  # naive_solve has no map search to compare with
        status, cells, nodes = naive_solve(shared, w, h, torus="torus" in kind,
                                           boundary=boundary)
        if kind in ("rect", "torus"):
            assert (got.status, got.tiling.cells if got.tiling else None, got.nodes) == \
                (status, cells, nodes)
        elif kind == "count":
            assert got.status == UNKNOWN or (got.count > 0) == (status == SAT)
        else:
            tilings, complete = got
            if tilings:
                assert tilings[0].cells == cells
            elif complete:
                assert status == UNSAT


def test_a_tile_sets_tables_die_with_it():
    ts = make_tileset("t", [(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)])
    solve_torus(ts, 2, 2)
    count_rectangle(ts, 3, 3)
    assert ts.supports and all(ts.supports.walks[:2])
    alive = [weakref.ref(ts), weakref.ref(ts.supports)]
    del ts
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


def test_domino_honours_shared_node_budget():
    # the first squares of this set take 1 node and its thin tori none, so
    # a sweep that kept issuing searches past the budget would overspend
    costly = make_tileset("t", [(0, 0, 2, 2), (0, 1, 0, 2), (0, 1, 1, 2),
                                (0, 1, 2, 2), (1, 1, 2, 1), (2, 2, 2, 0)])
    free = make_tileset("t", [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)])
    for ts in (costly, free):
        for max_nodes in range(1, 12):
            rep = aperiodicity_evidence(ts, 4, 4, budget=SearchBudget(max_nodes=max_nodes))
            assert rep.nodes <= max_nodes


# two tiles that agree east-west and differ north-south: on a 1-row grid
# every cell branches, so the search goes as deep as the row is long
FREE_COLUMNS = make_tileset("c", [(0, 0, 0, 0), (1, 0, 1, 0)])
DEEP = 1_100  # past Python's default recursion limit of 1,000


@pytest.mark.parametrize("solver", [solve_rectangle, solve_torus])
def test_search_deeper_than_the_recursion_limit(solver):
    r = solver(FREE_COLUMNS, DEEP, 1)
    assert r.status == SAT and r.nodes == DEEP
    assert r.tiling.cells == ((0,) * DEEP,)


def test_enumeration_resumes_at_the_bottom_of_a_deep_search():
    tilings, complete = enumerate_tilings(FREE_COLUMNS, DEEP, 1, limit=2)
    assert not complete
    assert [t.cells for t in tilings] == [((0,) * DEEP,), ((0,) * (DEEP - 1) + (1,),)]


@settings(max_examples=200, deadline=None)
@given(solve_instances(), st.integers(1, 40))
# counting both tilings of one cell takes exactly the 2 nodes it may spend
@example((make_tileset("t", [(0, 0, 0, 0), (1, 1, 1, 1)]), 1, 1, False, None), 2)
def test_a_search_never_spends_more_nodes_than_its_budget(instance, max_nodes):
    ts, w, h, torus, boundary = instance
    runs = [lambda b: solve_torus(ts, w, h, b)] if torus else [
        lambda b: solve_rectangle(ts, w, h, boundary, b),
        lambda b: count_rectangle(ts, w, h, boundary, b)]
    for run in runs:
        # a run that needs at most 41 nodes ends the same under any larger
        # budget, and one that needs more is UNKNOWN at max_nodes <= 40
        full = run(SearchBudget(max_nodes=41))
        got = run(SearchBudget(max_nodes=max_nodes))
        assert got.nodes <= max_nodes
        if full.status != UNKNOWN and full.nodes <= max_nodes:
            assert got == full
        else:
            assert (got.status, got.nodes) == (UNKNOWN, max_nodes)
