import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftforge.aperiodic import (ROBINSON_TILE_COUNT, _signal_tiles,
                                  aperiodicity_evidence, format_evidence,
                                  robinson_tileset)
from shiftforge.core import make_tileset, validate_tiling
from shiftforge.errors import InvalidInput
from shiftforge.solve import (SAT, UNKNOWN, UNSAT, SearchBudget, solve_rectangle,
                              solve_torus)


def test_tile_count_and_normal_form():
    rs = robinson_tileset()
    assert len(rs.tileset.tiles) == ROBINSON_TILE_COUNT
    tiles = rs.tileset.tiles
    assert all(a < b for a, b in zip(tiles, tiles[1:]))
    assert {c for t in tiles for c in t.sides()} == set(range(len(rs.tileset.colors)))
    assert len(rs.tile_roles) == ROBINSON_TILE_COUNT


def test_construction_is_deterministic():
    assert robinson_tileset() == robinson_tileset()


def test_roles_stay_aligned_with_tiles():
    rs = robinson_tileset()
    # parity is recoverable from both the role text and the color names;
    # they must agree tile by tile
    for tile, role in zip(rs.tileset.tiles, rs.tile_roles):
        px, py = map(int, role.rsplit("(", 1)[1][:3:2])
        assert rs.tileset.colors[tile.north][:3] == ("v", px, py)


def signal_kind(west, east, south, north):
    """The module docstring's rules read as a test of one quadruple of
    (direction, multiplicity, side bit) arrows: "cross", "hmeet", "vmeet"
    or None."""
    away = {"N": "S", "S": "N", "E": "W", "W": "E"}
    arms = (west, east, south, north)
    if tuple(a[0] for a in arms) == ("W", "E", "S", "N"):
        # arm rule: some facing (fx, fy) makes exactly its arms double, and
        # every arm's side bit is the facing on the other axis
        return next(("cross" for fx in "EW" for fy in "NS"
                     if all((a[1] == "d") == (a[0] in (fx, fy))
                            and a[2] == (fy if a[0] in "EW" else fx) for a in arms)), None)
    for kind, low, high, across, other, heads in (("hmeet", west, east, south, north, "EW"),
                                                  ("vmeet", south, north, west, east, "NS")):
        # meet rule: two heads meet with equal multiplicity and side bit, the
        # other axis passes one arrow unchanged, and a double meet's passing
        # arrow points away from its side
        if ((low[0], high[0]) == tuple(heads) and low[1:] == high[1:]
                and across == other and (low[1] == "s" or across[0] == away[low[2]])):
            return kind
    return None


def test_signal_tiles_are_the_quadruples_the_rules_allow():
    # every (direction, multiplicity, side bit) arrow an edge can carry:
    # along the edge's line, with a side bit across it
    horizontal = list(itertools.product("EW", "ds", "NS"))
    vertical = list(itertools.product("NS", "ds", "EW"))
    allowed = {(kind, *q) for q in itertools.product(horizontal, horizontal, vertical, vertical)
               if (kind := signal_kind(*q))}
    signals = [t[:5] for t in _signal_tiles()]
    assert len(signals) == len(set(signals)) == ROBINSON_TILE_COUNT // 2
    assert set(signals) == allowed


def test_squares_tile_up_to_12():
    ts = robinson_tileset().tileset
    for n in (1, 2, 4, 7, 12):
        r = solve_rectangle(ts, n, n)
        assert r.status == SAT
        assert validate_tiling(ts, r.tiling)


def test_no_small_torus():
    ts = robinson_tileset().tileset
    for p in range(1, 5):
        for q in range(1, 5):
            assert solve_torus(ts, p, q).status == UNSAT


def test_odd_period_tori_are_refuted_at_their_start_domains():
    # the 2x2 parity lattice puts every tile on closed walks of even length
    # only, so a torus with an odd period starts with every cell empty
    ts = robinson_tileset().tileset
    for p in range(1, 13):
        for q in range(1, 13):
            if p % 2 or q % 2:
                r = solve_torus(ts, p, q)
                assert (r.status, r.nodes) == (UNSAT, 0)


def test_translations_of_a_torus_are_refuted_once():
    # a bound, not a golden count: one refutation per translation of the
    # 32 x 32 torus takes over 5,000 nodes
    ts = robinson_tileset().tileset
    assert solve_torus(ts, 32, 32, SearchBudget(max_nodes=1_000)).status == UNSAT


def test_evidence_report_on_builtin_set():
    ts = robinson_tileset().tileset
    rep = aperiodicity_evidence(ts, max_square=4, max_period=2)
    assert rep.consistent_with_aperiodicity
    assert rep.largest_sat_square == 4
    assert rep.periodic_found is None
    assert not rep.budget_exhausted
    text = format_evidence(rep)
    assert text.endswith("verdict: consistent with aperiodicity at tested bounds\n")


def test_evidence_flags_periodic_control_set():
    ts = make_tileset("free", [(0, 0, 0, 0)])
    rep = aperiodicity_evidence(ts, max_square=3, max_period=2)
    assert rep.periodic_found == (1, 1)
    assert not rep.consistent_with_aperiodicity
    assert "not aperiodic" in format_evidence(rep)


def test_evidence_reports_a_set_that_cannot_tile_the_plane():
    # 1x1 tiles; 2x2 does not, since the tile's east and west differ
    ts = make_tileset("one", [(0, 1, 2, 3)])
    rep = aperiodicity_evidence(ts, max_square=4, max_period=3)
    assert rep.square_verdicts == ((1, SAT), (2, UNSAT))
    # no torus of level 2 or 3 is set up after the UNSAT square
    assert rep.torus_verdicts == ((1, 1, UNSAT),)
    assert rep.unsat_square == 2 and rep.largest_sat_square == 1
    assert not rep.consistent_with_aperiodicity
    assert format_evidence(rep).endswith(
        "verdict: no tiling of the plane (square 2x2 UNSAT)\n")


def test_evidence_rejects_bad_bounds():
    ts = make_tileset("free", [(0, 0, 0, 0)])
    with pytest.raises(InvalidInput):
        aperiodicity_evidence(ts, 0, 2)


def test_evidence_shares_one_node_budget():
    free = make_tileset("free", [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)])
    rep = aperiodicity_evidence(free, max_square=4, max_period=2,
                                budget=SearchBudget(max_nodes=2))
    # square 1 and torus 1x1 take a node each, and the SAT torus ends the
    # walk before square 2 would need a third
    assert not rep.budget_exhausted and rep.nodes == 2 and rep.completed_n == 0
    assert rep.square_verdicts == ((1, SAT),)
    assert rep.torus_verdicts == ((1, 1, SAT),)
    assert format_evidence(rep).endswith(
        "torus 1x1: SAT\nverdict: not aperiodic (periodic tiling with periods 1x1)\n")
    # columns of period 3 tile every square but no torus of height 1 or 2, so
    # this walk runs on past its tori, which their start domains refute at 0
    # nodes (no tile is on a closed walk of 1 or 2 steps north); square n
    # branches once per column, so squares 1 and 2 take 3 nodes and leave
    # one of the 3 that square 3 needs
    cycle = make_tileset("cycle", [(1, 0, 0, 0), (2, 0, 1, 0), (0, 0, 2, 0)])
    rep = aperiodicity_evidence(cycle, max_square=4, max_period=2,
                                budget=SearchBudget(max_nodes=4))
    assert rep.budget_exhausted and rep.nodes == 4 and rep.completed_n == 2
    assert rep.square_verdicts == ((1, SAT), (2, SAT), (3, UNKNOWN))
    assert rep.torus_verdicts == ((1, 1, UNSAT), (1, 2, UNSAT), (2, 1, UNSAT), (2, 2, UNSAT))
    assert format_evidence(rep).endswith("verdict: inconclusive (budget exhausted)\n")
    # a budget that is not hit gives each search what it gets on its own
    rep = aperiodicity_evidence(cycle, max_square=4, max_period=2)
    alone = [solve_rectangle(cycle, n, n) for n in range(1, 5)]
    alone += [solve_torus(cycle, p, q) for p in (1, 2) for q in (1, 2)]
    assert not rep.budget_exhausted and rep.nodes == sum(r.nodes for r in alone)
    assert [st for _, st in rep.square_verdicts] == [r.status for r in alone[:4]]
    assert [st for _, _, st in rep.torus_verdicts] == [r.status for r in alone[4:]]
    assert rep.completed_n == 4 and rep.consistent_with_aperiodicity


@st.composite
def evidence_runs(draw):
    """(tile set of <= 5 tiles over <= 3 colors, max_square, max_period)."""
    color = st.integers(0, draw(st.integers(1, 3)) - 1)
    tiles = draw(st.lists(st.tuples(color, color, color, color),
                          min_size=1, max_size=5, unique=True))
    return make_tileset("h", tiles), draw(st.integers(1, 4)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(evidence_runs(), st.integers(1, 60))
def test_a_node_budget_only_turns_verdicts_unknown(run, max_nodes):
    ts, max_square, max_period = run
    budget = SearchBudget(max_nodes=max_nodes)
    rep = aperiodicity_evidence(ts, max_square, max_period, budget)
    full = aperiodicity_evidence(ts, max_square, max_period)

    def instances(report):
        return ({(n, n, "square"): st for n, st in report.square_verdicts}
                | {(p, q, "torus"): st for p, q, st in report.torus_verdicts})

    got, want = instances(rep), instances(full)
    # a budget cuts the walk short at one UNKNOWN instance, on the level
    # after the last one it completed; every other instance is unchanged
    unknown = [(w, h) for (w, h, _), st in got.items() if st == UNKNOWN]
    assert rep.budget_exhausted == bool(unknown) and len(unknown) <= 1
    assert all(max(w, h) == rep.completed_n + 1 for w, h in unknown)
    assert got.keys() <= want.keys()
    assert all(want[k] == st for k, st in got.items() if st != UNKNOWN)
    assert rep.nodes <= max_nodes
    if not rep.budget_exhausted:
        assert rep == full
    # an UNSAT square is certain whatever the tori say or the budget left
    if rep.square_verdicts[-1][1] == UNSAT:
        n = rep.square_verdicts[-1][0]
        assert rep.unsat_square == n and not rep.consistent_with_aperiodicity
        assert format_evidence(rep).endswith(
            f"verdict: no tiling of the plane (square {n}x{n} UNSAT)\n")
    else:
        assert rep.unsat_square is None


@settings(max_examples=150, deadline=None)
@given(evidence_runs(), st.none() | st.integers(1, 60))
# square 2 runs on the one node square 1 leaves, after the 1x1 torus fails
@example((make_tileset("h", [(0, 0, 0, 1), (0, 1, 0, 0)]), 2, 1), 2)
def test_domino_and_evidence_answer_from_one_sweep(run, max_nodes):
    ts, max_square, max_period = run
    budget = SearchBudget() if max_nodes is None else SearchBudget(max_nodes=max_nodes)
    rep = aperiodicity_evidence(ts, max_square, max_period, budget)
    # the documented order, one search at a time on what the budget has left,
    # up to the first UNKNOWN, UNSAT square or SAT torus
    top = max(max_square, max_period)
    order = [inst for m in range(1, top + 1) for inst in
             [(solve_rectangle, m, m, UNSAT)] * (m <= max_square)
             + [(solve_torus, p, q, SAT) for p in range(1, m + 1) for q in range(1, m + 1)
                if max(p, q) == m and m <= max_period]]
    nodes, completed, unsat_square, periodic = 0, top, None, None
    for solver, w, h, decisive in order:
        if nodes >= budget.max_nodes:
            completed = max(w, h) - 1
            break
        r = solver(ts, w, h, budget=SearchBudget(max_nodes=budget.max_nodes - nodes))
        nodes += r.nodes
        if r.status in (UNKNOWN, decisive):
            completed = max(w, h) - 1
            if r.status == UNSAT:
                unsat_square = w
            elif r.status == SAT:
                periodic = (w, h)
            break
    assert (rep.nodes, rep.completed_n) == (nodes, completed)
    assert (rep.unsat_square, rep.periodic_found) == (unsat_square, periodic)


@settings(max_examples=150, deadline=None)
@given(evidence_runs(), st.none() | st.integers(1, 60))
# Robinson runs out one node short of square 16: no UNSAT square, no SAT
# torus, and still not consistent
@example((robinson_tileset().tileset, 16, 12), 12_650)
def test_consistent_with_aperiodicity_is_the_printed_verdict(run, max_nodes):
    ts, max_square, max_period = run
    budget = SearchBudget() if max_nodes is None else SearchBudget(max_nodes=max_nodes)
    rep = aperiodicity_evidence(ts, max_square, max_period, budget)
    assert rep.consistent_with_aperiodicity == format_evidence(rep).endswith(
        "\nverdict: consistent with aperiodicity at tested bounds\n")
    # every square tried tiles and every torus tried is refuted
    assert rep.consistent_with_aperiodicity == (
        {st for _, st in rep.square_verdicts} == {SAT}
        and {st for _, _, st in rep.torus_verdicts} <= {UNSAT})
