import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftforge.aperiodic import (ROBINSON_TILE_COUNT, aperiodicity_evidence,
                                  format_evidence, robinson_tileset)
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
    rep = aperiodicity_evidence(ts, max_square=4, max_period=2)
    assert rep.square_verdicts == ((1, SAT), (2, UNSAT))
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
    assert rep.budget_exhausted
    assert rep.nodes <= 2
    assert rep.square_verdicts == ((1, SAT), (2, UNKNOWN))
    assert all(st == UNKNOWN for _, _, st in rep.torus_verdicts)
    assert "inconclusive (budget exhausted)" in format_evidence(rep)
    # a budget that is not hit gives each search what it gets on its own
    rep = aperiodicity_evidence(free, max_square=4, max_period=2)
    alone = [solve_rectangle(free, n, n) for n in range(1, 5)]
    alone += [solve_torus(free, p, q) for p in (1, 2) for q in (1, 2)]
    assert not rep.budget_exhausted and rep.nodes == sum(r.nodes for r in alone)
    assert [st for _, st in rep.square_verdicts] == [r.status for r in alone[:4]]
    assert [st for _, _, st in rep.torus_verdicts] == [r.status for r in alone[4:]]


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
    rep = aperiodicity_evidence(ts, max_square, max_period, SearchBudget(max_nodes=max_nodes))
    full = aperiodicity_evidence(ts, max_square, max_period)
    assert rep.nodes <= max_nodes
    # a square that is not SAT ends the squares, so a budget only shortens them
    assert len(rep.square_verdicts) <= len(full.square_verdicts)
    pairs = (list(zip(rep.square_verdicts, full.square_verdicts))
             + list(zip(rep.torus_verdicts, full.torus_verdicts, strict=True)))
    for got, want in pairs:
        assert got[:-1] == want[:-1] and got[-1] in (UNKNOWN, want[-1])
    verdicts = [v for _, v in rep.square_verdicts] + [v for _, _, v in rep.torus_verdicts]
    assert rep.budget_exhausted == (UNKNOWN in verdicts)
    if rep.square_verdicts[-1][1] == UNKNOWN:
        assert rep.largest_sat_square == len(rep.square_verdicts) - 1
    else:
        assert rep.largest_sat_square == full.largest_sat_square
    # an UNSAT square is certain whatever the tori say or the budget left
    if rep.square_verdicts[-1][1] == UNSAT:
        n = rep.square_verdicts[-1][0]
        assert rep.unsat_square == n and not rep.consistent_with_aperiodicity
        assert format_evidence(rep).endswith(
            f"verdict: no tiling of the plane (square {n}x{n} UNSAT)\n")
    else:
        assert rep.unsat_square is None
