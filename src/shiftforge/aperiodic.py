"""Built-in aperiodic tile set: hierarchical crosses and arms with parity.

The construction flattens the classic nested-squares picture into Wang
colors.  Signals run along every grid line; each edge carries exactly
one arrow with a direction along its axis, a multiplicity (single or
double), and a *side bit*: the transverse direction toward the square
the arrow belongs to.

* A *cross* emits arrows outward on all four edges.  Its facing (one of
  NE/NW/SE/SW) selects which two arms are double: those trace the sides
  of the squares the cross is a corner of; the two back arms are single.
  All four arrows carry the cross's transverse facing as their side bit.
* A *meet* is the midpoint between two consecutive crosses of a line:
  it absorbs two colliding arrow heads of equal multiplicity and equal
  side bit (facing arms give a double-double meet, back arms a
  single-single meet).  Mixed collisions have no tile, which forces the
  facings of consecutive crosses along any line to alternate.
* Across its other axis a meet passes one arrow unchanged — the line of
  the next level crossing there.  At a double-double meet that arrow
  must point *away* from the absorbed side bit: it is the arm of the
  square's center cross exiting through the border's midpoint.  This is
  the rule that glues consecutive levels: a square of side 2^n is forced
  to carry a cross of the next level at its center.
* A 2-color parity component on every edge pins the first level: cells
  at odd-odd positions are crosses, their horizontal and vertical
  neighbors are meets, and the remaining quarter of cells is free to
  take any role, which is where the hierarchy recurses.

The expansion below yields 104 tiles; the count is pinned by a test.
Squares of every tested size admit tilings while no torus does, which is
the machine-checkable shadow of aperiodicity at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TileSet, make_tileset
from .errors import InvalidInput
from .solve import SAT, UNKNOWN, UNSAT, SearchBudget, sweep

ROBINSON_TILE_COUNT = 104

_OPP = {"N": "S", "S": "N", "E": "W", "W": "E"}

# a signal is (direction, multiplicity, side bit); horizontal signals have
# direction in {E, W} and side in {N, S}, vertical ones the other way round


@dataclass(frozen=True)
class RobinsonSet:
    tileset: TileSet
    tile_roles: tuple[str, ...]


def _signal_tiles():
    """All (kind, west, east, south, north, role) signal patterns,
    parity-free.  Arrows on a cross point outward; arrows at a meet
    point inward along the meet's principal axis."""
    out = []
    for fx in ("E", "W"):
        for fy in ("N", "S"):
            west = ("W", "d" if fx == "W" else "s", fy)
            east = ("E", "d" if fx == "E" else "s", fy)
            south = ("S", "d" if fy == "S" else "s", fx)
            north = ("N", "d" if fy == "N" else "s", fx)
            out.append(("cross", west, east, south, north,
                        f"cross facing {fy}{fx}"))
    for mult in ("d", "s"):
        for side in ("N", "S"):
            west = ("E", mult, side)
            east = ("W", mult, side)
            # double heads collide on a square's border: the perpendicular
            # arrow is the center's arm and must exit away from the square
            dirs = (_OPP[side],) if mult == "d" else ("N", "S")
            for dv in dirs:
                for mv in ("d", "s"):
                    for tau in ("E", "W"):
                        v = (dv, mv, tau)
                        out.append(("hmeet", west, east, v, v,
                                    f"h-meet {mult}{mult} side {side}, "
                                    f"passing {mv}{dv}"))
        for side in ("E", "W"):
            south = ("N", mult, side)
            north = ("S", mult, side)
            dirs = (_OPP[side],) if mult == "d" else ("E", "W")
            for dh in dirs:
                for mh in ("d", "s"):
                    for tau in ("N", "S"):
                        h = (dh, mh, tau)
                        out.append(("vmeet", h, h, south, north,
                                    f"v-meet {mult}{mult} side {side}, "
                                    f"passing {mh}{dh}"))
    return out


def robinson_tileset() -> RobinsonSet:
    """Deterministic construction of the nested-squares set as Wang tiles."""
    # which parities may host which role: odd-odd cells are first-level
    # crosses, their vertical neighbors absorb the columns' collisions,
    # their horizontal neighbors the rows'; even-even cells recurse and
    # may take any role
    allowed = {
        "cross": [(1, 1), (0, 0)],
        "vmeet": [(1, 0), (0, 0)],
        "hmeet": [(0, 1), (0, 0)],
    }

    color_ids: dict[tuple, int] = {}

    def cid(key: tuple) -> int:
        if key not in color_ids:
            color_ids[key] = len(color_ids)
        return color_ids[key]

    entries = []  # ((n,e,s,w), role)
    for kind, w, e, s, n, desc in _signal_tiles():
        for (px, py) in allowed[kind]:
            # every edge carries both cell parities (x-parity flips across
            # vertical edges, y-parity across horizontal ones) plus the
            # signal, pinning a global 2x2 lattice
            west = cid(("h", 1 - px, py, w))
            east = cid(("h", px, py, e))
            south = cid(("v", px, 1 - py, s))
            north = cid(("v", px, py, n))
            entries.append(((north, east, south, west), f"{desc} at parity ({px},{py})"))

    entries.sort()
    ts = make_tileset("robinson", [e[0] for e in entries], names=list(color_ids))
    return RobinsonSet(ts, tuple(e[1] for e in entries))


@dataclass(frozen=True)
class EvidenceReport:
    """Desk-scale aperiodicity evidence: squares keep tiling while no
    torus does.  A genuine aperiodicity proof is out of scope."""

    largest_sat_square: int
    square_verdicts: tuple[tuple[int, str], ...]
    torus_verdicts: tuple[tuple[int, int, str], ...]
    periodic_found: tuple[int, int] | None
    budget_exhausted: bool
    nodes: int = 0  # search nodes spent by all squares and tori together
    completed_n: int = 0  # the largest n whose square and tori were all tried

    @property
    def unsat_square(self) -> int | None:
        """Side of the square found UNSAT, which rules out any plane tiling."""
        return next((n for n, st in self.square_verdicts if st == UNSAT), None)

    @property
    def consistent_with_aperiodicity(self) -> bool:
        return (self.periodic_found is None and self.largest_sat_square > 0
                and self.unsat_square is None)


def aperiodicity_evidence(tileset: TileSet, max_square: int, max_period: int,
                          budget: SearchBudget = SearchBudget()) -> EvidenceReport:
    """Run the square/torus evidence suite against any tile set: every
    record of `sweep`, with the tori listed in lexicographic order.  All
    searches share one node total and one deadline, and the report ends
    where the sweep does: at `unsat_square`, `periodic_found` or UNKNOWN."""
    if max_square < 1 or max_period < 1:
        raise InvalidInput("bounds must be positive")
    records = list(sweep(tileset, max_square, max_period, budget))
    squares = tuple((w, st) for kind, w, _, st, _ in records if kind == "square")
    tori = tuple(sorted((w, h, st) for kind, w, h, st, _ in records if kind == "torus"))
    largest = sum(st == SAT for _, st in squares)
    periodic = next(((p, q) for p, q, st in tori if st == SAT), None)
    kind, w, h, last, _ = records[-1]
    # the sweep goes on only past a SAT square or an UNSAT torus
    ended = last != (SAT if kind == "square" else UNSAT)
    return EvidenceReport(largest, squares, tori, periodic, last == UNKNOWN,
                          sum(r[4] for r in records),
                          max(w, h) - 1 if ended else max(max_square, max_period))


def format_evidence(report: EvidenceReport) -> str:
    lines = [f"largest SAT square: {report.largest_sat_square}"]
    for n, st in report.square_verdicts:
        lines.append(f"square {n}x{n}: {st}")
    for p, q, st in report.torus_verdicts:
        lines.append(f"torus {p}x{q}: {st}")
    if report.unsat_square:
        n = report.unsat_square
        lines.append(f"verdict: no tiling of the plane (square {n}x{n} UNSAT)")
    elif report.periodic_found:
        p, q = report.periodic_found
        lines.append(f"verdict: not aperiodic (periodic tiling with periods {p}x{q})")
    elif report.budget_exhausted:
        lines.append("verdict: inconclusive (budget exhausted)")
    else:
        lines.append("verdict: consistent with aperiodicity at tested bounds")
    return "\n".join(lines) + "\n"
