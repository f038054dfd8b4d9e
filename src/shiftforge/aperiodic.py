"""Built-in aperiodic tile set: hierarchical crosses and arms with parity.

The construction flattens the classic nested-squares picture into Wang
colors.  Signals run along every grid line; each edge carries exactly
one arrow with a direction along its axis, a multiplicity (single or
double), and a *side bit*: the transverse direction toward the square
the arrow belongs to.

* The *arm rule*: a cross emits arrows outward on all four edges.  An
  arm is double iff it points along the cross's facing (one of
  NE/NW/SE/SW), tracing a side of a square the cross is a corner of;
  its side bit is the cross's facing on the other axis.
* The *meet rule*, run once per axis (heads E/W with side bits N/S, or
  heads N/S with side bits E/W): a meet, midway between two consecutive
  crosses of a line, absorbs two colliding heads of equal multiplicity
  and equal side bit.  Mixed collisions have no tile, which forces the
  facings of consecutive crosses along a line to alternate.  Across the
  other axis it passes one arrow unchanged, the line of the next level.
  A double meet passes only the arrow that points away from its side:
  the arm of the square's center cross exiting through the border's
  midpoint.  This glues consecutive levels: a square of side 2^n is
  forced to carry a cross of the next level at its center.
* A 2-color parity component on every edge pins the first level: cells
  at odd-odd positions are crosses, their horizontal and vertical
  neighbors are meets, and the remaining quarter of cells is free to
  take any role, which is where the hierarchy recurses.

The expansion below yields 104 tiles; the count is pinned by a test.
Squares of every tested size admit tilings while no torus does, which is
the machine-checkable shadow of aperiodicity at desk scale.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .compilers import TileCompilation
from .core import TileSet, make_tileset
from .errors import InvalidInput
from .solve import SAT, UNKNOWN, UNSAT, SearchBudget, solve_rectangle, solve_torus

ROBINSON_TILE_COUNT = 104

_OPP = {"N": "S", "S": "N", "E": "W", "W": "E"}

# a signal is (direction, multiplicity, side bit); horizontal signals have
# direction in {E, W} and side in {N, S}, vertical ones the other way round


def _signal_tiles():
    """All (kind, west, east, south, north, role) signal patterns,
    parity-free.  Arrows on a cross point outward; arrows at a meet
    point inward along the meet's principal axis."""
    out = []
    for fx in ("E", "W"):
        for fy in ("N", "S"):
            # the arm rule: double along the facing, side bit across it
            arms = [(a, "d" if a in (fx, fy) else "s", fy if a in "EW" else fx)
                    for a in ("W", "E", "S", "N")]
            out.append(("cross", *arms, f"cross facing {fy}{fx}"))
    for mult in ("d", "s"):
        # the meet rule, once per axis: its heads, then its side bits
        for axis, heads, sides in (("h", ("E", "W"), ("N", "S")),
                                   ("v", ("N", "S"), ("E", "W"))):
            for side in sides:
                low, high = [(head, mult, side) for head in heads]
                # double heads collide on a square's border: the passing
                # arrow is the center's arm and must exit away from the square
                for d in (_OPP[side],) if mult == "d" else sides:
                    for m in ("d", "s"):
                        for tau in heads:
                            p = (d, m, tau)
                            edges = (low, high, p, p) if axis == "h" else (p, p, low, high)
                            out.append((f"{axis}meet", *edges,
                                        f"{axis}-meet {mult}{mult} side {side}, "
                                        f"passing {m}{d}"))
    return out


def robinson_tileset() -> TileCompilation:
    """Deterministic construction of the nested-squares set as Wang tiles,
    with one role per tile and no decode."""
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
        return color_ids.setdefault(key, len(color_ids))

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
    return TileCompilation(ts, None, tuple(e[1] for e in entries))


class EvidenceReport(NamedTuple):
    """Desk-scale aperiodicity evidence: squares keep tiling while no
    torus does.  A genuine aperiodicity proof is out of scope."""

    square_verdicts: tuple[tuple[int, str], ...]
    torus_verdicts: tuple[tuple[int, int, str], ...]
    nodes: int  # search nodes spent by all squares and tori together
    # the largest n whose square and tori were all tried and left the domino problem open
    completed_n: int
    # set by the instance that ends the walk, if one does
    unsat_square: int | None = None  # an UNSAT square rules out any plane tiling
    periodic_found: tuple[int, int] | None = None
    budget_exhausted: bool = False

    @property
    def largest_sat_square(self) -> int:
        """The walk tries squares 1, 2, ... up to the first that is not SAT."""
        return sum(st == SAT for _, st in self.square_verdicts)

    @property
    def consistent_with_aperiodicity(self) -> bool:
        """No UNSAT square, no SAT torus and no budget run out."""
        return not (self.unsat_square or self.periodic_found or self.budget_exhausted)


def aperiodicity_evidence(tileset: TileSet, max_square: int, max_period: int,
                          budget: SearchBudget = SearchBudget()) -> EvidenceReport:
    """Walk the squares and tori of any tile set: for n = 1, 2, ... the n x n
    square if n <= max_square, then the tori with max(p, q) == n if
    n <= max_period, in lexicographic order.  The report lists all the tori
    in lexicographic order.

    The walk ends at the first instance that answers the domino problem: an
    UNSAT square rules out any plane tiling (by compactness a set tiles the
    plane iff it tiles every square), and a SAT torus repeats into a
    periodic one.  A set that tiles the plane only aperiodically answers
    neither way.  All searches share one node total and one deadline; once
    either is spent, the walk ends at the next instance as UNKNOWN, with 0
    nodes, even where its start domains would refute it at 0 nodes.  So an
    exact budget can stop one level short: Robinson `solve --mode domino 6`
    spends 14 nodes, and prints `UNDETERMINED completed_n=5` at
    `--budget-nodes 14` but `completed_n=6` at 15."""
    if max_square < 1 or max_period < 1:
        raise InvalidInput("bounds must be positive")
    squares, tori, spent = [], [], 0
    deadline = time.monotonic() + budget.max_millis / 1000.0
    top = max(max_square, max_period)
    for n in range(1, top + 1):
        level = [(n, n, True)] if n <= max_square else []
        if n <= max_period:
            level += [(p, q, False) for p in range(1, n + 1) for q in range(1, n + 1)
                      if max(p, q) == n]
        for w, h, square in level:
            ms = int((deadline - time.monotonic()) * 1000)
            status = UNKNOWN
            if spent < budget.max_nodes and ms >= 1:
                solver = solve_rectangle if square else solve_torus
                r = solver(tileset, w, h, budget=SearchBudget(budget.max_nodes - spent, ms))
                spent, status = spent + r.nodes, r.status
            if square:
                squares.append((n, status))
            else:
                tori.append((w, h, status))
            # only a SAT square or an UNSAT torus leaves the domino problem open, so
            # the walk ends at UNSAT only on a square and at SAT only on a torus
            if status != (SAT if square else UNSAT):
                return EvidenceReport(tuple(squares), tuple(sorted(tori)), spent, n - 1,
                                      n if status == UNSAT else None,
                                      (w, h) if status == SAT else None, status == UNKNOWN)
    return EvidenceReport(tuple(squares), tuple(sorted(tori)), spent, top)


def format_evidence(report: EvidenceReport) -> str:
    lines = [f"largest SAT square: {report.largest_sat_square}"]
    for n, st in report.square_verdicts:
        lines.append(f"square {n}x{n}: {st}")
    for p, q, st in report.torus_verdicts:
        lines.append(f"torus {p}x{q}: {st}")
    if report.consistent_with_aperiodicity:
        lines.append("verdict: consistent with aperiodicity at tested bounds")
    elif report.unsat_square:
        n = report.unsat_square
        lines.append(f"verdict: no tiling of the plane (square {n}x{n} UNSAT)")
    elif report.periodic_found:
        p, q = report.periodic_found
        lines.append(f"verdict: not aperiodic (periodic tiling with periods {p}x{q})")
    else:
        lines.append("verdict: inconclusive (budget exhausted)")
    return "\n".join(lines) + "\n"
