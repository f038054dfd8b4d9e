"""Exact tiling solvers.

Backtracking over cells in row-major order (bottom row first) with
arc-consistency propagation of per-cell tile domains, run to fixpoint
after every assignment.  Variable order and ascending tile-index value
order are fixed, so a SAT answer is always the lexicographically least
witness and identical inputs give identical results.

The search is one loop over an explicit stack, not a recursion, so its
depth is bounded by memory rather than by Python's call stack.  A stack
entry holds the domains of a node, the cell it branches on and that
cell's tiles not yet tried; it leaves the stack with its last tile.
Each try copies the domains, assigns the least untried tile and
propagates.  The loop ends when the stack is empty, when `limit` tilings
are found or when the budget is spent.

Domains are tile bitsets.  The support a domain gives its neighbors is read
from the tile set's support table (`TileSet.supports`), kept with the set
and shared by every solve of it: one lookup gives the tiles allowed across
all four sides, so a revision looks its domain up once.  Each side keeps a
flat array of the cell across it from every cell, -1 at a rectangle's edge.
The four arrays and the slices of a sweep are cut from one list of cell
indices, so each index is one int object however many arrays hold it, and
set-up, boundary colors included, runs no Python loop per cell.

A revision narrows the four neighbors in four written-out blocks, east,
west, north, south, since a loop over the sides is measurably slower; that
order sets the order in which narrowed cells are queued, and so the
revision counts the tests pin.  The queue's flags are lists, not
bytearrays, because CPython 3.11 specializes a list store and not a
bytearray store.  Every propagation revises cells in FIFO order; after
an assignment the queue starts from the one assigned cell.  A sweep (the
initial propagation, the lex-leader step below) queues every cell in
row-major order, a slice at a time, and marks the cells not yet revised
as pending: a pending cell is not queued again when narrowed, since the
sweep revises it anyway.  Before it revises a cell, the cell takes the
support of its east neighbor if that neighbor is pending, which the row
below and the boundary have narrowed; so a revision seldom narrows a cell
already revised.  A forced Turing-machine space-time diagram then takes
one revision per cell.
Arc consistency has a unique greatest fixpoint; every revision order
reaches it, as does any sound narrowing such as the pull, stopping early
only when it holds an empty domain.  So neither the pull, the slicing nor
the queue order changes a wipeout verdict or the domains the search
continues from, and node counts and witnesses do not depend on them.  A
search with no boundary starts every cell from one domain; when that
domain supports itself across every side, it is already the fixpoint, so
the initial propagation revises no cell and moves no domain, count or
witness.  A torus always starts so: its fixpoint is unique and shares the
torus's translation symmetry, so from one domain d everywhere it is one
domain everywhere, the greatest subset of d that supports itself across
every side, found by narrowing d alone.  An empty one is UNSAT before any
grid is built.

A torus has p*q translations, and a search for its first tiling would
refute each of them separately.  So when that search (`solve_torus`, also
as called by `aperiodicity_evidence`) branches on cell 0 with tile t, it
drops every tile below t from every other cell: the lex-leader rule of
Crawford, Ginsberg, Luks and Roy (KR 1996).  Some translate of any torus
tiling has its least tile at cell 0, so the rule prunes no least witness
and changes only node counts.  The root, the only node that branches on
cell 0, holds one domain in every cell, so the step's other cells start
from one domain too, the root's tiles from t up, and narrowing that alone
to the part that supports itself bounds the step's fixpoint.  If t falls
outside it, the step is a wipeout that touches no cell; otherwise every
other cell starts from it and the step is swept like the initial
propagation.
Rectangles have no such symmetry, and enumerating more than one tiling of
a torus must list every translate, so neither uses the rule.

Every row of a p x q torus tiling is a closed walk of p steps in the
digraph "t -> u iff t's east color is u's west color", and every column one
of q steps across north and south; such walks exist iff trace(A^p) > 0
(Lind and Marcus, *Symbolic Dynamics and Coding*, 1995, ch. 2).  So every
torus search, enumeration included, starts each cell from the tiles on a
walk of each kind; the others appear in no torus tiling, so only node
counts change.  Arc consistency cannot see an odd cycle fail, so alone it
would try tile after tile at cell 0 of an odd-period torus over Robinson's
2 x 2 parity lattice; the rule starts every cell of one empty.  The walks
stop at their first repeated set, so any period costs a bounded number of
steps, and one mask per side and period is kept with the tile set
(`Supports.walks`).  At p = 1 the rule keeps the tiles that match
themselves, so a period-1 axis needs no special case.

Budgets are counted in search nodes (one node per attempted assignment)
first and wall-clock milliseconds second; node counts are machine
independent, which keeps golden tests stable.  The clock is read before
every node, after set-up's input checks and each neighbor array it builds,
and after each 4,096-cell slice of a sweep of every cell (the initial
propagation, the lex-leader step); past the deadline the answer is UNKNOWN.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass
from operator import and_
from typing import NamedTuple

from .core import Grid, Supports, TileSet
from .errors import InvalidInput

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"
_SWEEP_SLICE = 4096  # cells per slice of a full sweep; the clock is read after each


class _BudgetFields(NamedTuple):
    max_nodes: int
    max_millis: int


class SearchBudget(_BudgetFields):
    __slots__ = ()

    def __new__(cls, max_nodes=10_000_000, max_millis=600_000):
        if max_nodes < 1 or max_millis < 1:
            raise InvalidInput("budget values must be positive")
        if max_millis > sys.maxsize:
            raise InvalidInput("max_millis must be at most sys.maxsize")
        return super().__new__(cls, max_nodes, max_millis)


class BoundaryConstraint(NamedTuple):
    """Optional forced colors on the rectangle's outer edges and forced
    tiles in individual cells.  Sequences run west-to-east (rows) and
    south-to-north (columns)."""

    north: tuple[int, ...] | None = None
    south: tuple[int, ...] | None = None
    east: tuple[int, ...] | None = None
    west: tuple[int, ...] | None = None
    forced_cells: tuple[tuple[int, int, int], ...] = ()  # (x, y, tile index)


@dataclass(frozen=True)
class SearchResult:
    """SAT with the least `tiling`, UNSAT, COUNT with the exact `count`,
    or UNKNOWN once the budget is spent; `nodes` is the nodes spent."""

    status: str
    tiling: Grid | None = None
    count: int | None = None
    nodes: int = 0


def _closed_walk_tiles(tileset: TileSet, k: int, period: int) -> int:
    """Bitset of the tiles on a closed walk of `period` steps across side k
    (a `Tile` field index), memoized in `Supports.walks[k]`.  Tiles showing
    one color on side k reach the same set in one step, so one walk per
    color steps that set through entry k of the support table; once the set
    repeats, the walk jumps ahead by the cycle, so it takes at most one step
    per distinct set whatever the period."""
    memo = tileset.supports
    walks = memo.walks[k]
    if period not in walks:
        mask = 0
        for col, tiles in enumerate(memo.mine[k]):
            if not tiles:
                continue
            # walk[i]: the tiles i + 1 steps from a tile of color col
            walk, seen = [memo.mine[k ^ 2][col]], {}
            while len(walk) < period and walk[-1] not in seen:
                seen[walk[-1]] = len(walk) - 1
                walk.append(memo[walk[-1]][k])
            i = len(walk) - 1
            if i < period - 1:  # walk[i] repeats walk[j]
                j = seen[walk[i]]
                i = j + (period - 1 - j) % (i - j)
            mask |= walk[i] & tiles
        walks[period] = mask
    return walks[period]


def _self_supporting(d: int, memo: Supports) -> int:
    """The greatest subset of tile bitset `d` that supports itself across
    every side: on a torus whose every cell holds `d`, every cell's
    arc-consistency fixpoint, since that fixpoint is unique and so shares
    the grid's translation symmetry."""
    while True:
        n, e, s, w = memo[d]
        u = d & n & e & s & w
        if u == d:
            return d
        d = u


def _setup(tileset: TileSet, w: int, h: int, wrap: bool,
           boundary: BoundaryConstraint | None, deadline: float
           ) -> tuple[list[int], list[list[int]], list[list[int]]] | None:
    """Initial domains, sides and sweep slices of a rectangle, or of a
    torus if `wrap`; None once the clock passes `deadline`.  An empty start
    with no boundary to validate returns one empty domain and no grid."""
    if w < 1 or h < 1:
        raise InvalidInput("grid dimensions must be positive")
    if wrap and boundary is not None:
        raise InvalidInput("a torus has no boundary")
    n = len(tileset.tiles)
    ncolors = len(tileset.colors)
    mine = tileset.supports.mine
    start = (1 << n) - 1
    if wrap:
        start = _closed_walk_tiles(tileset, 1, w) & _closed_walk_tiles(tileset, 0, h)
        start = _self_supporting(start, tileset.supports)
    if not start and boundary is None:
        return [0], [], []
    total = w * h
    if total > sys.maxsize:
        raise InvalidInput("a grid must have at most sys.maxsize cells")
    dom = [start] * total
    if boundary is not None:
        for k, (name, seq, edge) in enumerate((
                ("north", boundary.north, slice((h - 1) * w, None)),
                ("east", boundary.east, slice(w - 1, None, w)),
                ("south", boundary.south, slice(0, w)),
                ("west", boundary.west, slice(0, None, w)))):
            if seq is None:
                continue
            old = dom[edge]
            if len(seq) != len(old):
                raise InvalidInput(f"{name} boundary sequence has wrong length")
            if min(seq) < 0 or max(seq) >= ncolors:
                bad = next(c for c in seq if not 0 <= c < ncolors)
                raise InvalidInput(f"boundary color {bad} outside universe")
            dom[edge] = map(and_, old, map(mine[k].__getitem__, seq))
        for x, y, ti in boundary.forced_cells:
            if not (0 <= x < w and 0 <= y < h):
                raise InvalidInput(f"forced cell ({x}, {y}) outside rectangle")
            if not 0 <= ti < n:
                raise InvalidInput(f"forced tile index {ti} out of range")
            dom[y * w + x] &= 1 << ti
    if time.monotonic() > deadline:
        return None

    # every array below is a slice of `cells`, so each cell index is one
    # int object however many arrays hold it; cells[w + c] is c
    cells = list(range(-w, total + w))
    # east, west, north, south: the cell across that side from every cell,
    # c + step, or at the edge the wrapped cell or -1
    sides = []
    for step, edge, wrapped in ((1, slice(w - 1, None, w), cells[w:w + total:w]),
                                (-1, slice(0, None, w), cells[2 * w - 1:w + total:w]),
                                (w, slice(total - w, None), cells[w:2 * w]),
                                (-w, slice(0, w), cells[total:total + w])):
        neighbors = cells[w + step:w + step + total]
        neighbors[edge] = wrapped if wrap else [-1] * len(wrapped)
        sides.append(neighbors)
        if time.monotonic() > deadline:
            return None
    slices = [cells[w + c:w + min(c + _SWEEP_SLICE, total)]
              for c in range(0, total, _SWEEP_SLICE)]
    return dom, sides, slices


def _propagate(dom: list[int], dirty: tuple[int] | list[int], sides: list[list[int]],
               memo: Supports, pending: list[int] | None = None) -> bool:
    """AC to fixpoint over `_setup`'s sides from `dirty` cells, narrowing
    each neighbor by the revised cell's entry in `memo`; False on wipeout.
    A sweep passes `pending`, its cells not yet revised; a search step
    passes none.  Either revises in FIFO order."""
    queue = deque(dirty)
    push = queue.append
    # a search step's lone start cell is popped before anything is pushed
    in_queue = [0] * len(dom) if pending is None else pending
    east, west, north, south = sides
    while queue:
        c = queue.popleft()
        in_queue[c] = 0
        dc = dom[c]
        if pending is not None:
            e = east[c]
            if e >= 0 and pending[e]:
                dc &= memo[dom[e]][3]  # across e's west side
                if not dc:
                    return False
                dom[c] = dc
        # the tiles allowed north, east, south and west of c (a `Tile`'s order)
        to_n, to_e, to_s, to_w = memo[dc]
        nc = east[c]
        if nc >= 0:
            old = dom[nc]
            nd = old & to_e
            if nd != old:
                if not nd:
                    return False
                dom[nc] = nd
                if not in_queue[nc]:
                    in_queue[nc] = 1
                    push(nc)
        nc = west[c]
        if nc >= 0:
            old = dom[nc]
            nd = old & to_w
            if nd != old:
                if not nd:
                    return False
                dom[nc] = nd
                if not in_queue[nc]:
                    in_queue[nc] = 1
                    push(nc)
        nc = north[c]
        if nc >= 0:
            old = dom[nc]
            nd = old & to_n
            if nd != old:
                if not nd:
                    return False
                dom[nc] = nd
                if not in_queue[nc]:
                    in_queue[nc] = 1
                    push(nc)
        nc = south[c]
        if nc >= 0:
            old = dom[nc]
            nd = old & to_s
            if nd != old:
                if not nd:
                    return False
                dom[nc] = nd
                if not in_queue[nc]:
                    in_queue[nc] = 1
                    push(nc)
    return True


def _sweep_cells(dom: list[int], slices: list[list[int]], sides: list[list[int]],
                 memo: Supports, deadline: float) -> bool | None:
    """`_propagate` from every cell, a row-major slice at a time, with a
    clock read after each slice (a slice ends with an empty queue, so the
    slicing moves no revision): False on wipeout, None past `deadline`."""
    pending = [1] * len(dom)
    for cells in slices:
        ok = _propagate(dom, cells, sides, memo, pending)
        if time.monotonic() > deadline:
            return None
        if not ok:
            return False
    return True


def _run(tileset: TileSet, w: int, h: int, boundary: BoundaryConstraint | None,
         budget: SearchBudget, wrap: bool, limit: int | None,
         keep: bool = True) -> tuple[list[Grid], int, bool, int]:
    """Search in lexicographic order, stopping after `limit` tilings (never
    when None): (the tilings found, built only if `keep`; how many were
    found; complete; nodes spent).  complete is False when the budget ran
    out or the limit stopped the search."""
    deadline = time.monotonic() + budget.max_millis / 1000.0
    setup = _setup(tileset, w, h, wrap, boundary, deadline)
    if setup is None:
        return [], 0, False, 0
    dom, sides, slices = setup
    memo = tileset.supports
    if 0 in dom:  # only a start domain can be empty: narrowing stops short of one
        return [], 0, True, 0
    total = w * h
    tilings: list[Grid] = []
    found = nodes = cell = 0
    stack: list[tuple[list[int], int, int]] = []  # (domains, cell, untried tiles)
    # a boundary-free start u that supports itself (a torus's always does)
    # is already the fixpoint: sweep no cell, but still read the clock (ok
    # is None past the deadline)
    u = dom[0]
    settled = boundary is None and all(u & s == u for s in memo[u])
    ok = _sweep_cells(dom, [[]] if settled else slices, sides, memo, deadline)
    lex_leader = wrap and limit == 1
    while ok is not None:
        if ok:
            while cell < total and dom[cell].bit_count() == 1:
                cell += 1
            if cell < total:
                stack.append((dom, cell, dom[cell]))
            else:
                found += 1
                if keep:
                    sol = [d.bit_length() - 1 for d in dom]
                    rows = tuple(tuple(sol[y * w:(y + 1) * w]) for y in range(h))
                    tilings.append(Grid(w, h, rows))
                if limit is not None and found >= limit:
                    break
        if not stack:
            return tilings, found, True, nodes
        parent, cell, d = stack.pop()
        lsb = d & -d
        if d != lsb:
            stack.append((parent, cell, d ^ lsb))
        if nodes >= budget.max_nodes or time.monotonic() > deadline:
            break
        nodes += 1
        if cell == 0 and lex_leader and parent[0] & (lsb - 1):
            # the root holds one domain everywhere: drop cell 0's lower tiles
            # everywhere and narrow the rest to its self-supporting part
            u = _self_supporting(parent[0] & -lsb, memo)
            if u & lsb:
                dom = [u] * total
                dom[0] = lsb
                ok = _sweep_cells(dom, slices, sides, memo, deadline)
            else:
                ok = False  # u bounds the step's fixpoint, so cell 0 empties
        else:
            dom = parent.copy()
            dom[cell] = lsb
            ok = _propagate(dom, (cell,), sides, memo)
        cell += 1
    return tilings, found, False, nodes


def _first(tileset: TileSet, w: int, h: int, boundary: BoundaryConstraint | None,
           budget: SearchBudget, wrap: bool) -> SearchResult:
    tilings, _, complete, nodes = _run(tileset, w, h, boundary, budget, wrap, 1)
    if tilings:
        return SearchResult(SAT, tilings[0], nodes=nodes)
    return SearchResult(UNSAT if complete else UNKNOWN, nodes=nodes)


def solve_rectangle(tileset: TileSet, w: int, h: int,
                    boundary: BoundaryConstraint | None = None,
                    budget: SearchBudget = SearchBudget()) -> SearchResult:
    """First (lexicographically least) tiling of a w x h rectangle, or UNSAT."""
    return _first(tileset, w, h, boundary, budget, wrap=False)


def solve_torus(tileset: TileSet, p: int, q: int,
                budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Least p x q torus tiling or exhaustive UNSAT.  A SAT answer
    certifies a fully periodic tiling of the entire plane.  Its start
    domains and the lex-leader rule change only node counts, never a status
    or the least witness."""
    return _first(tileset, p, q, None, budget, wrap=True)


def count_rectangle(tileset: TileSet, w: int, h: int,
                    boundary: BoundaryConstraint | None = None,
                    budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Exact number of valid tilings (exhaustive; intended for small grids)."""
    # counts run to millions, so the tilings themselves are not built
    _, found, complete, nodes = _run(tileset, w, h, boundary, budget, False, None,
                                     keep=False)
    if not complete:
        return SearchResult(UNKNOWN, nodes=nodes)
    return SearchResult("COUNT", count=found, nodes=nodes)


def enumerate_tilings(tileset: TileSet, w: int, h: int,
                      boundary: BoundaryConstraint | None = None,
                      budget: SearchBudget = SearchBudget(), *, wrap: bool = False,
                      limit: int | None = None) -> tuple[list[Grid], bool]:
    """All tilings of a w x h rectangle, or of a w x h torus with `wrap`,
    in lexicographic order.

    Returns (tilings, complete); complete is False when the budget ran out
    or `limit` results were produced before the search finished.
    """
    if limit is not None and limit < 1:
        raise InvalidInput("limit must be positive")
    tilings, _, complete, _ = _run(tileset, w, h, boundary, budget, wrap, limit)
    return tilings, complete
