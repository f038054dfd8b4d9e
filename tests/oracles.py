"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: direct definitions, no shared
code with the package beyond the plain data types and the render
palette.
"""

from __future__ import annotations

import itertools

from shiftforge.core import SftSpec, TileSet
from shiftforge.compilers import TmSpec
from shiftforge.render import palette_rgb


def naive_first_match(words, s: str):
    """Earliest occurrence of any word in s; ties broken by shortest word.
    Returns (word, start) or None."""
    best = None
    for w in set(words):
        start = s.find(w)
        while start != -1:
            cand = (start, len(w), w)
            if best is None or cand < best:
                best = cand
            start = s.find(w, start + 1)
    if best is None:
        return None
    return best[2], best[0]


def naive_words(alphabet, min_len: int, max_len: int) -> list[str]:
    """Every word over `alphabet` with length in [min_len, max_len],
    sorted by (length, word)."""
    words, layer = [""], [""]
    for _ in range(max_len):
        layer = [w + a for w in layer for a in alphabet]
        words += layer
    return sorted((w for w in words if len(w) >= min_len), key=lambda w: (len(w), w))


def tm_run(tm: TmSpec, w: str, n: int, head: int = 0, max_steps: int = 1000):
    """Configurations of tm on an n-cell tape, as tuples of cell strings
    ("a" or "q.a" under the head).  Stops after a halting configuration.
    Returns None if the head leaves the tape or max_steps is exceeded."""
    tape = list(w) + [tm.blank] * (n - len(w))
    q, h = tm.start, head
    out = []
    for _ in range(max_steps + 1):
        out.append(tuple(f"{q}.{tape[x]}" if x == h else tape[x] for x in range(n)))
        if q in tm.halting:
            return out
        t = tm.transitions.get((q, tape[h]))
        if t is None:
            return out  # stuck: no rule; configurations so far
        q2, a2, mv = t
        tape[h] = a2
        q = q2
        h += 1 if mv == "R" else -1
        if not 0 <= h < n:
            return None
    return None


def naive_count_tilings(ts: TileSet, w: int, h: int, torus: bool = False) -> int:
    """Count valid assignments by checking all |tiles|^(w*h) grids."""
    return sum(1 for _ in naive_tilings(ts, w, h, torus))


def naive_tilings(ts: TileSet, w: int, h: int, torus: bool = False):
    """Every valid assignment, as a flat row-major tuple of tile indices,
    found by checking all |tiles|^(w*h) grids."""
    tiles = ts.tiles
    for flat in itertools.product(range(len(tiles)), repeat=w * h):
        ok = True
        for y in range(h):
            for x in range(w):
                t = tiles[flat[y * w + x]]
                if torus or x + 1 < w:
                    if t.east != tiles[flat[y * w + (x + 1) % w]].west:
                        ok = False
                        break
                if torus or y + 1 < h:
                    if t.north != tiles[flat[((y + 1) % h) * w + x]].south:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            yield flat


def naive_closed_walk_tiles(ts: TileSet, side: str, p: int) -> set[int]:
    """Indices of the tiles on a closed walk of p steps in the digraph
    a -> b iff a's `side` ("east" or "north") color is b's opposite color:
    the diagonal of the p-th boolean power of its adjacency matrix."""
    opposite = {"east": "west", "north": "south"}[side]
    tiles = ts.tiles
    n = len(tiles)
    adj = [[getattr(a, side) == getattr(b, opposite) for b in tiles] for a in tiles]
    power = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(p):
        power = [[any(power[i][m] and adj[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
    return {t for t in range(n) if power[t][t]}


def naive_allowed(ts: TileSet, k: int, d: int) -> set[int]:
    """Indices of the tiles allowed across side k of `Tile.sides()` from
    the tiles in bitset d: those whose opposite side (k ^ 2) shows side
    k's color of some tile in d."""
    sides = [t.sides() for t in ts.tiles]
    shown = {s[k] for i, s in enumerate(sides) if d >> i & 1}
    return {u for u, s in enumerate(sides) if s[k ^ 2] in shown}


def naive_blocks(ts: TileSet, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every valid n x n block as rows of tile indices, bottom-up, in
    lexicographic order: all stacks of n horizontally valid rows whose
    neighbors match vertically."""
    tiles = ts.tiles
    rows = [r for r in itertools.product(range(len(tiles)), repeat=n)
            if all(tiles[a].east == tiles[b].west for a, b in zip(r, r[1:]))]
    return [stack for stack in itertools.product(rows, repeat=n)
            if all(tiles[a].north == tiles[b].south
                   for lower, upper in zip(stack, stack[1:]) for a, b in zip(lower, upper))]


def _occurrence_ok(grid, p, x0, y0, p_w, q_h):
    for dy in range(p.height):
        for dx in range(p.width):
            if grid[(y0 + dy) % q_h][(x0 + dx) % p_w] != p.cells[dy][dx]:
                return False
    return True


def torus_config_legal(spec: SftSpec, grid, p_w: int, q_h: int) -> bool:
    """True iff no forbidden pattern occurs anywhere with wraparound."""
    for pat in spec.forbidden:
        if pat.width > p_w or pat.height > q_h:
            continue  # cannot occur without overlapping itself; skip
        for y0 in range(q_h):
            for x0 in range(p_w):
                if _occurrence_ok(grid, pat, x0, y0, p_w, q_h):
                    return False
    return True


def legal_torus_configs(spec: SftSpec, p_w: int, q_h: int,
                        cap: int | None = None):
    """All legal p x q torus configurations as frozensets of row tuples.

    Enumerates cell by cell with pruning on fully placed occurrences.
    Returns None if more than `cap` configurations exist (early abort).
    """
    cells = [(x, y) for y in range(q_h) for x in range(p_w)]
    order = {c: i for i, c in enumerate(cells)}
    # occurrences keyed by the last cell (in fill order) they touch
    triggers: dict[int, list] = {i: [] for i in range(len(cells))}
    for pi, pat in enumerate(spec.forbidden):
        if pat.width > p_w or pat.height > q_h:
            continue
        for y0 in range(q_h):
            for x0 in range(p_w):
                coords = [((x0 + dx) % p_w, (y0 + dy) % q_h, pat.cells[dy][dx])
                          for dy in range(pat.height) for dx in range(pat.width)]
                last = max(order[(x, y)] for x, y, _ in coords)
                triggers[last].append(coords)
    grid = [[None] * p_w for _ in range(q_h)]
    found = []

    def rec(i):
        if cap is not None and len(found) > cap:
            return
        if i == len(cells):
            found.append(tuple(tuple(row) for row in grid))
            return
        x, y = cells[i]
        for a in spec.alphabet:
            grid[y][x] = a
            if all(
                any(grid[cy][cx] != want for cx, cy, want in occ)
                for occ in triggers[i]
            ):
                rec(i + 1)
        grid[y][x] = None

    rec(0)
    if cap is not None and len(found) > cap:
        return None
    return set(found)


def all_windows(alphabet, w: int, h: int):
    """Every w x h letter grid (rows bottom-up)."""
    for flat in itertools.product(alphabet, repeat=w * h):
        yield tuple(tuple(flat[y * w:(y + 1) * w]) for y in range(h))


def window_has_pattern(grid, pat) -> bool:
    h, w = len(grid), len(grid[0])
    for y0 in range(h - pat.height + 1):
        for x0 in range(w - pat.width + 1):
            if all(
                grid[y0 + dy][x0 + dx] == pat.cells[dy][dx]
                for dy in range(pat.height)
                for dx in range(pat.width)
            ):
                return True
    return False


def naive_first_occurrence(grid, patterns, top: int = 0):
    """Least (y, x, index) such that patterns[index] occurs in grid with
    its bottom-left cell at (x, y) and its top row at row `top` or above,
    or None."""
    hits = [(y0, x0, i) for i, pat in enumerate(patterns)
            for y0 in range(max(0, top - pat.height + 1), len(grid) - pat.height + 1)
            for x0 in range(len(grid[0]) - pat.width + 1)
            if all(grid[y0 + dy][x0 + dx] == pat.cells[dy][dx]
                   for dy in range(pat.height) for dx in range(pat.width))]
    return min(hits, default=None)


def naive_start_domains(ts: TileSet, w: int, h: int, torus: bool = False,
                        boundary=None) -> list[set[int]]:
    """Each cell's tiles before any propagation, in row-major order (bottom
    row first): on a torus, the tiles on a closed walk of w steps east and
    of h steps north, since each row and column of a tiling is one; on a
    rectangle, the tiles showing `boundary`'s colors on its edges and its
    forced tiles."""
    tiles = ts.tiles
    start = set(range(len(tiles)))
    if torus:
        start = naive_closed_walk_tiles(ts, "east", w) & naive_closed_walk_tiles(ts, "north", h)
    doms = [set(start) for _ in range(w * h)]
    if boundary is not None:
        for x in range(w):
            if boundary.south is not None:
                doms[x] = {i for i in doms[x] if tiles[i].south == boundary.south[x]}
            if boundary.north is not None:
                c = (h - 1) * w + x
                doms[c] = {i for i in doms[c] if tiles[i].north == boundary.north[x]}
        for y in range(h):
            if boundary.west is not None:
                c = y * w
                doms[c] = {i for i in doms[c] if tiles[i].west == boundary.west[y]}
            if boundary.east is not None:
                c = y * w + w - 1
                doms[c] = {i for i in doms[c] if tiles[i].east == boundary.east[y]}
        for x, y, i in boundary.forced_cells:
            doms[y * w + x] &= {i}
    return doms


def naive_arc_consistency(ts: TileSet, w: int, h: int, torus: bool,
                          doms: list[set[int]]) -> bool:
    """Narrow `doms` in place to their arc-consistency fixpoint, revising
    every pair of adjacent cells until a pass changes nothing.  False if a
    domain ends empty."""
    tiles = ts.tiles
    # (cell, its side, neighbor, the neighbor's facing side)
    arcs = []
    for y in range(h):
        for x in range(w):
            if torus or x + 1 < w:
                arcs.append((y * w + x, "east", y * w + (x + 1) % w, "west"))
            if torus or y + 1 < h:
                arcs.append((y * w + x, "north", ((y + 1) % h) * w + x, "south"))

    def fits(a, side_a, b, side_b):
        return getattr(tiles[a], side_a) == getattr(tiles[b], side_b)

    changed = True
    while changed:
        changed = False
        for a, sa, b, sb in arcs:
            if a == b:  # period-1 axis: the tile meets itself
                new_a = {i for i in doms[a] if fits(i, sa, i, sb)}
                new_b = new_a
            else:
                new_a = {i for i in doms[a] if any(fits(i, sa, j, sb) for j in doms[b])}
                new_b = {j for j in doms[b] if any(fits(i, sa, j, sb) for i in doms[a])}
            if new_a != doms[a] or new_b != doms[b]:
                doms[a], doms[b] = new_a, new_b
                changed = True
    return all(doms)


def naive_solve(ts: TileSet, w: int, h: int, torus: bool = False,
                boundary=None):
    """(status, cells, nodes) of the documented search, computed naively.

    Cells start from `naive_start_domains` and are tried in row-major order
    (bottom row first) and tiles in ascending index order; a cell whose
    domain is already a single tile is skipped.  Every attempted assignment
    is one node and is followed by `naive_arc_consistency`, recomputed from
    scratch to a full fixpoint.  On a torus, assigning tile t to cell 0 also
    removes every tile below t from every other cell: some translate of any
    torus tiling has its least tile at cell 0, so the least tiling
    survives.  `cells` is the first solution as rows of tile indices, or
    None.
    """
    doms = naive_start_domains(ts, w, h, torus, boundary)
    nodes = 0

    def search(doms, cell):
        nonlocal nodes
        while cell < w * h and len(doms[cell]) == 1:
            cell += 1
        if cell == w * h:
            return [min(d) for d in doms]
        for i in sorted(doms[cell]):
            nodes += 1
            trial = [set(d) for d in doms]
            trial[cell] = {i}
            if torus and cell == 0:
                trial = [{j for j in d if j >= i} for d in trial]
            if naive_arc_consistency(ts, w, h, torus, trial):
                found = search(trial, cell + 1)
                if found is not None:
                    return found
        return None

    found = search(doms, 0) if naive_arc_consistency(ts, w, h, torus, doms) else None
    if found is None:
        return "UNSAT", None, nodes
    return "SAT", tuple(tuple(found[y * w:(y + 1) * w]) for y in range(h)), nodes


def naive_least_map(source: TileSet, target: TileSet):
    """Least assignment, in lexicographic order, of target tile indices to
    source tiles under which every source adjacency (east-west or
    north-south, ordered) is a target adjacency.  Tries every map;
    returns the assignment tuple or None."""
    s, t = source.tiles, target.tiles

    def adjacent(tiles, i, j):
        return (tiles[i].east == tiles[j].west, tiles[i].north == tiles[j].south)

    def fits(a):
        for i, j in itertools.product(range(len(s)), repeat=2):
            src, img = adjacent(s, i, j), adjacent(t, a[i], a[j])
            if any(x and not y for x, y in zip(src, img)):
                return False
        return True

    for a in itertools.product(range(len(t)), repeat=len(s)):
        if fits(a):
            return a
    return None


def naive_ppm(ts: TileSet, tiling, c: int) -> bytes:
    """Binary PPM of a tiling with c x c pixels per cell, one pixel at a
    time: each cell is four triangles meeting at its center, one per side,
    filled with ``palette_rgb`` of that side's color."""
    w_px, h_px = tiling.width * c, tiling.height * c
    rows = bytearray()
    # image rows run top-down; tiling row 0 is at the bottom
    for py in range(h_px):
        y = (h_px - 1 - py) // c
        dy = (h_px - 1 - py) % c  # pixel offset from the cell's bottom
        for x in range(tiling.width):
            t = ts.tiles[tiling.cells[y][x]]
            for dx in range(c):
                # triangle test: compare distances to the four sides
                below_rising = dy * 2 < (dx * 2 + 1)  # under the / diagonal
                below_falling = dy * 2 < (2 * c - 1 - dx * 2)  # under the \
                if below_rising and below_falling:
                    color = t.south
                elif not below_rising and not below_falling:
                    color = t.north
                elif below_rising:
                    color = t.east
                else:
                    color = t.west
                rows.extend(palette_rgb(color))
    return f"P6\n{w_px} {h_px}\n255\n".encode() + bytes(rows)


def naive_svg(ts: TileSet, tiling, c: int) -> bytes:
    """SVG of a tiling with c x c units per cell, one polygon per side per
    cell: four triangles meeting at the cell's center, filled with
    ``palette_rgb`` of that side's color."""
    w_px, h_px = tiling.width * c, tiling.height * c
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
             f'height="{h_px}" viewBox="0 0 {w_px} {h_px}">']
    for y in range(tiling.height):
        top = (tiling.height - 1 - y) * c  # svg y axis points down
        for x in range(tiling.width):
            t = ts.tiles[tiling.cells[y][x]]
            lx, cx, rx = x * c, x * c + c / 2, (x + 1) * c
            ty, cy, by = top, top + c / 2, top + c
            for color, points in (
                (t.north, f"{lx},{ty} {rx},{ty} {cx},{cy}"),
                (t.east, f"{rx},{ty} {rx},{by} {cx},{cy}"),
                (t.south, f"{lx},{by} {rx},{by} {cx},{cy}"),
                (t.west, f"{lx},{ty} {lx},{by} {cx},{cy}"),
            ):
                r, g, b = palette_rgb(color)
                lines.append(f'<polygon points="{points}" fill="rgb({r},{g},{b})"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()
