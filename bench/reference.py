"""Independent answer checks for the benchmark.

Nothing here imports shiftforge.  Tile files and tilings are read from
their text, adjacency is checked cell by cell, legal words are counted by
brute force and Turing machines are run by a plain loop.  Every check
returns None when the answer is right and a one-line reason when it is
wrong, so a mismatch is counted as a failed query instead of aborting.
"""

from __future__ import annotations

import itertools

Tile = tuple[int, int, int, int]  # (north, east, south, west)


def parse_tiles(text: str) -> tuple[list[Tile], list[str]]:
    """(tiles, decode letters) of a tile-set file; decode may be empty."""
    tiles: list[Tile] = []
    decode: dict[int, str] = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "tile":
            tiles.append(tuple(int(t) for t in toks[1:5]))
        elif toks[0] == "decode":
            decode[int(toks[1])] = toks[2]
    return tiles, [decode[i] for i in sorted(decode)]


def parse_grid(text: str) -> tuple[str, list[list[int]]]:
    """(verdict line, rows of tile indices bottom-up) of a solver answer."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        return "", []
    return " ".join(lines[0]), [[int(t) for t in row] for row in lines[1:]]


def adjacency_error(tiles: list[Tile], rows: list[list[int]], w: int, h: int,
                    wrap: bool) -> str | None:
    """Reason the grid is not a valid w x h tiling, or None."""
    if len(rows) != h or any(len(r) != w for r in rows):
        return f"grid is not {w}x{h}"
    if any(not 0 <= i < len(tiles) for r in rows for i in r):
        return "tile index out of range"
    for y in range(h):
        for x in range(w):
            north, east = tiles[rows[y][x]][0], tiles[rows[y][x]][1]
            if wrap or x + 1 < w:
                if east != tiles[rows[y][(x + 1) % w]][3]:
                    return f"east edge mismatch at ({x}, {y})"
            if wrap or y + 1 < h:
                if north != tiles[rows[(y + 1) % h][x]][2]:
                    return f"north edge mismatch at ({x}, {y})"
    return None


def legal_words(alphabet: str, forbidden: list[str], k: int) -> list[str]:
    """Every length-k word over the alphabet with no forbidden factor."""
    return [w for w in map("".join, itertools.product(alphabet, repeat=k))
            if not any(f in w for f in forbidden)]


def cyclic_legal(word: str, forbidden: list[str]) -> bool:
    """True iff the bi-infinite repetition of `word` has no forbidden factor."""
    longest = max(map(len, forbidden))
    unrolled = word * (longest // len(word) + 2)
    return not any(f in unrolled for f in forbidden)


def domino_answer(alphabet: str, forbidden: list[str], max_n: int) -> str:
    """Expected `solve --mode domino` line for a lifted 1D spec whose squares
    all tile: a p x q torus exists iff some length-p word repeats legally,
    and the sweep tries (p, q) in its fixed order."""
    periodic = {p for p in range(1, max_n + 1)
                if any(cyclic_legal("".join(w), forbidden)
                       for w in itertools.product(alphabet, repeat=p))}
    tried: set[tuple[int, int]] = set()
    for n in range(1, max_n + 1):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if (p, q) not in tried:
                    tried.add((p, q))
                    if p in periodic:
                        return f"TILES_PERIODICALLY {p} {q}\n"
    return f"UNDETERMINED completed_n={max_n}\n"


def decoded_error(decode: list[str], rows: list[list[int]],
                  forbidden: list[str]) -> str | None:
    """Reason a decoded torus is not a lifted legal configuration, or None."""
    letters = [[decode[i] for i in row] for row in rows]
    if any(row != letters[0] for row in letters):
        return "decoded columns are not constant"
    if not cyclic_legal("".join(letters[0]), forbidden):
        return "decoded row contains a forbidden word"
    return None


def count_2x2(tiles: list[Tile]) -> int:
    """Number of valid 2 x 2 blocks."""
    pairs = [(a, b) for a in tiles for b in tiles if a[1] == b[3]]
    return sum(1 for lo in pairs for hi in pairs
               if lo[0][0] == hi[0][2] and lo[1][0] == hi[1][2])


def ppm_error(data: bytes, w_px: int, h_px: int) -> str | None:
    header = f"P6\n{w_px} {h_px}\n255\n".encode()
    if not data.startswith(header):
        return "PPM header does not match the grid"
    if len(data) != len(header) + 3 * w_px * h_px:
        return "PPM size does not match the grid"
    return None


def svg_error(data: bytes, cells: int) -> str | None:
    polygons = data.count(b"<polygon ")
    if polygons != 4 * cells:
        return f"SVG has {polygons} polygons, want {4 * cells}"
    return None


def simulate(rules: dict[tuple[str, str], tuple[str, str, str]], halting: set[str],
             start: str, tape: str, head: int, max_steps: int) -> list[tuple[str, ...]]:
    """Configurations of a Turing machine on a fixed tape up to and including
    the halting one, each cell written `a`, or `q.a` under the head."""
    cells = list(tape)
    q = start
    configs = []
    for _ in range(max_steps):
        configs.append(tuple(f"{q}.{a}" if x == head else a for x, a in enumerate(cells)))
        if q in halting:
            return configs
        q, cells[head], move = rules[(q, cells[head])]
        head += 1 if move == "R" else -1
        if not 0 <= head < len(cells):
            raise ValueError("head left the tape")
    raise ValueError("machine did not halt")
