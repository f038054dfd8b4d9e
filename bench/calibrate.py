"""A fixed pure-Python kernel that measures how fast this host runs Python
at a given moment.

The machine the benchmark runs on is shared.  Its speed switches between
regimes, often by a factor of two, for tens of milliseconds to minutes at
a time, and CPU time slows as much as wall time.  So every timed query is
bracketed by two runs of this kernel on the same thread, and the query's
time is scaled by `NOMINAL_S / mean of the two kernel times`: it reads as
if the host ran the kernel in `NOMINAL_S`.

The kernel does the kinds of work shiftforge does (bitset arc
consistency over a grid, brute-force word enumeration, sha256 per pixel,
text formatting and splitting) on inputs fixed here.  It imports nothing
from shiftforge, so a change to the program cannot change it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

# The kernel's usual time on a 2-vCPU Xeon (Sapphire Rapids, KVM) with
# Python 3.11.7 in its fast regime.  It only fixes the unit of scaled
# times, so that they stay close to what an idle host of that kind shows.
NOMINAL_S = 0.0014

_rng = random.Random(20101207)
_TILES = [tuple(_rng.randrange(4) for _ in range(4)) for _ in range(40)]  # (N, E, S, W)
_W = _H = 12
_EDGES = ((0, 2), (1, 3), (2, 0), (3, 1))  # by side: (own edge, neighbour's edge)
_PIXELS = [f"{i % 40},{i // 40}".encode() for i in range(200)]


def _neighbours() -> list[list[tuple[int, int]]]:
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    return [[(((y + dy) % _H) * _W + (x + dx) % _W, side) for side, (dx, dy) in enumerate(steps)]
            for y in range(_H) for x in range(_W)]


_NBRS = _neighbours()


def _propagate(fixed: list[tuple[int, int]]) -> int:
    """Arc consistency on a torus with some cells fixed; sum of domain sizes."""
    dom = [(1 << len(_TILES)) - 1] * (_W * _H)
    cache: dict[tuple[int, int], int] = {}

    def compat(side: int, d: int) -> int:
        hit = cache.get((side, d))
        if hit is None:
            own, theirs = _EDGES[side]
            colors = {t[own] for i, t in enumerate(_TILES) if d >> i & 1}
            hit = cache[side, d] = sum(1 << i for i, t in enumerate(_TILES)
                                       if t[theirs] in colors)
        return hit

    for cell, tile in fixed:
        dom[cell] = 1 << tile
    queue = list(range(_W * _H))
    in_queue = set(queue)
    while queue:
        c = queue.pop()
        in_queue.discard(c)
        for nc, side in _NBRS[c]:
            nd = dom[nc] & compat(side, dom[c])
            if nd != dom[nc]:
                dom[nc] = nd
                if nc not in in_queue:
                    in_queue.add(nc)
                    queue.append(nc)
    return sum(bin(d).count("1") for d in dom)


def kernel() -> int:
    """One unit of fixed work; returns a checksum, so no part can be skipped."""
    total = _propagate([(0, 0), (5, 1), (10, 2)])
    words = [w for w in map("".join, itertools.product("01", repeat=9))
             if not any(f in w for f in ("0110", "1111", "000"))]
    total += len(words)
    total += sum(hashlib.sha256(p).digest()[0] for p in _PIXELS)
    text = "\n".join(" ".join(words[j:j + 8]) for j in range(0, len(words), 8))
    return total + sum(len(line.split()) for line in text.splitlines())


CHECKSUM = kernel()


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    if kernel() != CHECKSUM:
        raise RuntimeError("the calibration kernel gave a different answer")
    return time.perf_counter() - start
