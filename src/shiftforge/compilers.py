"""Compilers from rule systems to Wang tile sets.

Two translations live here:

* ``sft_to_wang`` — overlap coding of a 2D subshift of finite type: tiles
  are the legal k x k letter blocks, side colors are the shared (k-1)-deep
  overlaps between horizontally/vertically adjacent blocks, and each tile
  decodes to its bottom-left letter.  Torus tilings of the output then
  correspond exactly to legal torus configurations of the input.
* ``tm_to_tileset`` — rows of a tiling encode successive configurations
  of a deterministic Turing machine on a fixed-width tape: vertical
  colors carry cell contents (optionally with the head) and a tag naming
  the tape ends the cell touches, horizontal colors carry the head
  crossing between cells, and forcing the bottom row pins the whole
  rectangle to the machine's space-time diagram.  Per move direction one
  receive rule and one apply rule make the head-crossing tiles.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import Patterns, SftSpec, TileSet, make_tileset
from .errors import InvalidInput, InvalidSpec
from .solve import BoundaryConstraint

Block = tuple[tuple[str, ...], ...]  # rows bottom-up, like Grid cells


class _TmFields(NamedTuple):
    states: tuple[str, ...]
    start: str
    tape_alphabet: tuple[str, ...]
    blank: str
    transitions: dict[tuple[str, str], tuple[str, str, str]]  # (q,a) -> (q',a',L/R)
    halting: frozenset[str]


class TmSpec(_TmFields):
    """A deterministic Turing machine with a partial transition table."""

    __slots__ = ()

    def __new__(cls, states, start, tape_alphabet, blank, transitions, halting):
        if len(set(states)) != len(states):
            raise InvalidSpec("duplicate states")
        if start not in states:
            raise InvalidSpec("start state not in state set")
        if blank not in tape_alphabet:
            raise InvalidSpec("blank symbol not in tape alphabet")
        # the text format writes both as comma-separated lists
        if any("," in x for x in states + tape_alphabet):
            raise InvalidSpec("states and tape symbols must not contain ','")
        for q in halting:
            if q not in states:
                raise InvalidSpec(f"halting state {q!r} not in state set")
        for (q, a), (q2, a2, mv) in transitions.items():
            if q in halting:
                raise InvalidSpec(f"transition defined on halting state {q!r}")
            if q not in states or q2 not in states:
                raise InvalidSpec("transition references unknown state")
            if a not in tape_alphabet or a2 not in tape_alphabet:
                raise InvalidSpec("transition references unknown symbol")
            if mv not in ("L", "R"):
                raise InvalidSpec(f"move must be L or R, got {mv!r}")
        return super().__new__(cls, states, start, tape_alphabet, blank, transitions, halting)


class _CompilationFields(NamedTuple):
    tileset: TileSet
    # tile index -> decoded letter / cell description, or None where no tile decodes
    decode: tuple[str, ...] | None
    tile_roles: tuple[str, ...]  # tile index -> what the tile is, in words


class TileCompilation(_CompilationFields):
    """A built tile set together with its per-tile decoding, if any, and
    one line per tile saying what the tile is."""

    __slots__ = ()

    def __new__(cls, tileset, decode, tile_roles):
        if decode is not None and len(decode) != len(tileset.tiles):
            raise InvalidSpec("decode must be total on the tile set")
        if len(tile_roles) != len(tileset.tiles):
            raise InvalidSpec("tile roles must be total on the tile set")
        return super().__new__(cls, tileset, decode, tile_roles)


def legal_blocks(spec: SftSpec, kb: int) -> list[Block]:
    """All kb x kb letter blocks with no forbidden-pattern occurrence,
    in lexicographic order (rows bottom-up, alphabet order as given).

    A legal block is a path of kb rows in the spec's row-transfer graph
    (the higher-block presentation).  Whether a row may come next depends
    only on the block's tail, its last H - 1 rows, where H is the height
    of the tallest pattern: the placements whose top row is the new row
    reach no lower.  So each distinct tail's successor rows are scanned
    once and reused, and blocks grow depth first along them.  A row that
    fails alone fails on any tail, so the candidates are the empty tail's
    successors, the rows legal alone.
    """
    patterns = Patterns([p.cells for p in spec.forbidden])
    keep = max(patterns.max_height - 1, 0)
    alone = [row for row in itertools.product(spec.alphabet, repeat=kb)
             if patterns.first((row,)) is None]
    successors = {(): alone}
    out: list[Block] = []

    def grow(block: Block) -> None:
        if len(block) == kb:
            out.append(block)
            return
        tail = block[-keep:] if keep else ()
        rows = successors.get(tail)
        if rows is None:
            rows = successors[tail] = [row for row in alone if patterns.first(
                tail + (row,), top=len(tail)) is None]
        for row in rows:
            grow(block + (row,))

    grow(())
    return out


def _fmt_block(block: Block) -> str:
    return "|".join("".join(row) for row in block)


def sft_to_wang(spec: SftSpec) -> TileCompilation:
    """Overlap coding: one tile per legal k x k block, colors identify the
    (k-1)-deep overlaps, decode = bottom-left letter.

    When every forbidden pattern is 1 x 1 (or there are none) but the
    alphabet has several letters, blocks of size 1 would lose all
    adjacency information, so the block size is bumped to 2; the tiling
    language is unchanged.
    """
    kb = spec.window
    if kb == 1 and len(spec.alphabet) > 1:
        kb = 2

    def side_keys(b: Block) -> tuple[tuple, tuple, tuple, tuple]:
        """The (north, east, south, west) overlap keys of a block."""
        if kb == 1:
            # a 1x1 block only happens for a singleton alphabet; all four
            # sides share the one overlap color
            return (("o", b),) * 4
        return (("v", b[1:]), ("h", tuple(row[1:] for row in b)),
                ("v", b[:-1]), ("h", tuple(row[:-1] for row in b)))

    keyed = [(side_keys(b), b) for b in legal_blocks(spec, kb)]
    # colors are numbered in key order, which fixes the output bytes
    names = sorted({key for keys, _ in keyed for key in keys})
    ids = {key: i for i, key in enumerate(names)}
    entries = [(tuple(ids[key] for key in keys), b[0][0], f"block {_fmt_block(b)}")
               for keys, b in keyed]
    return _compilation("sft", entries, names)


def _compilation(name: str, entries: list, names: list) -> TileCompilation:
    """Sort (tile, decode, role) entries once and build the
    compilation whose colors are named by `names`, in id order."""
    entries.sort()
    ts = make_tileset(name, [e[0] for e in entries], names=names)
    return TileCompilation(ts, tuple(e[1] for e in entries), tuple(e[2] for e in entries))


# --- Turing-machine space-time diagrams --------------------------------------

# horizontal edge payloads: outer boundary, no signal, or a head crossing
_B = "B"
_NONE = "none"


def _tag_of(x: int, n: int) -> str:
    """The tape ends cell x of an n-cell tape touches ("L", "R" or "LR"),
    or "I" for an interior cell."""
    return ("L" if x == 0 else "") + ("R" if x == n - 1 else "") or "I"


def tm_to_tileset(tm: TmSpec, tape_width: int) -> TileCompilation:
    """Tiles whose rows encode successive machine configurations on an
    n-cell tape.  Row r's south colors spell the configuration at step r.

    Each vertical color carries its column's tag, the tape ends the cell
    touches, so a forced bottom row pins every tag all the way up.  Sides
    are named by tape end ("L" west, "R" east); an idle side on a tape end
    shows the outer-boundary color.  Per move direction mv, one receive rule
    lets a head arrive through the side opposite mv and one apply rule sends
    it out through side mv, each only where that side is no tape end, so a
    head move that would leave the tape finds no tile (fail closed).  A
    halted head admits no row above it.
    """
    if tape_width < 1:
        raise InvalidInput("tape width must be positive")
    n = tape_width
    # positions 0, 1 and n-1 show every tag, in first-seen order
    tags = list(dict.fromkeys(_tag_of(x, n) for x in (0, 1, n - 1)[:n]))
    # per move, the head-crossing states the transition table can emit
    movers = {mv: sorted({t[0] for t in tm.transitions.values() if t[2] == mv})
              for mv in "RL"}

    color_ids: dict[tuple, int] = {}
    entries = []  # ((n,e,s,w), decode, role)

    def cid(key: tuple) -> int:
        return color_ids.setdefault(key, len(color_ids))

    def add(tag, south_pl, north_pl, edges, decode, desc):
        # colors are numbered at first use: west, east, north, south
        west, east = cid(edges["L"]), cid(edges["R"])
        t = (cid(("v", tag, north_pl)), east, cid(("v", tag, south_pl)), west)
        entries.append((t, decode, f"{desc} [{tag}]"))

    for tag in tags:
        idle = {end: ("h", _B if end in tag else _NONE) for end in "LR"}
        for a in tm.tape_alphabet:
            add(tag, ("s", a), ("s", a), idle, a, f"pass {a}")
            # a head in state q that moves mv arrives through `side`
            for mv, side, name in (("R", "L", "west"), ("L", "R", "east")):
                for q in movers[mv]:
                    if side not in tag:
                        add(tag, ("s", a), ("h", q, a), {**idle, side: ("h", mv, q)},
                            a, f"receive head {q} from {name} over {a}")
            for q in sorted(tm.halting):
                add(tag, ("h", q, a), ("halted",), idle, f"{q}.{a}", f"halt in {q} over {a}")
        # a transition that moves mv leaves through side mv
        for (q, a), (q2, a2, mv) in sorted(tm.transitions.items()):
            if mv not in tag:
                add(tag, ("h", q, a), ("s", a2), {**idle, mv: ("h", mv, q2)},
                    f"{q}.{a}", f"apply {q},{a}->{q2},{a2},{mv}")

    return _compilation("tm", entries, list(color_ids))


def tm_initial_boundary(
    tm: TmSpec,
    comp: TileCompilation,
    w: str,
    tape_width: int,
    height: int,
    head: int = 0,
) -> BoundaryConstraint:
    """Force a rectangle's bottom row to the machine's initial
    configuration (input w written from cell 0 and padded with blanks,
    head at ``head``) and its side columns to the outer-boundary color.
    Input placed elsewhere is passed with its leading blanks."""
    n = tape_width
    if not 0 <= head < n:
        raise InvalidInput("head position outside tape")
    if len(w) > n:
        raise InvalidInput("input does not fit on the tape")
    for a in w:
        if a not in tm.tape_alphabet:
            raise InvalidInput(f"input symbol {a!r} outside tape alphabet")
    tape = list(w) + [tm.blank] * (n - len(w))

    ids = {key: i for i, key in enumerate(comp.tileset.colors)}
    south = []
    for x in range(n):
        tag = _tag_of(x, n)
        pl = ("h", tm.start, tape[x]) if x == head else ("s", tape[x])
        key = ("v", tag, pl)
        if key not in ids:
            raise InvalidInput(
                f"no tile reads state {tm.start} over {tape[x]!r} at cell {x}: "
                f"the machine has no move there on a {n}-cell tape" if x == head
                else f"no tile reads {tape[x]!r} at cell {x}: "
                f"the tile set was not compiled for a {n}-cell tape")
        south.append(ids[key])
    border = ids[("h", _B)]
    return BoundaryConstraint(
        south=tuple(south),
        west=tuple([border] * height),
        east=tuple([border] * height),
    )

