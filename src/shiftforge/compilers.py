"""Compilers from rule systems to Wang tile sets.

Two translations live here:

* ``sft_to_wang`` — overlap coding of a 2D subshift of finite type: tiles
  are the legal k x k letter blocks, side colors are the shared (k-1)-deep
  overlaps between horizontally/vertically adjacent blocks, and each tile
  decodes to its bottom-left letter.  Torus tilings of the output then
  correspond exactly to legal torus configurations of the input.
* ``tm_to_tileset`` — rows of a tiling encode successive configurations
  of a deterministic Turing machine on a fixed-width tape: vertical
  colors carry cell contents (optionally with the head), horizontal
  colors carry the head crossing between cells, and forcing the bottom
  row pins the whole rectangle to the machine's space-time diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Grid, Patterns, SftSpec, TileSet, make_tileset
from .errors import InvalidInput, InvalidSpec
from .solve import BoundaryConstraint

Block = tuple[tuple[str, ...], ...]  # rows bottom-up, like Grid cells


@dataclass(frozen=True)
class TmSpec:
    """A deterministic Turing machine with a partial transition table."""

    states: tuple[str, ...]
    start: str
    tape_alphabet: tuple[str, ...]
    blank: str
    transitions: dict[tuple[str, str], tuple[str, str, str]]  # (q,a) -> (q',a',L/R)
    halting: frozenset[str]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InvalidSpec("duplicate states")
        if self.start not in self.states:
            raise InvalidSpec("start state not in state set")
        if self.blank not in self.tape_alphabet:
            raise InvalidSpec("blank symbol not in tape alphabet")
        for q in self.halting:
            if q not in self.states:
                raise InvalidSpec(f"halting state {q!r} not in state set")
        for (q, a), (q2, a2, mv) in self.transitions.items():
            if q in self.halting:
                raise InvalidSpec(f"transition defined on halting state {q!r}")
            if q not in self.states or q2 not in self.states:
                raise InvalidSpec("transition references unknown state")
            if a not in self.tape_alphabet or a2 not in self.tape_alphabet:
                raise InvalidSpec("transition references unknown symbol")
            if mv not in ("L", "R"):
                raise InvalidSpec(f"move must be L or R, got {mv!r}")


@dataclass(frozen=True)
class TileCompilation:
    """A tile set together with its per-tile decoding and origin notes."""

    tileset: TileSet
    decode: tuple[str, ...]  # tile index -> decoded letter / cell description
    provenance: tuple[str, ...]  # tile index -> human-readable origin

    def __post_init__(self):
        if len(self.decode) != len(self.tileset.tiles):
            raise InvalidSpec("decode must be total on the tile set")
        if len(self.provenance) != len(self.tileset.tiles):
            raise InvalidSpec("provenance must be total on the tile set")


def legal_blocks(spec: SftSpec, kb: int) -> list[Block]:
    """All kb x kb letter blocks with no forbidden-pattern occurrence,
    in lexicographic order (rows bottom-up, alphabet order as given).

    Blocks grow one row at a time, depth first.  Once a row is placed,
    only the pattern placements whose top row is that row are new, so
    only those are scanned and a partial block with a hit is pruned.
    """
    rows = list(itertools.product(spec.alphabet, repeat=kb))
    patterns = Patterns([p.cells for p in spec.forbidden])
    out: list[Block] = []

    def grow(block: Block) -> None:
        if len(block) == kb:
            out.append(block)
            return
        for row in rows:
            grown = block + (row,)
            if patterns.first(grown, top=len(block)) is None:
                grow(grown)

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
    blocks = legal_blocks(spec, kb)

    color_ids: dict[tuple, int] = {}
    labels: dict[int, str] = {}
    if kb > 1:
        h_overlaps = sorted(
            {tuple(row[:-1] for row in b) for b in blocks}
            | {tuple(row[1:] for row in b) for b in blocks}
        )
        v_overlaps = sorted({b[:-1] for b in blocks} | {b[1:] for b in blocks})
        for ov in h_overlaps:
            color_ids[("h", ov)] = len(color_ids)
        for ov in v_overlaps:
            color_ids[("v", ov)] = len(color_ids)
    else:
        # a 1x1 block only happens for a singleton alphabet; all four
        # sides share the one overlap color
        for b in blocks:
            color_ids[("o", b)] = len(color_ids)
    for (axis, ov), i in color_ids.items():
        labels[i] = f"{axis}:{_fmt_block(ov)}"

    entries = []
    for b in blocks:
        if kb > 1:
            west = color_ids[("h", tuple(row[:-1] for row in b))]
            east = color_ids[("h", tuple(row[1:] for row in b))]
            south = color_ids[("v", b[:-1])]
            north = color_ids[("v", b[1:])]
        else:
            west = east = south = north = color_ids[("o", b)]
        entries.append(((north, east, south, west), b[0][0], f"block {_fmt_block(b)}"))
    entries.sort()
    ts = make_tileset(
        "sft", [e[0] for e in entries], num_colors=len(color_ids), labels=labels
    )
    return TileCompilation(ts, tuple(e[1] for e in entries), tuple(e[2] for e in entries))


# --- Turing-machine space-time diagrams --------------------------------------

# horizontal edge payloads: outer boundary, no signal, or a head crossing
_B = "B"
_NONE = "none"


def _column_tags(n: int) -> list[str]:
    if n == 1:
        return ["LR"]
    if n == 2:
        return ["L", "R"]
    return ["L", "I", "R"]


def _tag_of(x: int, n: int) -> str:
    if n == 1:
        return "LR"
    if x == 0:
        return "L"
    if x == n - 1:
        return "R"
    return "I"


def tm_to_tileset(tm: TmSpec, tape_width: int) -> TileCompilation:
    """Tiles whose rows encode successive machine configurations on an
    n-cell tape.  Row r's south colors spell the configuration at step r.

    Column-position tags (leftmost / interior / rightmost) ride on every
    vertical color, so a forced bottom row pins each column's tag all the
    way up and the side edges of the rectangle carry boundary colors.
    A head move that would leave the tape finds no tile (fail closed),
    and a halted head admits no row above it.
    """
    if tape_width < 1:
        raise InvalidInput("tape width must be positive")
    n = tape_width
    tags = _column_tags(n)
    # head-crossing signals that the transition table can actually emit
    right_states = sorted({t[0] for t in tm.transitions.values() if t[2] == "R"})
    left_states = sorted({t[0] for t in tm.transitions.values() if t[2] == "L"})

    color_ids: dict[tuple, int] = {}

    def cid(key: tuple) -> int:
        if key not in color_ids:
            color_ids[key] = len(color_ids)
        return color_ids[key]

    def west_idle(tag: str) -> int:
        return cid(("h", _B if tag in ("L", "LR") else _NONE))

    def east_idle(tag: str) -> int:
        return cid(("h", _B if tag in ("R", "LR") else _NONE))

    entries = []  # ((n,e,s,w), decode, provenance)

    def add(tag, south_pl, north_pl, west, east, decode, desc):
        t = (cid(("v", tag, north_pl)), east, cid(("v", tag, south_pl)), west)
        entries.append((t, decode, f"{desc} [{tag}]"))

    for tag in tags:
        for a in tm.tape_alphabet:
            add(tag, ("s", a), ("s", a), west_idle(tag), east_idle(tag),
                a, f"pass {a}")
            for q in right_states:
                if tag not in ("L", "LR"):  # head arriving from the west
                    add(tag, ("s", a), ("h", q, a),
                        cid(("h", "R", q)), east_idle(tag),
                        a, f"receive head {q} from west over {a}")
            for q in left_states:
                if tag not in ("R", "LR"):  # head arriving from the east
                    add(tag, ("s", a), ("h", q, a),
                        west_idle(tag), cid(("h", "L", q)),
                        a, f"receive head {q} from east over {a}")
            for q in sorted(tm.halting):
                add(tag, ("h", q, a), ("halted",),
                    west_idle(tag), east_idle(tag),
                    f"{q}.{a}", f"halt in {q} over {a}")
        for (q, a), (q2, a2, mv) in sorted(tm.transitions.items()):
            if mv == "R" and tag not in ("R", "LR"):
                add(tag, ("h", q, a), ("s", a2),
                    west_idle(tag), cid(("h", "R", q2)),
                    f"{q}.{a}", f"apply {q},{a}->{q2},{a2},R")
            if mv == "L" and tag not in ("L", "LR"):
                add(tag, ("h", q, a), ("s", a2),
                    cid(("h", "L", q2)), east_idle(tag),
                    f"{q}.{a}", f"apply {q},{a}->{q2},{a2},L")

    labels = {i: ":".join(str(p) for p in key) for key, i in color_ids.items()}
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    # color ids are already dense in first-use order; renumber monotonically
    # so sorted tiles stay sorted under the final dense numbering
    ts = make_tileset("tm", [entries[i][0] for i in order],
                      num_colors=len(color_ids), labels=labels)
    from .core import normalize_tileset

    norm = normalize_tileset(ts)
    return TileCompilation(norm,
                           tuple(entries[i][1] for i in order),
                           tuple(entries[i][2] for i in order))


def tm_initial_boundary(
    tm: TmSpec,
    comp: TileCompilation,
    w: str,
    tape_width: int,
    height: int,
    head: int = 0,
    input_at: int = 0,
) -> BoundaryConstraint:
    """Force a rectangle's bottom row to the machine's initial
    configuration (input w written from ``input_at``, head at ``head``)
    and its side columns to the outer-boundary color."""
    n = tape_width
    if not 0 <= head < n:
        raise InvalidInput("head position outside tape")
    if input_at < 0 or input_at + len(w) > n:
        raise InvalidInput("input does not fit on the tape")
    tape = [tm.blank] * n
    for i, a in enumerate(w):
        if a not in tm.tape_alphabet:
            raise InvalidInput(f"input symbol {a!r} outside tape alphabet")
        tape[input_at + i] = a

    def label_of(key: tuple) -> str:
        return ":".join(str(p) for p in key)

    by_label = {c.label: c.id for c in comp.tileset.colors}
    south = []
    for x in range(n):
        tag = _tag_of(x, n)
        pl = ("h", tm.start, tape[x]) if x == head else ("s", tape[x])
        key = ("v", tag, pl)
        try:
            south.append(by_label[label_of(key)])
        except KeyError:
            raise InvalidInput(
                f"no vertical color encodes {key}; is the tape width right?"
            ) from None
    border = by_label[label_of(("h", _B))]
    return BoundaryConstraint(
        south=tuple(south),
        west=tuple([border] * height),
        east=tuple([border] * height),
    )


def decode_row(comp: TileCompilation, tiling: Grid, row: int) -> tuple[str, ...]:
    """Decode one row of a tiling through the compilation's d-map."""
    return tuple(comp.decode[i] for i in tiling.cells[row])
