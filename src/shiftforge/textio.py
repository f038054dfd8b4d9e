"""Plain-text readers and writers for tile sets, specs and tilings.

All formats are line-oriented, whitespace-delimited, LF-terminated.
Lines starting with ``#`` and blank lines are ignored everywhere.
Grids (pattern rows, tiling rows) are written bottom row first, matching
the in-memory convention.
"""

from __future__ import annotations

from .compilers import TileCompilation, TmSpec
from .core import Grid, SftSpec, TileSet, make_tileset
from .errors import ParseError
from .subshift import ExplicitWords, Subshift1dSpec, make_stream


def _lines(text: str):
    """(line_number, stripped_content) for every meaningful line."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _int(tok: str, what: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", ln) from None


def _kv(tok: str, key: str, ln: int) -> str:
    if not tok.startswith(key + "="):
        raise ParseError(f"expected {key}=<...>, got {tok!r}", ln)
    return tok[len(key) + 1:]


# --- tile sets ----------------------------------------------------------------


def serialize_tileset(ts: TileSet, decode: tuple[str, ...] | None = None,
                      provenance: tuple[str, ...] | None = None) -> str:
    out = [f"tileset {ts.name} colors={len(ts.colors)}"]
    for i, t in enumerate(ts.tiles):
        if provenance is not None:
            out.append(f"# tile {i}: {provenance[i]}")
        out.append(f"tile {t.north} {t.east} {t.south} {t.west}")
    if decode is not None:
        for i, letter in enumerate(decode):
            out.append(f"decode {i} {letter}")
    return "\n".join(out) + "\n"


def serialize_compilation(comp: TileCompilation) -> str:
    return serialize_tileset(comp.tileset, comp.decode, comp.provenance)


def parse_tileset(text: str) -> tuple[TileSet, tuple[str, ...] | None]:
    """Returns (tileset, decode or None when no decode lines present)."""
    name = None
    num_colors = None
    tiles: list[tuple[int, int, int, int]] = []
    decode: dict[int, str] = {}
    for ln, line in _lines(text):
        toks = line.split()
        if toks[0] == "tileset":
            if name is not None:
                raise ParseError("duplicate tileset header", ln)
            if len(toks) != 3:
                raise ParseError("expected: tileset <name> colors=<n>", ln)
            name = toks[1]
            num_colors = _int(_kv(toks[2], "colors", ln), "color count", ln)
        elif toks[0] == "tile":
            if name is None:
                raise ParseError("tile line before tileset header", ln)
            if len(toks) != 5:
                raise ParseError("expected: tile <north> <east> <south> <west>", ln)
            n, e, s, w = (_int(t, "color", ln) for t in toks[1:])
            for c in (n, e, s, w):
                if not 0 <= c < num_colors:
                    raise ParseError(f"color {c} outside [0, {num_colors})", ln)
            tiles.append((n, e, s, w))
        elif toks[0] == "decode":
            if len(toks) != 3:
                raise ParseError("expected: decode <tile-index> <letter>", ln)
            decode[_int(toks[1], "tile index", ln)] = toks[2]
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", ln)
    if name is None:
        raise ParseError("missing tileset header")
    ts = make_tileset(name, tiles, num_colors=num_colors)
    if not decode:
        return ts, None
    if sorted(decode) != list(range(len(tiles))):
        raise ParseError("decode lines must cover tile indices exactly once")
    return ts, tuple(decode[i] for i in range(len(tiles)))


# --- SFT specs ----------------------------------------------------------------


def serialize_sft(spec: SftSpec) -> str:
    out = [f"sft alphabet={','.join(spec.alphabet)}"]
    for p in spec.forbidden:
        out.append(f"forbid {p.width} {p.height}")
        out.extend("".join(row) for row in p.cells)
    return "\n".join(out) + "\n"


def parse_sft(text: str) -> SftSpec:
    alphabet = None
    patterns: list[Grid] = []
    pending: tuple[int, int, int] | None = None  # (w, h, header line)
    rows: list[str] = []
    for ln, line in _lines(text):
        toks = line.split()
        if pending is not None:
            w, h, _ = pending
            if len(line) != w:
                raise ParseError(f"pattern row must have {w} letters", ln)
            rows.append(line)
            if len(rows) == h:
                patterns.append(Grid.from_rows(rows))
                pending, rows = None, []
            continue
        if toks[0] == "sft":
            if len(toks) != 2:
                raise ParseError("expected: sft alphabet=<comma-list>", ln)
            alphabet = tuple(_kv(toks[1], "alphabet", ln).split(","))
        elif toks[0] == "forbid":
            if alphabet is None:
                raise ParseError("forbid before sft header", ln)
            if len(toks) != 3:
                raise ParseError("expected: forbid <width> <height>", ln)
            pending = (_int(toks[1], "width", ln), _int(toks[2], "height", ln), ln)
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", ln)
    if pending is not None:
        raise ParseError("pattern rows missing at end of file", pending[2])
    if alphabet is None:
        raise ParseError("missing sft header")
    return SftSpec(alphabet, tuple(patterns))


# --- 1D subshift specs ---------------------------------------------------------


def serialize_subshift(spec: Subshift1dSpec) -> str:
    out = [f"subshift alphabet={','.join(spec.alphabet)}"]
    if isinstance(spec.source, ExplicitWords):
        out.extend(f"forbid {w}" for w in spec.source.words)
    else:
        out.append(f"stream {spec.source.name}")
    return "\n".join(out) + "\n"


def parse_subshift(text: str) -> Subshift1dSpec:
    alphabet = None
    words: list[str] = []
    stream = None
    for ln, line in _lines(text):
        toks = line.split()
        if toks[0] == "subshift":
            if len(toks) != 2:
                raise ParseError("expected: subshift alphabet=<comma-list>", ln)
            alphabet = tuple(_kv(toks[1], "alphabet", ln).split(","))
        elif toks[0] == "forbid":
            if alphabet is None:
                raise ParseError("forbid before subshift header", ln)
            if len(toks) != 2:
                raise ParseError("expected: forbid <word>", ln)
            words.append(toks[1])
        elif toks[0] == "stream":
            if alphabet is None:
                raise ParseError("stream before subshift header", ln)
            if stream is not None or words:
                raise ParseError("only one word source allowed", ln)
            if len(toks) < 2:
                raise ParseError("expected: stream <generator> <params...>", ln)
            try:
                stream = make_stream(toks[1], alphabet, toks[2:])
            except Exception as exc:
                raise ParseError(str(exc), ln) from None
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", ln)
    if alphabet is None:
        raise ParseError("missing subshift header")
    if stream is not None:
        return Subshift1dSpec(alphabet, stream)
    return Subshift1dSpec(alphabet, ExplicitWords(tuple(words)))


# --- Turing machines -----------------------------------------------------------


def serialize_tm(tm: TmSpec) -> str:
    out = [
        f"tm states={','.join(tm.states)} start={tm.start} blank={tm.blank}",
        f"tape {','.join(tm.tape_alphabet)}",
    ]
    for (q, a), (q2, a2, mv) in sorted(tm.transitions.items()):
        out.append(f"rule {q} {a} -> {q2} {a2} {mv}")
    for q in sorted(tm.halting):
        out.append(f"halt {q}")
    return "\n".join(out) + "\n"


def parse_tm(text: str) -> TmSpec:
    states: tuple[str, ...] | None = None
    start = blank = None
    tape: tuple[str, ...] | None = None
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    halting: set[str] = set()
    for ln, line in _lines(text):
        toks = line.split()
        if toks[0] == "tm":
            if len(toks) != 4:
                raise ParseError("expected: tm states=<...> start=<s> blank=<b>", ln)
            spec = _kv(toks[1], "states", ln)
            if spec.isdigit():
                states = tuple(f"q{i}" for i in range(int(spec)))
            else:
                states = tuple(spec.split(","))
            start = _kv(toks[2], "start", ln)
            blank = _kv(toks[3], "blank", ln)
        elif toks[0] == "tape":
            if len(toks) != 2:
                raise ParseError("expected: tape <comma-list>", ln)
            tape = tuple(toks[1].split(","))
        elif toks[0] == "rule":
            if len(toks) != 7 or toks[3] != "->":
                raise ParseError(
                    "expected: rule <state> <read> -> <state'> <write> <L|R>", ln
                )
            q, a, _, q2, a2, mv = toks[1:]
            if (q, a) in rules:
                raise ParseError(f"duplicate rule for ({q}, {a})", ln)
            if mv not in ("L", "R"):
                raise ParseError(f"move must be L or R, got {mv!r}", ln)
            rules[(q, a)] = (q2, a2, mv)
        elif toks[0] == "halt":
            if len(toks) != 2:
                raise ParseError("expected: halt <state>", ln)
            halting.add(toks[1])
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", ln)
    if states is None:
        raise ParseError("missing tm header")
    if tape is None:
        symbols = {blank}
        for (q, a), (q2, a2, mv) in rules.items():
            symbols.update((a, a2))
        tape = tuple(sorted(symbols))
    try:
        return TmSpec(states, start, tape, blank, rules, frozenset(halting))
    except Exception as exc:
        raise ParseError(str(exc)) from None


# --- windows and tilings --------------------------------------------------------


def serialize_window(w: Grid) -> str:
    out = [f"window {w.width} {w.height}"]
    out.extend("".join(row) for row in w.cells)
    return "\n".join(out) + "\n"


def parse_window(text: str) -> Grid:
    header: tuple[int, int] | None = None
    rows: list[str] = []
    for ln, line in _lines(text):
        toks = line.split()
        if header is None:
            if toks[0] != "window" or len(toks) != 3:
                raise ParseError("expected: window <width> <height>", ln)
            header = (_int(toks[1], "width", ln), _int(toks[2], "height", ln))
            if min(header) < 1:
                raise ParseError("window width and height must be positive", ln)
        else:
            if len(line) != header[0]:
                raise ParseError(f"window row must have {header[0]} letters", ln)
            rows.append(line)
    if header is None:
        raise ParseError("missing window header")
    if len(rows) != header[1]:
        raise ParseError(f"expected {header[1]} window rows, got {len(rows)}")
    return Grid.from_rows(rows)


def serialize_tiling(t: Grid, verdict: str = "SAT") -> str:
    out = [verdict]
    out.extend(" ".join(str(i) for i in row) for row in t.cells)
    return "\n".join(out) + "\n"


def parse_tiling(text: str) -> Grid:
    """Rows of tile indices, bottom-up; an optional leading verdict line
    (as written by the solver) is accepted and ignored."""
    rows: list[list[int]] = []
    for ln, line in _lines(text):
        toks = line.split()
        if not rows and len(toks) == 1 and not toks[0].lstrip("-").isdigit():
            continue  # verdict line
        rows.append([_int(t, "tile index", ln) for t in toks])
    if not rows:
        raise ParseError("no tiling rows found")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ParseError("tiling rows must all have the same width")
    return Grid.from_rows(rows)
