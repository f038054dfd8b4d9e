"""Plain-text readers and writers for tile sets, specs and tilings.

All formats are line-oriented, whitespace-delimited, LF-terminated.
Lines starting with ``#`` and blank lines are ignored everywhere.
Grids (pattern rows, tiling rows) are written bottom row first, matching
the in-memory convention.
"""

from __future__ import annotations

from .compilers import TileCompilation, TmSpec
from .core import Grid, SftSpec, TileSet, make_tileset
from .errors import ParseError, ShiftforgeError
from .subshift import ExplicitWords, Subshift1dSpec, WordStream


def _lines(text: str):
    """(line_number, stripped_content) for every meaningful line."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _directives(lines, forms: dict[str, str]):
    """(line number, directive, args) for each line of `lines`, an iterator
    from `_lines` that the caller may also advance between directives.

    `forms` maps each directive to its usage string, header first.  The
    header must come first and only once.  Each line has one token per
    token of its usage.
    """
    header = next(iter(forms))
    seen_header = False
    for ln, line in lines:
        directive, *args = line.split()
        usage = forms.get(directive)
        if usage is None:
            raise ParseError(f"unknown directive {directive!r}", ln)
        if directive == header and seen_header:
            raise ParseError(f"duplicate {header} header", ln)
        if directive != header and not seen_header:
            raise ParseError(f"{directive} before {header} header", ln)
        seen_header = True
        arity = usage.count(" ")  # usage tokens are separated by single spaces
        if len(args) != arity:
            raise ParseError(f"expected: {usage}", ln)
        yield ln, directive, args
    if not seen_header:
        raise ParseError(f"missing {header} header")


def _read_grid(lines, what: str, args: list[str], ln: int) -> Grid:
    """The grid whose `<width> <height>` are `args` on line `ln`: the next
    `height` lines of `lines`, each `width` letters long."""
    w, h = _int(args[0], "width", ln), _int(args[1], "height", ln)
    if min(w, h) < 1:
        raise ParseError(f"{what} width and height must be positive", ln)
    rows = []
    # a loop rather than islice, which rejects a height above sys.maxsize
    for row_ln, row in lines:
        if len(row) != w:
            raise ParseError(f"{what} row must have {w} letters", row_ln)
        rows.append(row)
        if len(rows) == h:
            return Grid.from_rows(rows)
    raise ParseError(f"{what} rows missing at end of file", ln)


def _decimal(tok: str) -> bool:
    """An optional sign, then decimal digits."""
    return (tok[1:] if tok[:1] in ("+", "-") else tok).isdecimal()


def _int(tok: str, what: str, ln: int | None = None) -> int:
    try:
        return int(tok)
    except ValueError:
        # a sign and decimal digits fail only past int()'s digit limit
        if _decimal(tok):
            raise ParseError(f"integer {what} has too many digits", ln) from None
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
    out.extend(f"decode {i} {letter}" for i, letter in enumerate(decode or ()))
    return "\n".join(out) + "\n"


def serialize_compilation(comp: TileCompilation) -> str:
    return serialize_tileset(comp.tileset, comp.decode, comp.tile_roles)


def parse_tileset(text: str) -> tuple[TileSet, tuple[str, ...] | None]:
    """Returns (tileset, decode or None when no decode lines present)."""
    tiles: dict[tuple[int, int, int, int], None] = {}  # in file order
    decode: list[tuple[int, str]] = []  # (tile index, letter)
    for ln, directive, args in _directives(_lines(text), {
        "tileset": "tileset <name> colors=<n>",
        "tile": "tile <north> <east> <south> <west>",
        "decode": "decode <tile-index> <letter>",
    }):
        if directive == "tileset":
            name = args[0]
            num_colors = _int(_kv(args[1], "colors", ln), "color count", ln)
            if num_colors < 0:
                raise ParseError("color count must not be negative", ln)
        elif directive == "tile":
            n, e, s, w = (_int(t, "color", ln) for t in args)
            for c in (n, e, s, w):
                if not 0 <= c < num_colors:
                    raise ParseError(f"color {c} outside [0, {num_colors})", ln)
            if (n, e, s, w) in tiles:
                raise ParseError("duplicate tile", ln)
            tiles[(n, e, s, w)] = None
        else:
            decode.append((_int(args[0], "tile index", ln), args[1]))
    ts = make_tileset(name, list(tiles), num_colors=num_colors)
    if not decode:
        return ts, None
    if sorted(i for i, _ in decode) != list(range(len(tiles))):
        raise ParseError("decode lines must cover tile indices exactly once")
    return ts, tuple(letter for _, letter in sorted(decode))


# --- SFT specs ----------------------------------------------------------------


def serialize_sft(spec: SftSpec) -> str:
    out = [f"sft alphabet={','.join(spec.alphabet)}"]
    for p in spec.forbidden:
        out.append(f"forbid {p.width} {p.height}")
        out.extend("".join(row) for row in p.cells)
    return "\n".join(out) + "\n"


def parse_sft(text: str) -> SftSpec:
    lines = _lines(text)
    patterns: list[Grid] = []
    for ln, directive, args in _directives(lines, {
        "sft": "sft alphabet=<comma-list>",
        "forbid": "forbid <width> <height>",
    }):
        if directive == "sft":
            alphabet = tuple(_kv(args[0], "alphabet", ln).split(","))
        else:
            patterns.append(_read_grid(lines, "pattern", args, ln))
    return SftSpec(alphabet, tuple(patterns))


# --- 1D subshift specs ---------------------------------------------------------


def serialize_subshift(spec: Subshift1dSpec) -> str:
    out = [f"subshift alphabet={','.join(spec.alphabet)}"]
    if isinstance(spec.source, ExplicitWords):
        out.extend(f"forbid {w}" for w in spec.source.words)
    else:
        out.append(f"stream all_words_min_len {spec.source.min_len}")
    return "\n".join(out) + "\n"


def parse_subshift(text: str) -> Subshift1dSpec:
    """A `subshift alphabet=<comma-list>` header, then either `forbid <word>`
    lines or one `stream all_words_min_len <min-len>` line, the stream of
    every word of at least <min-len> letters."""
    words: list[str] = []
    stream = None
    for ln, directive, args in _directives(_lines(text), {
        "subshift": "subshift alphabet=<comma-list>",
        "forbid": "forbid <word>",
        "stream": "stream <generator> <min-len>",
    }):
        if directive == "subshift":
            alphabet = tuple(_kv(args[0], "alphabet", ln).split(","))
        elif stream is not None or (directive == "stream" and words):
            raise ParseError("only one word source allowed", ln)
        elif directive == "forbid":
            words.append(args[0])
        elif args[0] != "all_words_min_len":
            raise ParseError(f"unknown stream generator {args[0]!r}", ln)
        elif not args[1].isdecimal():
            raise ParseError("all_words_min_len takes one integer parameter", ln)
        else:
            min_len = _int(args[1], "min-len", ln)
            try:
                stream = WordStream(min_len)
            except ShiftforgeError as exc:
                raise ParseError(str(exc), ln) from None
    return Subshift1dSpec(alphabet, stream or ExplicitWords(tuple(words)))


# --- Turing machines -----------------------------------------------------------


def serialize_tm(tm: TmSpec) -> str:
    out = [
        f"tm states={','.join(tm.states)} start={tm.start} blank={tm.blank}",
        f"tape {','.join(tm.tape_alphabet)}",
    ]
    for (q, a), (q2, a2, mv) in sorted(tm.transitions.items()):
        out.append(f"rule {q} {a} -> {q2} {a2} {mv}")
    out.extend(f"halt {q}" for q in sorted(tm.halting))
    return "\n".join(out) + "\n"


def parse_tm(text: str) -> TmSpec:
    forms = {
        "tm": "tm states=<...> start=<s> blank=<b>",
        "tape": "tape <comma-list>",
        "rule": "rule <state> <read> -> <state'> <write> <L|R>",
        "halt": "halt <state>",
    }
    tape: tuple[str, ...] | None = None
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    halting: set[str] = set()
    for ln, directive, args in _directives(_lines(text), forms):
        if directive == "tm":
            spec = _kv(args[0], "states", ln)
            if spec.isdecimal():
                states = tuple(f"q{i}" for i in range(_int(spec, "state count", ln)))
            else:
                states = tuple(spec.split(","))
            start = _kv(args[1], "start", ln)
            blank = _kv(args[2], "blank", ln)
        elif directive == "tape":
            if tape is not None:
                raise ParseError("duplicate tape line", ln)
            tape = tuple(args[0].split(","))
        elif directive == "rule":
            q, a, arrow, q2, a2, mv = args
            if arrow != "->":
                raise ParseError(f"expected: {forms['rule']}", ln)
            if (q, a) in rules:
                raise ParseError(f"duplicate rule for ({q}, {a})", ln)
            if mv not in ("L", "R"):
                raise ParseError(f"move must be L or R, got {mv!r}", ln)
            rules[(q, a)] = (q2, a2, mv)
        else:
            halting.add(args[0])
    if tape is None:
        symbols = {blank, *(a for _, a in rules), *(a2 for _, a2, _ in rules.values())}
        tape = tuple(sorted(symbols))
    try:
        return TmSpec(states, start, tape, blank, rules, frozenset(halting))
    except ShiftforgeError as exc:
        raise ParseError(str(exc)) from None


# --- windows and tilings --------------------------------------------------------


def serialize_window(w: Grid) -> str:
    out = [f"window {w.width} {w.height}"]
    out.extend("".join(row) for row in w.cells)
    return "\n".join(out) + "\n"


def is_window(text: str) -> bool:
    """Whether the first meaningful line of `text` is a window header."""
    return next((line.split()[0] == "window" for _, line in _lines(text)), False)


def parse_window(text: str) -> Grid:
    lines = _lines(text)
    for ln, _, args in _directives(lines, {"window": "window <width> <height>"}):
        window = _read_grid(lines, "window", args, ln)
    return window


def serialize_tiling(t: Grid) -> str:
    out = ["SAT"]
    out.extend(" ".join(str(i) for i in row) for row in t.cells)
    return "\n".join(out) + "\n"


def parse_tiling(text: str) -> Grid:
    """Rows of tile indices, bottom-up; an optional leading verdict line
    (as written by the solver: one token, not decimal) is ignored."""
    rows: list[list[int]] = []
    for ln, line in _lines(text):
        toks = line.split()
        if not rows and len(toks) == 1 and not _decimal(toks[0]):
            continue  # verdict line
        rows.append([_int(t, "tile index", ln) for t in toks])
    if not rows:
        raise ParseError("no tiling rows found")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("tiling rows must all have the same width")
    return Grid.from_rows(rows)
