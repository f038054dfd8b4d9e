"""Command-line surface: compile specs, solve tilings, render, verify.

Exit codes: 0 success, 2 parse/usage error, 3 unsupported input,
4 a tiling that fails validation (`render`, `verify`).

`_write` is the CLI's one writer: every output file goes through it.
`textio._int` is its one integer reader, of flags and file tokens alike;
argparse lets its ParseError through, so a bad integer is one error line.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .aperiodic import aperiodicity_evidence, format_evidence, robinson_tileset
from .compilers import sft_to_wang, tm_to_tileset
from .core import Grid, validate_tiling
from .errors import InvalidInput, MalformedInput, ShiftforgeError, UnsupportedSpec
from .macrotile import BUDGET_EXCEEDED, macro_tiles
from .render import RenderSpec, render
from .solve import SAT, SearchBudget, solve_rectangle, solve_torus
from .subshift import DEFAULT_STREAM_BUDGET, VIOLATION, check_sequence, lift_1d
from .textio import (_int, is_window, parse_sft, parse_subshift, parse_tiling,
                     parse_tileset, parse_tm, parse_window, serialize_compilation,
                     serialize_tileset, serialize_tiling)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VALIDATION = 4


def _write(path: str, data: str | bytes) -> None:
    """Write `data` to `path` in place: open without O_TRUNC, write, then
    cut a regular file to the new length (/dev/null and FIFOs cannot be
    cut).  The file keeps its inode, mode and symlink target, and ext4
    starts no writeback on close, as it does for a file truncated to zero.
    The trade-off: a process that dies mid-write can leave new bytes
    followed by old ones, not a prefix of the new bytes.  Nothing is
    fsynced, so neither is durable."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_millis=args.budget_ms)


def cmd_compile(args) -> int:
    text = Path(args.input).read_text()
    if args.kind == "sft":
        comp = sft_to_wang(parse_sft(text))
    elif args.kind == "subshift1d":
        comp = sft_to_wang(lift_1d(parse_subshift(text)))
    else:
        comp = tm_to_tileset(parse_tm(text), args.tape_width)
    _emit(serialize_compilation(comp), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    ts, _ = parse_tileset(Path(args.tileset).read_text())
    budget = _budget(args)
    mode = args.mode[0]
    if mode not in ("rect", "torus", "domino"):
        raise InvalidInput(f"unknown solve mode {mode!r}")
    dims = [_int(x, f"{mode} dimension") for x in args.mode[1:]]
    if mode in ("rect", "torus"):
        if len(dims) != 2:
            raise InvalidInput("rect mode takes width and height" if mode == "rect"
                               else "torus mode takes two periods")
        solver = solve_rectangle if mode == "rect" else solve_torus
        r = solver(ts, dims[0], dims[1], budget=budget)
        body = serialize_tiling(r.tiling) if r.status == SAT else r.status + "\n"
    else:
        if len(dims) != 1:
            raise InvalidInput("domino mode takes max_n")
        if dims[0] < 1:
            raise InvalidInput("max_n must be positive")
        rep = aperiodicity_evidence(ts, dims[0], dims[0], budget=budget)
        if rep.periodic_found:
            body = "TILES_PERIODICALLY %d %d\n" % rep.periodic_found
        elif rep.unsat_square:
            body = f"NO_TILING {rep.unsat_square}\n"
        else:
            body = f"UNDETERMINED completed_n={rep.completed_n}\n"
    _emit(body, args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    ts, _ = parse_tileset(Path(args.tileset).read_text())
    tiling = parse_tiling(Path(args.tiling).read_text())
    data = render(ts, tiling, RenderSpec(args.cell_pixels, args.format))
    _write(args.out, data)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = parse_subshift(Path(args.spec).read_text())
    artifact = Path(args.artifact).read_text()
    if is_window(artifact):
        window = parse_window(artifact)
    else:
        if not args.tileset:
            raise InvalidInput("verifying a tiling requires --tileset with decode lines")
        ts, decode = parse_tileset(Path(args.tileset).read_text())
        if decode is None:
            raise InvalidInput("tile-set file has no decode lines")
        tiling = parse_tiling(artifact)
        if not validate_tiling(ts, tiling):
            raise MalformedInput("tiling does not validate against the tile set")
        window = Grid.from_rows(
            [tuple(decode[i] for i in row) for row in tiling.cells]
        )
    strays = [a for row in window.cells for a in row if a not in spec.alphabet]
    if strays:
        raise InvalidInput(f"letter {strays[0]!r} outside the spec's alphabet")
    # lifted semantics: columns constant, every row avoids the word source
    for x in range(window.width):
        for y in range(window.height - 1):
            if window.cells[y][x] != window.cells[y + 1][x]:
                print(f"VIOLATION vertical mismatch at column {x} rows {y},{y + 1}")
                return EXIT_OK
    # the columns are constant, so every row equals row 0
    v = check_sequence(spec, "".join(window.cells[0]), budget=args.budget)
    if v.kind == VIOLATION:
        print(f"VIOLATION {v.match} at row 0 position {v.x}")
    else:
        print(v.kind)
    return EXIT_OK


def cmd_robinson(args) -> int:
    _emit(serialize_compilation(robinson_tileset()), args.out)
    return EXIT_OK


def cmd_macro(args) -> int:
    ts, _ = parse_tileset(Path(args.tileset).read_text())
    result = macro_tiles(ts, args.n, budget=_budget(args), max_tiles=args.max_tiles)
    if result == BUDGET_EXCEEDED:
        print(BUDGET_EXCEEDED)
        return EXIT_OK
    print(f"macro tiles: {len(result.blocks)}")
    if args.out:
        _write(args.out, serialize_tileset(result.tileset))
    if args.map_out:
        flat = (";".join(" ".join(map(str, row)) for row in b.cells) for b in result.blocks)
        _write(args.map_out, "".join(f"macro {i} {f}\n" for i, f in enumerate(flat)))
    return EXIT_OK


def cmd_evidence(args) -> int:
    if args.tileset:
        ts, _ = parse_tileset(Path(args.tileset).read_text())
    else:
        ts = robinson_tileset().tileset
    report = aperiodicity_evidence(ts, args.max_square, args.max_period,
                                   budget=_budget(args))
    _emit(format_evidence(report), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, so `main` reports them in one line;
    subparsers are built from the same class."""

    def error(self, message):
        raise InvalidInput(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  It holds no
    command functions: `main` looks `cmd_<command>` up at call time."""
    top = _Parser(
        prog="shiftforge",
        description="Subshift and Wang-tiling toolkit: compile, solve, render, verify.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    budget = SearchBudget()

    def integer(p, name, **kw):
        p.add_argument(name, type=functools.partial(_int, what=name), **kw)

    def common(p):
        integer(p, "--budget-nodes", default=budget.max_nodes)
        integer(p, "--budget-ms", default=budget.max_millis)
        p.add_argument("--out", default=None)

    p = sub.add_parser("compile", help="compile a spec into a tile set")
    p.add_argument("input")
    p.add_argument("--kind", required=True, choices=["sft", "subshift1d", "tm"])
    integer(p, "--tape-width", default=8, help="tape cells for --kind tm")
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve rectangle/torus/domino instances")
    p.add_argument("tileset")
    p.add_argument("--mode", nargs="+", required=True,
                   metavar=("rect|torus|domino", "dims"))
    common(p)

    p = sub.add_parser("render", help="render a tiling to PPM or SVG")
    p.add_argument("tileset")
    p.add_argument("tiling")
    integer(p, "--cell-pixels", default=16)
    p.add_argument("--format", choices=["ppm", "svg"], default="ppm")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="check a window or decoded tiling against a 1D spec")
    p.add_argument("spec")
    p.add_argument("artifact")
    p.add_argument("--tileset", default=None,
                   help="compiled tile-set file with decode lines (for tilings)")
    integer(p, "--budget", default=DEFAULT_STREAM_BUDGET)

    p = sub.add_parser("robinson", help="built-in aperiodic set operations")
    rsub = p.add_subparsers(dest="robinson_command", required=True)
    pe = rsub.add_parser("export", help="write the set in tile-set format")
    pe.add_argument("--out", default=None)

    p = sub.add_parser("macro", help="enumerate n x n macro-tiles")
    p.add_argument("tileset")
    integer(p, "n")
    integer(p, "--max-tiles", default=None)
    p.add_argument("--map-out", default=None,
                   help="sidecar file mapping macro ids to blocks")
    common(p)

    p = sub.add_parser("evidence", help="square/torus aperiodicity evidence suite")
    p.add_argument("--tileset", default=None,
                   help="tile-set file (default: the built-in aperiodic set)")
    integer(p, "--max-square", default=8)
    integer(p, "--max-period", default=4)
    common(p)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ShiftforgeError, OSError, UnicodeDecodeError, OverflowError,
            MemoryError) as exc:
        # str(MemoryError()) is empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, MalformedInput):
            return EXIT_VALIDATION
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedSpec) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
