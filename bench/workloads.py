"""The benchmark's workloads: seeded inputs, the queries of one pass, and
a reference check for every answer.

A query is one user-level question: one in-process ``cli.main([...])``
call or one public library call.  Queries look functions up through the
module objects at call time, so the tracer's wrappers are used when it is
installed.  Checks use only ``reference`` and the answer itself.
"""

from __future__ import annotations

import dataclasses
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# Far above today's largest query (2,638 nodes for Robinson `domino 6`,
# 296 for one solve): a search regression then ends as UNKNOWN, a
# failure, instead of a hang.
NODE_BUDGET = 50_000
# The node budget, not the clock, must decide every query.
MS_BUDGET = 120_000


@dataclass
class Query:
    """`run` is the timed call; `collect` turns its answer into a record
    (reading output files back) and `check` judges the record."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    collect: Callable[[object], object] = lambda answer: answer


def _cli(sf, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = sf.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_query(sf, name: str, argv: list, check, outputs: tuple[Path, ...] = ()) -> Query:
    """A CLI call; its record is (exit code, stdout, stderr, *output bytes)."""
    argv = [str(a) for a in argv]

    def checked(record):
        if record[0] != 0:
            return f"exit code {record[0]}: {record[2].strip()}"
        return check(record)

    return Query(name, lambda: _cli(sf, argv), checked,
                 lambda answer: answer + tuple(p.read_bytes() for p in outputs))


def _budget_args() -> list:
    return ["--budget-nodes", NODE_BUDGET, "--budget-ms", MS_BUDGET]


def _budget(sf):
    return sf.solve.SearchBudget(NODE_BUDGET, MS_BUDGET)


# --- shared inputs ------------------------------------------------------------


def _export_robinson(sf, work: Path) -> tuple[Path, list]:
    """Build the built-in aperiodic set and write it as a tile-set file."""
    rs = sf.aperiodic.robinson_tileset()
    path = work / "robinson.tiles"
    path.write_text(sf.textio.serialize_tileset(rs.tileset, provenance=rs.tile_roles))
    return path, reference.parse_tiles(path.read_text())[0]


def _evidence_query(sf, work: Path, rob: Path, max_square: int, max_period: int) -> Query:
    out = work / f"evidence-{max_square}-{max_period}.txt"
    # every square of an aperiodic set tiles and no torus does
    want = [f"largest SAT square: {max_square}"]
    want += [f"square {n}x{n}: SAT" for n in range(1, max_square + 1)]
    want += [f"torus {p}x{q}: UNSAT" for p in range(1, max_period + 1)
             for q in range(1, max_period + 1)]
    want.append("verdict: consistent with aperiodicity at tested bounds")
    want_bytes = ("\n".join(want) + "\n").encode()
    return cli_query(
        sf, f"evidence {max_square}/{max_period}",
        ["evidence", "--tileset", rob, "--max-square", max_square,
         "--max-period", max_period, *_budget_args(), "--out", out],
        lambda rec: None if rec[3] == want_bytes else "evidence report differs",
        (out,))


# --- lifted 1D specs through the CLI -------------------------------------------


def make_spec(rng: random.Random, letters: int, k: int,
              legal: int) -> tuple[str, list[str], int]:
    """(alphabet, forbidden words, period) of a 1D spec with one to three
    forbidden words, the longest of length k, that leave exactly `legal`
    legal words of length k (the compiled tile count, which sets the cost
    of every later query).  The words avoid a random word repeated with
    that period, so every rectangle tiles, and so does every torus whose
    width is a multiple of the period."""
    alphabet = "012"[:letters]
    while True:
        period = rng.randint(1, 3)
        witness = "".join(rng.choice(alphabet) for _ in range(period)) * (k + 2)
        count = rng.randint(1, 3)
        words: list[str] = []
        for _ in range(50 * count):
            if len(words) == count:
                break
            length = k if not words else rng.randint(2, k)
            word = "".join(rng.choice(alphabet) for _ in range(length))
            if word not in witness and word not in words:
                words.append(word)
        if len(reference.legal_words(alphabet, words, k)) == legal:
            return alphabet, words, period


def lift_queries(sf, rng: random.Random, work: Path, tag: str,
                 letters: int, k: int, legal: int) -> list[Query]:
    """compile -> solve torus/rect -> verify -> render PPM/SVG -> domino -> macro."""
    alphabet, words, period = make_spec(rng, letters, k, legal)
    d = work / tag
    d.mkdir()
    spec, tiles, torus, rect = d / "spec.subshift", d / "tiles.txt", d / "torus.out", d / "rect.out"
    ppm, svg, macro = d / "img.ppm", d / "img.svg", d / "macro.tiles"
    spec.write_text(f"subshift alphabet={','.join(alphabet)}\n"
                    + "".join(f"forbid {w}\n" for w in words))
    p = rng.choice([x for x in range(4, 9) if x % period == 0])
    q = rng.randint(4, 8)
    w, h, c = 8, 8, 8  # fixed, so render cost does not vary with the seed
    max_n = rng.randint(2, 3)
    state: dict = {}  # the compiled tile set, shared by the later checks

    def check_compile(rec):
        state["tiles"], state["decode"] = reference.parse_tiles(rec[3].decode())
        legal = reference.legal_words(alphabet, words, k)
        if len(state["tiles"]) != len(legal):
            return f"{len(state['tiles'])} tiles, want {len(legal)} legal words"
        if sorted(state["decode"]) != sorted(word[0] for word in legal):
            return "decode letters differ from the legal words' first letters"
        return None

    def check_torus(rec):
        verdict, rows = reference.parse_grid(rec[3].decode())
        if verdict != "SAT":
            return f"torus verdict {verdict}"
        return (reference.adjacency_error(state["tiles"], rows, p, q, wrap=True)
                or reference.decoded_error(state["decode"], rows, words))

    def check_rect(rec):
        verdict, rows = reference.parse_grid(rec[3].decode())
        if verdict != "SAT":
            return f"rectangle verdict {verdict}"
        return reference.adjacency_error(state["tiles"], rows, w, h, wrap=False)

    def check_macro(rec):
        want = reference.count_2x2(state["tiles"])
        got = rec[3].decode().count("\ntile ")
        if rec[1] != f"macro tiles: {want}\n" or got != want:
            return f"macro reported {rec[1].strip()!r} with {got} tiles, want {want}"
        return None

    solve = ["solve", tiles, "--mode"]
    return [
        cli_query(sf, f"{tag} compile", ["compile", spec, "--kind", "subshift1d",
                                         "--out", tiles], check_compile, (tiles,)),
        cli_query(sf, f"{tag} torus {p}x{q}", [*solve, "torus", p, q, *_budget_args(),
                                               "--out", torus], check_torus, (torus,)),
        cli_query(sf, f"{tag} rect {w}x{h}", [*solve, "rect", w, h, *_budget_args(),
                                              "--out", rect], check_rect, (rect,)),
        cli_query(sf, f"{tag} verify", ["verify", spec, torus, "--tileset", tiles],
                  lambda rec: None if rec[1] == "CLEAN\n" else f"verify said {rec[1]!r}"),
        cli_query(sf, f"{tag} render ppm", ["render", tiles, rect, "--format", "ppm",
                                            "--cell-pixels", c, "--out", ppm],
                  lambda rec: reference.ppm_error(rec[3], w * c, h * c), (ppm,)),
        cli_query(sf, f"{tag} render svg", ["render", tiles, rect, "--format", "svg",
                                            "--cell-pixels", c, "--out", svg],
                  lambda rec: reference.svg_error(rec[3], w * h), (svg,)),
        cli_query(sf, f"{tag} domino {max_n}", [*solve, "domino", max_n, *_budget_args()],
                  lambda rec: (None if rec[1] == reference.domino_answer(alphabet, words, max_n)
                               else f"domino said {rec[1]!r}")),
        cli_query(sf, f"{tag} macro 2", ["macro", tiles, 2, *_budget_args(), "--out", macro],
                  check_macro, (macro,)),
    ]


# --- Turing-machine space-time diagrams through the library ----------------------


def counter_rules(decrement: bool, mirrored: bool) -> dict:
    """A binary counter between two `#` markers.  From the outer marker it
    walks to the far marker, adds (or subtracts) one with the carry running
    back, walks home and repeats; it halts when the carry reaches the
    marker.  Mirrored machines keep the least significant bit on the left."""
    fwd, back = ("L", "R") if mirrored else ("R", "L")
    carry, stop = ("0", "1") if decrement else ("1", "0")
    return {
        ("s", "#"): ("r", "#", fwd),
        ("r", "0"): ("r", "0", fwd), ("r", "1"): ("r", "1", fwd),
        ("r", "#"): ("i", "#", back),
        ("i", carry): ("i", stop, back), ("i", stop): ("l", carry, back),
        ("i", "#"): ("H", "#", fwd),
        ("l", "0"): ("l", "0", back), ("l", "1"): ("l", "1", back),
        ("l", "#"): ("r", "#", fwd),
    }


def tm_queries(sf, rng: random.Random, tag: str, bits: int, decrement: bool,
               mirrored: bool) -> list[Query]:
    """compile -> forced-boundary solve -> uniqueness count -> height+1 UNSAT."""
    rules = counter_rules(decrement, mirrored)
    # start values keep the run between 15/16 and all of the 2**bits steps,
    # so the seed moves the slowest queries, and with them p90, little
    span = 2 ** (bits - 4) if bits > 4 else 1
    value = 2 ** bits - 1 - rng.randrange(span) if decrement else rng.randrange(span)
    digits = format(value, f"0{bits}b")
    tape = "#" + (digits[::-1] if mirrored else digits) + "#"
    n = len(tape)
    head = n - 1 if mirrored else 0
    tm = sf.compilers.TmSpec(("s", "r", "i", "l", "H"), "s", ("0", "1", "#"), "0",
                             rules, frozenset(["H"]))
    configs = reference.simulate(rules, {"H"}, "s", tape, head, max_steps=10_000)
    height = len(configs)
    state: dict = {}

    def compile_():
        state["comp"] = sf.compilers.tm_to_tileset(tm, n)
        return state["comp"]

    def solve():
        state["boundary"] = sf.compilers.tm_initial_boundary(
            tm, state["comp"], tape, n, height, head)
        return sf.solve.solve_rectangle(state["comp"].tileset, n, height,
                                        state["boundary"], _budget(sf))

    def count():
        return sf.solve.count_rectangle(state["comp"].tileset, n, height,
                                        state["boundary"], _budget(sf))

    def above():
        boundary = sf.compilers.tm_initial_boundary(tm, state["comp"], tape, n,
                                                    height + 1, head)
        return sf.solve.solve_rectangle(state["comp"].tileset, n, height + 1,
                                        boundary, _budget(sf))

    def check_compile(comp):
        state["tiles"] = [t.sides() for t in comp.tileset.tiles]
        state["decode"] = comp.decode
        return None if len(comp.decode) == len(state["tiles"]) else "decode is not total"

    def check_solve(res):
        if res.status != "SAT":
            return f"space-time diagram verdict {res.status}"
        rows = [list(r) for r in res.tiling.cells]
        err = reference.adjacency_error(state["tiles"], rows, n, height, wrap=False)
        if err:
            return err
        if [tuple(state["decode"][i] for i in r) for r in rows] != configs:
            return "decoded rows differ from the simulated run"
        return None

    label = f"{tag} {'dec' if decrement else 'inc'}{'-mirror' if mirrored else ''} {digits}"
    return [
        Query(f"{label} compile", compile_, check_compile),
        Query(f"{label} solve {n}x{height}", solve, check_solve),
        Query(f"{label} count", count,
              lambda res: None if (res.status, res.count) == ("COUNT", 1)
              else f"count {res.status} {res.count}, want exactly 1"),
        Query(f"{label} height+1", above,
              lambda res: None if res.status == "UNSAT" else f"height+1 verdict {res.status}"),
    ]


# --- the three workloads -----------------------------------------------------------


def _robinson(sf, rng, work, rob, rob_tiles) -> list[Query]:
    budget = _budget(sf)
    rob_set = sf.textio.parse_tileset(rob.read_text())[0]

    def torus(p, q):
        return Query(f"robinson torus {p}x{q}",
                     lambda: sf.solve.solve_torus(rob_set, p, q, budget),
                     lambda res: None if res.status == "UNSAT" else f"torus verdict {res.status}")

    def square(n):
        def check(res):
            if res.status != "SAT":
                return f"square verdict {res.status}"
            return reference.adjacency_error(rob_tiles, [list(r) for r in res.tiling.cells],
                                             n, n, wrap=False)
        return Query(f"robinson square {n}x{n}",
                     lambda: sf.solve.solve_rectangle(rob_set, n, n, None, budget), check)

    max_n = 6
    queries = [torus(p, q) for p in range(1, 13) for q in range(1, 13)]
    queries += [square(rng.randint(2 * i + 1, 2 * i + 2)) for i in range(24)]
    queries.append(_evidence_query(sf, work, rob, rng.randint(10, 16), 4))
    queries.append(cli_query(
        sf, f"robinson domino {max_n}", ["solve", rob, "--mode", "domino", max_n, *_budget_args()],
        lambda rec: (None if rec[1] == f"UNDETERMINED completed_n={max_n}\n"
                     else f"domino said {rec[1]!r}")))
    rng.shuffle(queries)
    return queries


# (letters, longest forbidden word, legal words of that length) of each
# spec in a pass; the legal-word counts are the most common ones
LIFT_SHAPES = [(2, 4, 11)] * 2 + [(3, 3, 20)] * 2 + [(2, 3, 5)] * 4 + [(2, 2, 3)] * 5
# machines per counter width in bits; each width runs the four counter
# variants equally often, because their costs differ by up to a quarter
TM_BITS = {3: 8, 4: 8, 5: 4, 6: 4}

WORKLOADS = ("robinson-evidence", "lift-pipeline", "tm-spacetime")


def build(sf, name: str, seed: int, work: Path) -> list[Query]:
    """All inputs of one workload, generated from the seed alone."""
    rng = random.Random(f"{name}:{seed}")
    rob, rob_tiles = _export_robinson(sf, work)
    if name == "robinson-evidence":
        queries = _robinson(sf, rng, work, rob, rob_tiles)
    elif name == "lift-pipeline":
        queries = [q for i, shape in enumerate(LIFT_SHAPES)
                   for q in lift_queries(sf, rng, work, f"spec{i}", *shape)]
    elif name == "tm-spacetime":
        machines = [(bits, i % 2 == 1, i % 4 >= 2)
                    for bits, count in TM_BITS.items() for i in range(count)]
        rng.shuffle(machines)
        queries = [q for i, m in enumerate(machines) for q in tm_queries(sf, rng, f"tm{i}", *m)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    # a short tail through every layer, so each layer is timed on every workload
    queries += lift_queries(sf, rng, work, "tail", 2, 2, 3)
    queries.append(_evidence_query(sf, work, rob, 3, 2))
    return queries


def gate_selftest(sf) -> list[str]:
    """Problems with the answer checks: a corrupted witness and a wrong
    count must both be reported as failures."""
    queries = tm_queries(sf, random.Random(0), "selftest", 3, False, False)
    records = [q.run() for q in queries]
    problems = [f"{q.name}: {err}" for q, rec in zip(queries, records)
                if (err := q.check(rec))]
    solved, counted = records[1], records[2]
    cells = [list(r) for r in solved.tiling.cells]
    cells[0][0] += 1
    corrupt = dataclasses.replace(solved, tiling=sf.core.Tiling.from_rows(cells))
    if queries[1].check(corrupt) is None:
        problems.append("a corrupted witness passed the check")
    if queries[2].check(dataclasses.replace(counted, count=counted.count + 1)) is None:
        problems.append("a wrong count passed the check")
    return problems
