"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``criterion N ...: PASS/FAIL`` line (visible with ``pytest -s`` and in
captured output on failure).  Expected values are never hard-coded
unless they are forced by the definitions; everything else is computed
by the independent oracles in ``oracles.py``.
"""

import itertools
import random

from oracles import (all_windows, legal_torus_configs, naive_count_tilings,
                     tm_run, window_has_pattern)
from shiftforge.aperiodic import aperiodicity_evidence, robinson_tileset
from shiftforge.cli import main
from shiftforge.compilers import TmSpec, sft_to_wang, tm_initial_boundary, tm_to_tileset
from shiftforge.core import Grid, SftSpec, make_tileset
from shiftforge.solve import (SAT, UNSAT, count_rectangle, enumerate_tilings,
                              solve_rectangle, solve_torus)
from shiftforge.subshift import ExplicitWords, Subshift1dSpec, lift_1d


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_sft(rng: random.Random) -> SftSpec:
    alphabet = tuple("abc"[: rng.randint(1, 3)])
    pats = []
    for _ in range(rng.randint(0, 4)):
        w, h = rng.randint(1, 2), rng.randint(1, 2)
        pats.append(Grid(w, h, tuple(
            tuple(rng.choice(alphabet) for _ in range(w)) for _ in range(h))))
    return SftSpec(alphabet, tuple(pats))


def _d_image(comp, p, q):
    sols, complete = enumerate_tilings(comp.tileset, p, q, wrap=True)
    assert complete
    return {
        tuple(tuple(comp.decode[i] for i in row) for row in t.cells)
        for t in sols
    }


def test_criterion_1_sft_torus_correspondence():
    # d-image of the torus tilings == brute-forced legal torus configs,
    # for >= 50 random specs and all periods 2..4.  Specs whose legal
    # configuration sets are too large to brute-force are resampled.
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        spec = _random_sft(rng)
        configs = {}
        too_big = False
        for p in range(2, 5):
            for q in range(2, 5):
                got = legal_torus_configs(spec, p, q, cap=3000)
                if got is None:
                    too_big = True
                    break
                configs[(p, q)] = got
            if too_big:
                break
        if too_big:
            continue
        comp = sft_to_wang(spec)
        for (p, q), want in configs.items():
            assert _d_image(comp, p, q) == want, (spec, p, q)
        checked += 1
    _report(1, "SFT-to-tiling torus correspondence", checked >= 50)


def test_criterion_2_lift_correctness():
    # exhaustive: every binary word list with words of length <= 2,
    # every window up to 3x3, against the direct predicate
    alphabet = ("0", "1")
    universe = ["0", "1", "00", "01", "10", "11"]
    ok = True
    for r in range(len(universe) + 1):
        for words in itertools.combinations(universe, r):
            lifted = lift_1d(Subshift1dSpec(alphabet, ExplicitWords(words)))
            for w in (1, 2, 3):
                for h in (1, 2, 3):
                    for grid in all_windows(alphabet, w, h):
                        clean = not any(window_has_pattern(grid, p)
                                        for p in lifted.forbidden)
                        cols_const = all(
                            grid[y][x] == grid[y + 1][x]
                            for x in range(w) for y in range(h - 1)
                        )
                        rows_avoid = all(
                            word not in "".join(row)
                            for row in grid for word in words
                        )
                        if clean != (cols_const and rows_avoid):
                            ok = False
    _report(2, "vertical lift window correctness", ok)


HALT_NOW = TmSpec(("h",), "h", ("0",), "0", {}, frozenset(["h"]))
INCREMENTER = TmSpec(
    ("q0", "q1"), "q0", ("0", "1"), "0",
    {("q0", "1"): ("q0", "1", "R"), ("q0", "0"): ("q1", "1", "L")},
    frozenset(["q1"]),
)
# 3-state machine that runs for 21 steps from a blank tape (head at 1)
BUSY3 = TmSpec(
    ("A", "B", "C", "H"), "A", ("0", "1"), "0",
    {
        ("A", "0"): ("C", "1", "R"),
        ("A", "1"): ("H", "1", "L"),
        ("B", "0"): ("B", "1", "L"),
        ("B", "1"): ("A", "1", "L"),
        ("C", "0"): ("C", "1", "L"),
        ("C", "1"): ("B", "0", "R"),
    },
    frozenset(["H"]),
)


def test_criterion_3_tm_space_time_diagrams():
    cases = [
        (HALT_NOW, "", 3, 0),
        (INCREMENTER, "1", 4, 0),
        (BUSY3, "", 12, 1),
    ]
    ok = True
    for tm, w, n, head in cases:
        configs = tm_run(tm, w, n, head=head)
        assert configs is not None
        height = len(configs)
        comp = tm_to_tileset(tm, n)
        boundary = tm_initial_boundary(tm, comp, w, n, height, head=head)
        r = solve_rectangle(comp.tileset, n, height, boundary=boundary)
        if r.status != SAT:
            ok = False
            continue
        if [tuple(comp.decode[i] for i in row) for row in r.tiling.cells] != configs:
            ok = False
        # uniqueness of the space-time diagram
        c = count_rectangle(comp.tileset, n, height, boundary=boundary)
        if c.count != 1:
            ok = False
        # the halted head admits no further row
        above = tm_initial_boundary(tm, comp, w, n, height + 1, head=head)
        if solve_rectangle(comp.tileset, n, height + 1,
                           boundary=above).status != UNSAT:
            ok = False
    # the third machine must actually exercise the r <= 20 range
    assert len(tm_run(BUSY3, "", 12, head=1)) == 22
    _report(3, "Turing-machine space-time diagrams", ok)


def test_criterion_4_aperiodicity_evidence():
    ts = robinson_tileset().tileset
    ok = True
    for n in range(1, 17):
        if solve_rectangle(ts, n, n).status != SAT:
            ok = False
    for p in range(1, 7):
        for q in range(1, 7):
            if solve_torus(ts, p, q).status != UNSAT:
                ok = False
    _report(4, "aperiodic set: squares tile, no torus does", ok)


def test_criterion_5_domino_sanity():
    ok = True
    rep = aperiodicity_evidence(make_tileset("free", [(0, 0, 0, 0)]), 4, 4)
    if (rep.periodic_found, rep.unsat_square) != ((1, 1), None):
        ok = False
    # (0,1,0,2): 1x1 rect SAT, every torus so far UNSAT, 2x2 rect UNSAT
    rep = aperiodicity_evidence(make_tileset("mismatch", [(0, 1, 0, 2)]), 4, 4)
    if (rep.periodic_found, rep.unsat_square) != (None, 2):
        ok = False
    rep = aperiodicity_evidence(robinson_tileset().tileset, 6, 6)
    if (rep.periodic_found, rep.unsat_square, rep.completed_n) != (None, None, 6):
        ok = False
    _report(5, "domino semidecider sanity verdicts", ok)


def test_criterion_6_solver_oracle_equivalence():
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        ncolors = rng.randint(1, 3)
        ntiles = rng.randint(1, min(4, ncolors ** 4))
        tiles = set()
        while len(tiles) < ntiles:
            tiles.add(tuple(rng.randrange(ncolors) for _ in range(4)))
        ts = make_tileset("rand", sorted(tiles), num_colors=ncolors)
        while True:
            w, h = rng.randint(1, 3), rng.randint(1, 3)
            if ntiles ** (w * h) <= 20_000:
                break
        got = count_rectangle(ts, w, h)
        if got.status != "COUNT" or got.count != naive_count_tilings(ts, w, h):
            ok = False
    _report(6, "rectangle counts match naive enumeration", ok)


def test_criterion_7_end_to_end_golden_pipeline(tmp_path, capsys):
    spec_path = tmp_path / "spec.subshift"
    spec_path.write_text("subshift alphabet=0,1\nforbid 11\n")
    tiles_path = tmp_path / "tiles.txt"
    torus_path = tmp_path / "torus.tiling"
    ok = main(["compile", str(spec_path), "--kind", "subshift1d",
               "--out", str(tiles_path)]) == 0
    ok &= main(["solve", str(tiles_path), "--mode", "torus", "4", "4",
                "--out", str(torus_path)]) == 0
    ok &= main(["verify", str(spec_path), str(torus_path),
                "--tileset", str(tiles_path)]) == 0
    out = capsys.readouterr().out
    ok &= out.strip() == "CLEAN"

    # every legal 4x4 torus configuration is hit by some tiling
    spec1d = Subshift1dSpec(("0", "1"), ExplicitWords(("11",)))
    lifted = lift_1d(spec1d)
    comp = sft_to_wang(lifted)
    ok &= _d_image(comp, 4, 4) == legal_torus_configs(lifted, 4, 4)
    _report(7, "compile-solve-verify pipeline on the golden spec", ok)


def test_criterion_8_determinism(tmp_path, capsys):
    spec_path = tmp_path / "spec.subshift"
    spec_path.write_text("subshift alphabet=0,1\nforbid 11\n")
    tm_path = tmp_path / "m.tm"
    tm_path.write_text(
        "tm states=q0,q1 start=q0 blank=0\n"
        "rule q0 1 -> q0 1 R\nrule q0 0 -> q1 1 L\nhalt q1\n"
    )

    def run_all(tag: str) -> list[bytes]:
        d = tmp_path / tag
        d.mkdir()
        tiles = d / "tiles.txt"
        outs = []
        assert main(["compile", str(spec_path), "--kind", "subshift1d",
                     "--out", str(tiles)]) == 0
        assert main(["compile", str(tm_path), "--kind", "tm",
                     "--tape-width", "4", "--out", str(d / "tm.tiles")]) == 0
        assert main(["solve", str(tiles), "--mode", "rect", "3", "3",
                     "--out", str(d / "rect.out")]) == 0
        assert main(["solve", str(tiles), "--mode", "torus", "4", "4",
                     "--out", str(d / "torus.out")]) == 0
        assert main(["solve", str(tiles), "--mode", "domino", "3",
                     "--out", str(d / "domino.out")]) == 0
        assert main(["render", str(tiles), str(d / "rect.out"),
                     "--cell-pixels", "5", "--out", str(d / "img.ppm")]) == 0
        assert main(["render", str(tiles), str(d / "rect.out"),
                     "--format", "svg", "--out", str(d / "img.svg")]) == 0
        assert main(["robinson", "export", "--out", str(d / "rob.tiles")]) == 0
        assert main(["evidence", "--tileset", str(d / "rob.tiles"),
                     "--max-square", "3", "--max-period", "2",
                     "--out", str(d / "evidence.out")]) == 0
        assert main(["macro", str(tiles), "2", "--out", str(d / "macro.tiles"),
                     "--map-out", str(d / "macro.map")]) == 0
        for name in ("tiles.txt", "tm.tiles", "rect.out", "torus.out",
                     "domino.out", "img.ppm", "img.svg", "rob.tiles",
                     "evidence.out", "macro.tiles", "macro.map"):
            outs.append((d / name).read_bytes())
        return outs

    first = run_all("run1")
    second = run_all("run2")
    capsys.readouterr()
    _report(8, "byte-identical outputs on identical inputs", first == second)
