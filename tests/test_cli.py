import builtins
import io
import os
import stat
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftforge import cli
from shiftforge.aperiodic import robinson_tileset
from shiftforge.cli import main
from shiftforge.compilers import sft_to_wang
from shiftforge.solve import solve_rectangle
from shiftforge.subshift import lift_1d
from shiftforge.textio import parse_subshift, serialize_compilation, serialize_tileset
from test_solve import stop_the_clock_after_propagating

SUBSHIFT_11 = "subshift alphabet=0,1\nforbid 11\n"
TM_TEXT = (
    "tm states=q0,q1 start=q0 blank=0\n"
    "rule q0 1 -> q0 1 R\n"
    "rule q0 0 -> q1 1 L\n"
    "halt q1\n"
)


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.subshift"
    p.write_text(SUBSHIFT_11)
    return p


@pytest.fixture
def tiles_file(tmp_path, spec_file):
    p = tmp_path / "tiles.txt"
    assert main(["compile", str(spec_file), "--kind", "subshift1d",
                 "--out", str(p)]) == 0
    return p


def test_compile_subshift_writes_tileset(tiles_file):
    text = tiles_file.read_text()
    assert text.splitlines()[0].startswith("tileset ")
    assert sum(1 for l in text.splitlines() if l.startswith("tile ")) == 3
    assert sum(1 for l in text.splitlines() if l.startswith("decode ")) == 3


def test_compile_sft_and_tm(tmp_path, capsys):
    sft = tmp_path / "s.sft"
    sft.write_text("sft alphabet=0,1\nforbid 2 1\n11\n")
    assert main(["compile", str(sft), "--kind", "sft"]) == 0
    out1 = capsys.readouterr().out
    assert "tileset" in out1 and "decode" in out1

    tm = tmp_path / "m.tm"
    tm.write_text(TM_TEXT)
    assert main(["compile", str(tm), "--kind", "tm", "--tape-width", "4"]) == 0
    assert "tileset" in capsys.readouterr().out


def test_solve_rect_torus_domino(tiles_file, capsys):
    assert main(["solve", str(tiles_file), "--mode", "rect", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "SAT" and len(out.splitlines()) == 3

    assert main(["solve", str(tiles_file), "--mode", "torus", "4", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "SAT"

    assert main(["solve", str(tiles_file), "--mode", "domino", "3"]) == 0
    assert capsys.readouterr().out.startswith("TILES_PERIODICALLY 1 1")


def test_solve_without_budget_flags_passes_the_default_budget(tiles_file, monkeypatch,
                                                              capsys):
    budgets = []

    def record(ts, w, h, budget):
        budgets.append(budget)
        return solve_rectangle(ts, w, h, budget=budget)

    monkeypatch.setattr(cli, "solve_rectangle", record)
    assert main(["solve", str(tiles_file), "--mode", "rect", "2", "2"]) == 0
    assert capsys.readouterr().out.startswith("SAT")
    assert [(b.max_nodes, b.max_millis) for b in budgets] == [(10_000_000, 600_000)]


def test_verify_tiling_clean_and_violation(tmp_path, spec_file, tiles_file, capsys):
    tiling = tmp_path / "t.tiling"
    assert main(["solve", str(tiles_file), "--mode", "rect", "3", "2",
                 "--out", str(tiling)]) == 0
    assert main(["verify", str(spec_file), str(tiling),
                 "--tileset", str(tiles_file)]) == 0
    assert capsys.readouterr().out.strip() == "CLEAN"

    window = tmp_path / "w.window"
    window.write_text("window 3 1\n011\n")
    assert main(["verify", str(spec_file), str(window)]) == 0
    assert capsys.readouterr().out.strip() == "VIOLATION 11 at row 0 position 1"


def test_verify_reports_a_budget_limited_clean_window(tmp_path, capsys):
    spec = tmp_path / "spec.subshift"
    spec.write_text("subshift alphabet=0,1\nstream all_words_min_len 5\n")
    window = tmp_path / "w.window"
    window.write_text("window 4 2\n0101\n0101\n")
    # no stream word is short enough to occur in the rows
    assert main(["verify", str(spec), str(window), "--budget", "5"]) == 0
    assert capsys.readouterr().out == "BUDGET_EXHAUSTED_CLEAN\n"


def test_verify_answers_a_stream_whose_words_are_past_sys_maxsize_letters(tmp_path, capsys):
    spec = tmp_path / "spec.subshift"
    spec.write_text("subshift alphabet=0,1\nstream all_words_min_len 99999999999999999999\n")
    window = tmp_path / "w.window"
    window.write_text("window 2 1\n01\n")
    assert main(["verify", str(spec), str(window)]) == 0
    assert capsys.readouterr() == ("BUDGET_EXHAUSTED_CLEAN\n", "")


def test_verify_rejects_a_tiling_that_does_not_validate(tmp_path, spec_file, capsys):
    tiles = tmp_path / "t.tiles"
    tiles.write_text("tileset t colors=2\ntile 0 0 0 1\ndecode 0 0\n")
    tiling = tmp_path / "t.tiling"
    tiling.write_text("0 0\n")  # east 0 meets west 1
    assert main(["verify", str(spec_file), str(tiling), "--tileset", str(tiles)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tiling does not validate against the tile set\n"


def test_verify_vertical_mismatch(tmp_path, spec_file, capsys):
    window = tmp_path / "w.window"
    window.write_text("window 1 2\n0\n1\n")
    assert main(["verify", str(spec_file), str(window)]) == 0
    assert "vertical mismatch" in capsys.readouterr().out


def test_verify_tiling_requires_decode(tmp_path, spec_file, capsys):
    bare = tmp_path / "bare.tiles"
    bare.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    tiling = tmp_path / "t.tiling"
    tiling.write_text("0\n")
    assert main(["verify", str(spec_file), str(tiling),
                 "--tileset", str(bare)]) == 2


def test_domino_reports_no_tiling_and_undetermined(tmp_path, capsys):
    stuck = tmp_path / "stuck.tiles"
    stuck.write_text("tileset t colors=3\ntile 0 1 0 2\n")  # east 1, west 2
    assert main(["solve", str(stuck), "--mode", "domino", "3"]) == 0
    assert capsys.readouterr().out == "NO_TILING 2\n"

    rob = tmp_path / "rob.tiles"
    assert main(["robinson", "export", "--out", str(rob)]) == 0
    assert main(["solve", str(rob), "--mode", "domino", "2"]) == 0
    assert capsys.readouterr().out == "UNDETERMINED completed_n=2\n"


def test_domino_rejects_a_bound_below_one(tmp_path, capsys):
    one = tmp_path / "one.tiles"
    one.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    assert main(["solve", str(one), "--mode", "domino", "0"]) == 2
    assert capsys.readouterr() == ("", "error: max_n must be positive\n")


def test_render_ppm_and_validation_failure(tmp_path, tiles_file, capsys):
    tiling = tmp_path / "t.tiling"
    assert main(["solve", str(tiles_file), "--mode", "rect", "2", "2",
                 "--out", str(tiling)]) == 0
    out = tmp_path / "img.ppm"
    assert main(["render", str(tiles_file), str(tiling),
                 "--cell-pixels", "4", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P6\n8 8\n255\n")

    # a 1-wide tiling whose first row is a signed index keeps that row
    signed = tmp_path / "signed.tiling"
    signed.write_text("+0\n0\n")
    assert main(["render", str(tiles_file), str(signed),
                 "--cell-pixels", "1", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P6\n1 2\n255\n")

    bad = tmp_path / "bad.tiling"
    bad.write_text("9\n")  # tile index out of range
    rc = main(["render", str(tiles_file), str(bad), "--out", str(out)])
    capsys.readouterr()
    assert rc == 4


def test_robinson_export_and_evidence(tmp_path, capsys):
    exported = tmp_path / "rob.tiles"
    assert main(["robinson", "export", "--out", str(exported)]) == 0
    lines = exported.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("tile ")) == 104

    assert main(["evidence", "--tileset", str(exported),
                 "--max-square", "3", "--max-period", "2"]) == 0
    out = capsys.readouterr().out
    assert "largest SAT square: 3" in out
    assert "consistent with aperiodicity" in out


def test_robinson_export_writes_the_library_set_with_its_roles_and_no_decode(tmp_path):
    exported = tmp_path / "rob.tiles"
    assert main(["robinson", "export", "--out", str(exported)]) == 0
    rs = robinson_tileset()
    text = exported.read_text()
    assert text == serialize_tileset(rs.tileset, provenance=rs.tile_roles)
    lines = text.splitlines()
    assert lines[0].startswith("tileset robinson colors=")
    assert [l for l in lines if l.startswith("# tile ")] == [
        f"# tile {i}: {role}" for i, role in enumerate(rs.tile_roles)]
    assert len(rs.tile_roles) == 104
    assert not any(l.startswith("decode ") for l in lines)


def test_evidence_defaults_to_the_builtin_set(capsys):
    assert main(["evidence", "--max-square", "2", "--max-period", "1"]) == 0
    assert capsys.readouterr().out == (
        "largest SAT square: 2\n"
        "square 1x1: SAT\n"
        "square 2x2: SAT\n"
        "torus 1x1: UNSAT\n"
        "verdict: consistent with aperiodicity at tested bounds\n"
    )


def test_evidence_on_a_set_that_cannot_tile_the_plane(tmp_path, capsys):
    one = tmp_path / "one.tiles"
    one.write_text("tileset t colors=4\ntile 0 1 2 3\n")
    assert main(["evidence", "--tileset", str(one),
                 "--max-square", "4", "--max-period", "2"]) == 0
    assert capsys.readouterr().out == (
        "largest SAT square: 1\n"
        "square 1x1: SAT\n"
        "square 2x2: UNSAT\n"
        "torus 1x1: UNSAT\n"
        "verdict: no tiling of the plane (square 2x2 UNSAT)\n"
    )


def test_evidence_ends_at_the_first_periodic_torus(tmp_path, capsys):
    one = tmp_path / "one.tiles"
    one.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    assert main(["evidence", "--tileset", str(one),
                 "--max-square", "4", "--max-period", "3"]) == 0
    assert capsys.readouterr().out == (
        "largest SAT square: 1\n"
        "square 1x1: SAT\n"
        "torus 1x1: SAT\n"
        "verdict: not aperiodic (periodic tiling with periods 1x1)\n"
    )


def test_evidence_ends_at_the_first_instance_its_budget_leaves_unknown(tmp_path, capsys):
    rob = tmp_path / "rob.tiles"
    assert main(["robinson", "export", "--out", str(rob)]) == 0
    # square 1 takes the one node; no UNKNOWN line follows for the other tori
    assert main(["evidence", "--tileset", str(rob), "--max-square", "2",
                 "--max-period", "300", "--budget-nodes", "1"]) == 0
    assert capsys.readouterr().out == (
        "largest SAT square: 1\n"
        "square 1x1: SAT\n"
        "torus 1x1: UNKNOWN\n"
        "verdict: inconclusive (budget exhausted)\n"
    )


def test_macro_command(tmp_path, tiles_file, capsys):
    out = tmp_path / "macro.tiles"
    map_out = tmp_path / "macro.map"
    assert main(["macro", str(tiles_file), "2", "--out", str(out),
                 "--map-out", str(map_out)]) == 0
    assert "macro tiles:" in capsys.readouterr().out
    assert out.read_text().startswith("tileset ")
    assert map_out.read_text().startswith("macro 0 ")
    # a cap of 1 trips the guard
    assert main(["macro", str(tiles_file), "2", "--max-tiles", "1"]) == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"


def test_exit_codes(tmp_path, spec_file, capsys):
    broken = tmp_path / "broken.subshift"
    broken.write_text("nonsense\n")
    assert main(["compile", str(broken), "--kind", "subshift1d"]) == 2
    capsys.readouterr()

    stream = tmp_path / "stream.subshift"
    stream.write_text("subshift alphabet=0,1\nstream all_words_min_len 2\n")
    assert main(["compile", str(stream), "--kind", "subshift1d"]) == 3
    capsys.readouterr()

    assert main(["compile", str(tmp_path / "missing"), "--kind", "sft"]) == 2
    capsys.readouterr()

    tiles = tmp_path / "t.tiles"
    tiles.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    assert main(["solve", str(tiles), "--mode", "rect", "0", "3"]) == 2
    capsys.readouterr()


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.strip() != "error:"


def test_verify_rejects_empty_window(tmp_path, spec_file, capsys):
    empty = tmp_path / "empty.window"
    empty.write_text("window 0 0\n")
    assert main(["verify", str(spec_file), str(empty)]) == 2
    assert_one_error_line(capsys)


def test_solve_rejects_non_integer_dimension(tiles_file, capsys):
    assert main(["solve", str(tiles_file), "--mode", "rect", "2", "x"]) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("kind,text", [
    ("subshift1d", "subshift alphabet=\n"),
    ("sft", "sft alphabet=a,,b\n"),
    ("sft", "sft alphabet=ab,c\n"),
    ("sft", "sft alphabet=#,a\n"),
    ("subshift1d", "subshift alphabet=0,#\n"),
])
def test_compile_rejects_letters_that_do_not_round_trip(tmp_path, capsys, kind, text):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    assert main(["compile", str(spec), "--kind", kind]) == 2
    assert_one_error_line(capsys)


def test_render_rejects_zero_cell_pixels(tmp_path, tiles_file, capsys):
    tiling = tmp_path / "t.tiling"
    tiling.write_text("0\n")
    assert main(["render", str(tiles_file), str(tiling), "--cell-pixels", "0",
                 "--out", str(tmp_path / "img.ppm")]) == 2
    assert_one_error_line(capsys)


def test_macro_rejects_negative_max_tiles(tiles_file, capsys):
    assert main(["macro", str(tiles_file), "2", "--max-tiles", "-1"]) == 2
    assert_one_error_line(capsys)


def test_cli_outputs_are_deterministic(tmp_path, spec_file):
    outs = []
    for name in ("a", "b"):
        p = tmp_path / f"{name}.tiles"
        assert main(["compile", str(spec_file), "--kind", "subshift1d",
                     "--out", str(p)]) == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_verify_rejects_empty_stream_word(tmp_path, capsys):
    spec = tmp_path / "spec.subshift"
    spec.write_text("subshift alphabet=0,1\nstream all_words_min_len 0\n")
    window = tmp_path / "w.window"
    window.write_text("window 2 1\n01\n")
    # the spec is refused when it is read, by every command
    assert main(["verify", str(spec), str(window)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: forbidden words must be nonempty\n")
    assert main(["compile", str(spec), "--kind", "subshift1d"]) == 2
    assert capsys.readouterr() == ("", "error: line 2: forbidden words must be nonempty\n")


def test_verify_rejects_a_forbid_line_after_a_stream(tmp_path, capsys):
    spec = tmp_path / "spec.subshift"
    spec.write_text("subshift alphabet=0,1\nstream all_words_min_len 5\nforbid 11\n")
    window = tmp_path / "w.window"
    window.write_text("window 2 1\n11\n")
    assert main(["verify", str(spec), str(window)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: only one word source allowed\n"


def test_verify_reports_an_out_of_range_tile_as_a_validation_failure(tmp_path, spec_file,
                                                                      capsys):
    tiles = tmp_path / "one.tiles"
    tiles.write_text("tileset t colors=1\ntile 0 0 0 0\ndecode 0 0\n")
    tiling = tmp_path / "t.tiling"
    tiling.write_text("9\n")
    assert main(["verify", str(spec_file), str(tiling), "--tileset", str(tiles)]) == 4
    assert_one_error_line(capsys)


def test_verify_reads_a_window_that_starts_with_a_comment(tmp_path, spec_file, capsys):
    window = tmp_path / "w.window"
    window.write_text("# checked by hand\nwindow 3 1\n010\n")
    assert main(["verify", str(spec_file), str(window)]) == 0
    assert capsys.readouterr().out == "CLEAN\n"


@pytest.mark.parametrize("argv", [["solve", "x"], ["bogus"], []])
def test_usage_errors_give_one_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    assert_one_error_line(capsys)


ONE_TILE = "tileset t colors=1\ntile 0 0 0 0\n"
TM_HEAD = "tm states=q0,q1 start=q0 blank=0\n"


@pytest.mark.parametrize("files,argv,message", [
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "rect", "5"],
     "rect mode takes width and height"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "torus", "3"], "torus mode takes two periods"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "domino", "2", "3"], "domino mode takes max_n"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "hex", "3"], "unknown solve mode 'hex'"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "rect", "2", "2", "--budget-nodes", "0"],
     "budget values must be positive"),
    ({"s": SUBSHIFT_11, "g": "SAT\n0 0\n"}, ["verify", "s", "g"],
     "verifying a tiling requires --tileset with decode lines"),
    ({"s": SUBSHIFT_11, "w": "window 2 1\n02\n"}, ["verify", "s", "w"],
     "letter '2' outside the spec's alphabet"),
    ({"s": SUBSHIFT_11, "w": "window 2 1\n01\n"}, ["verify", "s", "w", "--budget", "0"],
     "budget must be positive"),
    ({"m": TM_HEAD + "rule q0 0 -> q9 1 R\n"}, ["compile", "m", "--kind", "tm"],
     "transition references unknown state"),
    ({"m": TM_HEAD + "tape 0,1\nrule q0 2 -> q1 1 R\n"}, ["compile", "m", "--kind", "tm"],
     "transition references unknown symbol"),
    ({"m": TM_HEAD + "halt q9\n"}, ["compile", "m", "--kind", "tm"],
     "halting state 'q9' not in state set"),
    ({"s": "subshift alphabet=0,0\n"}, ["compile", "s", "--kind", "subshift1d"],
     "alphabet letters must be distinct"),
    ({"t": "tileset t 4\n"}, ["solve", "t", "--mode", "rect", "1", "1"],
     "line 1: expected colors=<...>, got '4'"),
    ({"t": "tileset t colors=-1\n"}, ["solve", "t", "--mode", "rect", "1", "1"],
     "line 1: color count must not be negative"),
    ({"s": SUBSHIFT_11, "w": "window 2 1\n01\n"},
     ["verify", "s", "w", "--budget", "99999999999999999999"],
     "budget must be at most sys.maxsize"),
    ({"t": ONE_TILE, "g": "0 0\n"},
     ["render", "t", "g", "--cell-pixels", "99999999999999999999", "--out", "x.ppm"],
     "PPM body must be at most sys.maxsize bytes"),
    # '²' is a digit to `str.isdigit` but not to `int`: a state name, not a count
    ({"m": "tm states=² start=q0 blank=0\n"}, ["compile", "m", "--kind", "tm"],
     "start state not in state set"),
    ({"s": "subshift alphabet=0,1\nstream all_words_min_len ²\n"},
     ["compile", "s", "--kind", "subshift1d"],
     "line 2: all_words_min_len takes one integer parameter"),
    # the mode is checked before its dimensions are parsed
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "bogus", "x"], "unknown solve mode 'bogus'"),
    # sizes past sys.maxsize are refused before anything is allocated
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "rect", str(10**20), "1"],
     "a grid must have at most sys.maxsize cells"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "torus", "1", str(10**20)],
     "a grid must have at most sys.maxsize cells"),
    ({"t": ONE_TILE}, ["macro", "t", str(10**10)], "a grid must have at most sys.maxsize cells"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "rect", "2", "2", "--budget-ms", str(10**400)],
     "max_millis must be at most sys.maxsize"),
    # int() refuses more than 4,300 digits; the message does not echo them
    ({"s": f"subshift alphabet=a,b\nstream all_words_min_len {'9' * 5000}\n",
      "w": "window 2 1\nab\n"}, ["verify", "s", "w"],
     "line 2: integer min-len has too many digits"),
    ({"m": f"tm states={'9' * 5000} start=q0 blank=0\n"}, ["compile", "m", "--kind", "tm"],
     "line 1: integer state count has too many digits"),
    ({"t": ONE_TILE}, ["solve", "t", "--mode", "rect", "9" * 5000, "1"],
     "integer rect dimension has too many digits"),
])
def test_each_input_error_has_its_own_line(tmp_path, monkeypatch, capsys, files, argv,
                                           message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    binary = tmp_path / "spec.bin"
    binary.write_bytes(b"\xff\xfe\x00sft")
    assert main(["compile", str(binary), "--kind", "sft"]) == 2
    assert_one_error_line(capsys)


def test_help_exits_through_argparse_and_leaves_the_parser_as_it_was(spec_file, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: shiftforge")
    assert main(["compile", str(spec_file), "--kind", "subshift1d"]) == 0
    assert capsys.readouterr().out == serialize_compilation(
        sft_to_wang(lift_1d(parse_subshift(SUBSHIFT_11))))


# every integer argument, by the name its errors give, in an argv where "N" stands for it
INTEGER_ARGVS = {
    "--budget-nodes": ["solve", "t", "--mode", "rect", "2", "2", "--budget-nodes", "N"],
    "--budget-ms": ["solve", "t", "--mode", "rect", "2", "2", "--budget-ms", "N"],
    "--tape-width": ["compile", "s", "--kind", "tm", "--tape-width", "N"],
    "--cell-pixels": ["render", "t", "g", "--out", "x.ppm", "--cell-pixels", "N"],
    "--budget": ["verify", "s", "w", "--budget", "N"],
    "n": ["macro", "t", "N"],
    "--max-tiles": ["macro", "t", "2", "--max-tiles", "N"],
    "--max-square": ["evidence", "--max-square", "N"],
    "--max-period": ["evidence", "--max-period", "N"],
    "rect dimension": ["solve", "t", "--mode", "rect", "N", "1"],
    "torus dimension": ["solve", "t", "--mode", "torus", "1", "N"],
    "domino dimension": ["solve", "t", "--mode", "domino", "N"],
}


@pytest.mark.parametrize("what", INTEGER_ARGVS)
@pytest.mark.parametrize("tok,message", [
    ("9" * 5000, "integer {} has too many digits"),
    ("-" + "9" * 5000, "integer {} has too many digits"),
    ("abc", "expected integer {}, got 'abc'"),
], ids=["long", "long-negative", "abc"])
def test_every_bad_integer_argument_is_one_short_error_line(tmp_path, monkeypatch, capsys,
                                                            what, tok, message):
    monkeypatch.chdir(tmp_path)
    for name, text in {"t": ONE_TILE, "g": "0\n", "s": SUBSHIFT_11,
                       "w": "window 2 1\n01\n"}.items():
        (tmp_path / name).write_text(text)
    assert main([tok if a == "N" else a for a in INTEGER_ARGVS[what]]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(what)}\n")


# --- every argv ends in an exit code, and the same one every time ---------------

# Sizes stay at or below 6: `solve --mode torus 99999999 99999999` still
# allocates the whole grid before any budget check.
SMALL = st.sampled_from([str(i) for i in range(-1, 7)])
# an integer flag's value may also be no integer, or one past int()'s digit limit
INTEGER = SMALL | st.sampled_from(["abc", "9" * 5000])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """(input paths, output paths): valid inputs of every kind, garbage,
    an empty file, a directory and a missing path; outputs are never read."""
    d = tmp_path_factory.mktemp("cli")
    texts = {
        "spec.subshift": SUBSHIFT_11,
        "stream.subshift": "subshift alphabet=0,1\nstream all_words_min_len 3\n",
        "s.sft": "sft alphabet=0,1\nforbid 2 1\n11\n",
        "m.tm": TM_TEXT,
        "w.window": "window 3 2\n010\n010\n",
        "t.tiling": "SAT\n0 1 0\n0 1 0\n",
        "garbage.txt": "tile 0 0\nforbid\n-> 9\n",
        "empty.txt": "",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "binary.bin").write_bytes(b"\xff\xfe\x00tileset")
    tiles = d / "tiles.txt"
    assert main(["compile", str(d / "spec.subshift"), "--kind", "subshift1d",
                 "--out", str(tiles)]) == 0
    inputs = [str(d / name) for name in [*texts, "binary.bin", "missing"]]
    return [*inputs, str(tiles), str(d)], {"--out": str(d / "out"), "--map-out": str(d / "map")}


def argvs(files):
    """A subcommand name, usually the arguments it requires, then chunks:
    a path, a small integer, a flag with its value or values, or a stray
    token.  `--out` and `--map-out` only ever name the output paths, so
    no call changes an input of another."""
    inputs, outputs = files
    path = st.sampled_from(inputs).map(lambda p: [p])
    small = SMALL.map(lambda n: [n])
    kind = st.tuples(st.just("--kind"), st.sampled_from(["sft", "subshift1d", "tm", "x"]))
    mode = st.builds(lambda m, dims: ["--mode", m, *dims],
                     st.sampled_from(["rect", "torus", "domino", "x"]), st.lists(SMALL, max_size=3))
    out = st.sampled_from(sorted(outputs)).map(lambda flag: [flag, outputs[flag]])
    chunk = st.one_of(
        path, small, kind, mode, out,
        st.tuples(st.sampled_from(["--tape-width", "--budget-nodes", "--budget-ms",
                                   "--cell-pixels", "--budget", "--max-tiles",
                                   "--max-square", "--max-period"]), INTEGER),
        st.tuples(st.just("--format"), st.sampled_from(["ppm", "svg", "png"])),
        st.tuples(st.just("--tileset"), st.sampled_from(inputs)),
        st.sampled_from(["export", "--kind", "--mode", "--bogus", "-x"]).map(lambda t: [t]),
    )
    required = {
        "compile": [path, kind], "solve": [path, mode], "render": [path, path, out],
        "verify": [path, path], "robinson": [st.just(["export"])],
        "macro": [path, small], "evidence": [], "bogus": [],
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(required)))
        chunks = [draw(c) for c in required[command]] if draw(st.integers(0, 3)) else []
        chunks += draw(st.lists(chunk, max_size=4))
        return [command, *(token for c in chunks for token in c)]

    return argv()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_argv_returns_an_exit_code_and_repeats_it(cli_files, data):
    """Any argv returns 0, 2, 3 or 4 without raising, and the same argv
    called again after another call gives the same code and bytes."""
    first, other = data.draw(argvs(cli_files)), data.draw(argvs(cli_files))
    result = run(first)
    assert result[0] in (0, 2, 3, 4)
    assert run(other)[0] in (0, 2, 3, 4)
    if "--budget-ms" not in first:  # a clock budget may end a slower run elsewhere
        assert run(first) == result


def test_solve_searches_deeper_than_the_recursion_limit(tmp_path, capsys):
    free = tmp_path / "free.tiles"
    free.write_text("tileset c colors=2\ntile 0 0 0 0\ntile 1 0 1 0\n")
    assert main(["solve", str(free), "--mode", "rect", "1100", "1"]) == 0
    assert capsys.readouterr().out == "SAT\n" + " ".join(["0"] * 1100) + "\n"


def test_a_clock_budget_covers_the_solver_setup(tmp_path, capsys):
    one = tmp_path / "one.tiles"
    one.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    start = time.monotonic()
    assert main(["solve", str(one), "--mode", "rect", "600", "600", "--budget-ms", "1"]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out == "UNKNOWN\n"


def test_a_clock_budget_covers_the_initial_propagation(tmp_path, capsys, monkeypatch):
    stop_the_clock_after_propagating(monkeypatch)
    one = tmp_path / "one.tiles"
    one.write_text("tileset t colors=1\ntile 0 0 0 0\n")
    assert main(["solve", str(one), "--mode", "rect", "100", "100", "--budget-ms", "1"]) == 0
    assert capsys.readouterr().out == "UNKNOWN\n"


def test_a_clock_budget_covers_each_slice_of_an_initial_propagation_with_work(
        tmp_path, capsys, monkeypatch):
    # tile 1 fits only in the east column, so the sweep revises all 10,000
    # cells in three slices; the clock stops it after the first
    returned = stop_the_clock_after_propagating(monkeypatch)
    two = tmp_path / "two.tiles"
    two.write_text("tileset t colors=2\ntile 0 0 0 0\ntile 0 1 0 0\n")
    assert main(["solve", str(two), "--mode", "rect", "100", "100", "--budget-ms", "1"]) == 0
    assert capsys.readouterr().out == "UNKNOWN\n"
    assert len(returned) == 1


NINES = "9" * 400


@pytest.mark.parametrize("colors,argv", [
    (1, ["--mode", "rect", "1", "1", "--budget-ms", NINES]),
    (1, ["--mode", "torus", "10000000000", "10000000000"]),
    # w * h domains cannot be allocated; the request fails at once, so
    # the test allocates nothing
    (1, ["--mode", "torus", "99999999", "99999999", "--budget-nodes", "5"]),
    (10_000_000_000_000_000_000, ["--mode", "rect", "1", "1"]),
], ids=["budget-ms", "torus-overflow", "torus-memory", "colors"])
def test_solve_sizes_that_do_not_fit_are_usage_errors(tmp_path, capsys, colors, argv):
    tiles = tmp_path / "one.tiles"
    tiles.write_text(f"tileset t colors={colors}\ntile 0 0 0 0\n")
    assert main(["solve", str(tiles), *argv]) == 2
    assert_one_error_line(capsys)


def test_evidence_clock_budget_that_does_not_fit_is_a_usage_error(capsys):
    argv = ["evidence", "--max-square", "1", "--max-period", "1", "--budget-ms", NINES]
    assert main(argv) == 2
    assert_one_error_line(capsys)


# --- outputs are overwritten in place ---------------------------------------------

# a command for every flag that names an output file; "OUT" stands for its path
OUTPUT_ARGVS = {
    "compile": ["compile", "spec.subshift", "--kind", "subshift1d", "--out", "OUT"],
    "solve": ["solve", "tiles.txt", "--mode", "torus", "2", "2", "--out", "OUT"],
    "evidence": ["evidence", "--tileset", "tiles.txt", "--max-square", "3",
                 "--max-period", "2", "--out", "OUT"],
    "robinson-export": ["robinson", "export", "--out", "OUT"],
    "macro-out": ["macro", "tiles.txt", "2", "--out", "OUT"],
    "macro-map-out": ["macro", "tiles.txt", "2", "--map-out", "OUT"],
    "render": ["render", "tiles.txt", "torus.tiling", "--format", "ppm", "--out", "OUT"],
}


@pytest.fixture
def output_inputs(tmp_path, monkeypatch, spec_file, tiles_file):
    """Runs the test in `tmp_path`, which holds every input of OUTPUT_ARGVS."""
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "tiles.txt", "--mode", "torus", "2", "2",
                 "--out", "torus.tiling"]) == 0


def run_output(flag, out, capsys):
    """(exit code, stdout, stderr) of the `flag` command writing to `out`."""
    code = main([out if a == "OUT" else a for a in OUTPUT_ARGVS[flag]])
    return (code, *capsys.readouterr())


def fresh_output(flag, tmp_path, capsys):
    assert run_output(flag, "fresh.out", capsys)[0] == 0
    return (tmp_path / "fresh.out").read_bytes()


@pytest.mark.parametrize("flag", OUTPUT_ARGVS)
def test_an_output_over_longer_junk_equals_a_fresh_one(output_inputs, tmp_path, capsys,
                                                        flag):
    fresh = fresh_output(flag, tmp_path, capsys)
    (tmp_path / "old.out").write_bytes(b"#" * (len(fresh) + 4096))
    assert run_output(flag, "old.out", capsys)[0] == 0
    assert (tmp_path / "old.out").read_bytes() == fresh


@pytest.mark.parametrize("flag", OUTPUT_ARGVS)
def test_an_output_to_dev_null_succeeds(output_inputs, capsys, flag):
    assert run_output(flag, os.devnull, capsys)[0] == 0


@pytest.mark.parametrize("flag", OUTPUT_ARGVS)
def test_an_existing_output_keeps_its_inode_and_mode(output_inputs, tmp_path, capsys, flag):
    old = tmp_path / "old.out"
    old.write_text("junk\n")
    old.chmod(0o600)
    before = old.stat()
    assert run_output(flag, "old.out", capsys)[0] == 0
    after = old.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)


@pytest.mark.parametrize("flag", OUTPUT_ARGVS)
def test_a_symlinked_output_writes_through_to_its_target(output_inputs, tmp_path, capsys,
                                                         flag):
    fresh = fresh_output(flag, tmp_path, capsys)
    (tmp_path / "target.out").write_bytes(b"#" * (len(fresh) + 4096))
    (tmp_path / "link.out").symlink_to("target.out")
    assert run_output(flag, "link.out", capsys)[0] == 0
    assert (tmp_path / "link.out").is_symlink()
    assert (tmp_path / "target.out").read_bytes() == fresh


@pytest.mark.parametrize("flag", OUTPUT_ARGVS)
@pytest.mark.parametrize("out,error", [
    ("adir", "[Errno 21] Is a directory: 'adir'"),
    ("missing/x.out", "[Errno 2] No such file or directory: 'missing/x.out'"),
])
def test_an_output_path_that_cannot_be_a_file_is_one_error_line(output_inputs, tmp_path,
                                                                capsys, flag, out, error):
    (tmp_path / "adir").mkdir()
    code, _, err = run_output(flag, out, capsys)
    assert (code, err) == (2, f"error: {error}\n")


def test_no_output_is_opened_with_truncation(output_inputs, tmp_path, monkeypatch, capsys):
    """Each output is opened once, by `os.open` without O_TRUNC; nothing
    opens a path for writing with `open`, which would truncate it."""
    opened = []
    os_open, io_open = os.open, io.open

    def record_os_open(path, flags, *rest, **kw):
        if flags & (os.O_WRONLY | os.O_RDWR):
            opened.append((os.fspath(path), flags))
        return os_open(path, flags, *rest, **kw)

    def record_open(file, mode="r", *rest, **kw):
        if not isinstance(file, int) and set(mode) & set("wax+"):
            opened.append((os.fspath(file), "open " + mode))
        return io_open(file, mode, *rest, **kw)

    for flag in OUTPUT_ARGVS:
        (tmp_path / f"{flag}.out").write_text("junk\n")
    for module, name, wrapper in [(os, "open", record_os_open), (io, "open", record_open),
                                  (builtins, "open", record_open)]:
        monkeypatch.setattr(module, name, wrapper)
    for flag in OUTPUT_ARGVS:
        assert run_output(flag, f"{flag}.out", capsys)[0] == 0
    monkeypatch.undo()
    assert [path for path, _ in opened] == [f"{flag}.out" for flag in OUTPUT_ARGVS]
    for path, flags in opened:
        assert isinstance(flags, int) and not flags & os.O_TRUNC, (path, flags)
