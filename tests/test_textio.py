import pytest

from shiftforge.compilers import TmSpec, sft_to_wang, tm_to_tileset
from shiftforge.core import Grid, SftSpec, make_tileset
from shiftforge.errors import ParseError
from shiftforge.subshift import ExplicitWords, Subshift1dSpec, WordStream
from shiftforge.textio import (parse_sft, parse_subshift, parse_tileset,
                               parse_tiling, parse_tm, parse_window,
                               serialize_compilation, serialize_sft,
                               serialize_subshift, serialize_tileset,
                               serialize_tiling, serialize_tm,
                               serialize_window)


def test_tileset_round_trip_with_decode():
    comp = sft_to_wang(SftSpec(("0", "1"), (Grid.from_rows(["11"]),)))
    text = serialize_compilation(comp)
    ts, decode = parse_tileset(text)
    assert ts.tiles == comp.tileset.tiles
    assert decode == comp.decode
    assert len(ts.colors) == len(comp.tileset.colors)


def test_tileset_round_trip_without_decode():
    ts = make_tileset("plain", [(0, 1, 0, 1)])
    ts2, decode = parse_tileset(serialize_tileset(ts))
    assert decode is None
    assert ts2.tiles == ts.tiles


def test_tileset_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_tileset("tileset x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_tileset("tileset x colors=1\ntile 0 0 0 9\n")
    with pytest.raises(ParseError):
        parse_tileset("tile 0 0 0 0\n")  # before header
    with pytest.raises(ParseError):
        parse_tileset("tileset x colors=1\ntile 0 0 0 0\ndecode 2 a\n")


def test_comments_and_blank_lines_ignored():
    ts, _ = parse_tileset("# banner\n\ntileset t colors=1\n# note\ntile 0 0 0 0\n")
    assert len(ts.tiles) == 1


def test_sft_round_trip():
    spec = SftSpec(("0", "1"),
                   (Grid.from_rows(["11"]), Grid.from_rows(["0", "1"])))
    spec2 = parse_sft(serialize_sft(spec))
    assert spec2 == spec


def test_sft_pattern_rows_are_bottom_up():
    spec = parse_sft("sft alphabet=a,b\nforbid 1 2\na\nb\n")
    p = spec.forbidden[0]
    assert p.cells == (("a",), ("b",))  # first row read = bottom row


def test_sft_parse_errors():
    with pytest.raises(ParseError):
        parse_sft("forbid 1 1\na\n")
    with pytest.raises(ParseError):
        parse_sft("sft alphabet=a\nforbid 2 1\na\n")  # short row
    with pytest.raises(ParseError):
        parse_sft("sft alphabet=a\nforbid 1 2\na\n")  # missing row


def test_subshift_round_trip_explicit():
    spec = Subshift1dSpec(("0", "1"), ExplicitWords(("11", "000")))
    assert parse_subshift(serialize_subshift(spec)) == spec


def test_subshift_stream_round_trip():
    text = "subshift alphabet=a,b\nstream all_words_min_len 2\n"
    spec = parse_subshift(text)
    assert isinstance(spec.source, WordStream)
    assert next(spec.source.generate()) == "aa"
    assert "stream all_words_min_len 2" in serialize_subshift(spec)


def test_subshift_sources_are_exclusive():
    with pytest.raises(ParseError):
        parse_subshift("subshift alphabet=a\nforbid a\nstream all_words_min_len 1\n")
    with pytest.raises(ParseError):
        parse_subshift("subshift alphabet=a\nstream unknown_gen\n")


def test_tm_round_trip():
    tm = TmSpec(("q0", "q1"), "q0", ("0", "1"), "0",
                {("q0", "1"): ("q0", "1", "R"), ("q0", "0"): ("q1", "1", "L")},
                frozenset(["q1"]))
    assert parse_tm(serialize_tm(tm)) == tm


def test_tm_states_count_shorthand_and_inferred_tape():
    tm = parse_tm("tm states=2 start=q0 blank=_\nrule q0 _ -> q1 x R\nhalt q1\n")
    assert tm.states == ("q0", "q1")
    assert tm.tape_alphabet == ("_", "x")


def test_tm_parse_errors():
    with pytest.raises(ParseError):
        parse_tm("rule a 0 -> a 0 R\n")
    with pytest.raises(ParseError):
        parse_tm("tm states=a start=a blank=0\nrule a 0 -> a 0 X\n")
    with pytest.raises(ParseError):
        parse_tm("tm states=a start=a blank=0\nrule a 0 -> a 0 R\nrule a 0 -> a 1 L\n")
    with pytest.raises(ParseError):
        # validation failures surface as parse errors with context
        parse_tm("tm states=a start=b blank=0\n")


def test_window_round_trip_and_errors():
    w = Grid.from_rows(["ab", "ba"])
    assert parse_window(serialize_window(w)) == w
    with pytest.raises(ParseError):
        parse_window("window 2 2\nab\n")
    with pytest.raises(ParseError):
        parse_window("window 2 1\nabc\n")


def test_tiling_round_trip_with_verdict_line():
    t = Grid.from_rows([[0, 1], [2, 3]])
    text = serialize_tiling(t)
    assert text.startswith("SAT\n")
    assert parse_tiling(text) == t
    # bare rows (no verdict) also parse
    assert parse_tiling("0 1\n2 3\n") == t


def test_tiling_parse_errors():
    with pytest.raises(ParseError):
        parse_tiling("SAT\n")
    with pytest.raises(ParseError):
        parse_tiling("0 1\n2\n")


def test_serialization_is_deterministic():
    comp = tm_to_tileset(
        TmSpec(("h",), "h", ("0",), "0", {}, frozenset(["h"])), 3)
    assert serialize_compilation(comp) == serialize_compilation(comp)
