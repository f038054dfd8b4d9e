import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftforge.compilers import TmSpec, sft_to_wang, tm_to_tileset
from shiftforge.core import Grid, SftSpec, make_tileset
from shiftforge.errors import ParseError, ShiftforgeError
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
    assert spec.source == WordStream(2)
    assert next(spec.source.words_upto(spec.alphabet, 2)) == "aa"
    assert serialize_subshift(spec) == text


def _subshift_specs(alphabet):
    words = st.lists(st.text("".join(alphabet), min_size=1, max_size=4),
                     unique=True, max_size=5)
    return st.builds(Subshift1dSpec, st.just(alphabet), st.one_of(
        words.map(lambda ws: ExplicitWords(tuple(ws))),
        st.integers(min_value=1, max_value=10**30).map(WordStream)))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from("01ab"), min_size=1).map(tuple).flatmap(_subshift_specs))
@example(Subshift1dSpec(("0", "1"), WordStream(sys.maxsize + 1)))
def test_subshift_specs_round_trip(spec):
    assert parse_subshift(serialize_subshift(spec)) == spec


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


@pytest.mark.parametrize("first", ["+0", "-0"])
def test_a_first_row_of_one_signed_index_is_a_row_not_a_verdict(first):
    assert parse_tiling(f"{first}\n0\n") == Grid.from_rows([[0], [0]])
    assert parse_tiling(f"SAT\n{first}\n0\n") == Grid.from_rows([[0], [0]])


def test_tiling_parse_errors():
    with pytest.raises(ParseError):
        parse_tiling("SAT\n")
    with pytest.raises(ParseError):
        parse_tiling("0 1\n2\n")


def test_serialization_is_deterministic():
    comp = tm_to_tileset(
        TmSpec(("h",), "h", ("0",), "0", {}, frozenset(["h"])), 3)
    assert serialize_compilation(comp) == serialize_compilation(comp)


def test_decode_lines_name_each_tile_once():
    with pytest.raises(ParseError, match="exactly once"):
        parse_tileset("tileset t colors=1\ntile 0 0 0 0\ndecode 0 a\ndecode 0 b\n")


@pytest.mark.parametrize("parse,text,where", [
    (parse_tileset, "tileset a colors=1\ntileset b colors=1\n",
     "line 2: duplicate tileset header"),
    (parse_sft, "sft alphabet=a\nsft alphabet=b\n", "line 2: duplicate sft header"),
    (parse_subshift, "subshift alphabet=a\nsubshift alphabet=b\n",
     "line 2: duplicate subshift header"),
    (parse_tm, "tm states=a start=a blank=0\ntm states=b start=b blank=0\n",
     "line 2: duplicate tm header"),
    (parse_window, "window 1 1\na\nwindow 1 1\nb\n", "line 3: duplicate window header"),
    (parse_tm, "rule a 0 -> a 0 R\ntm states=a start=a blank=0\n",
     "line 1: rule before tm header"),
    (parse_tm, "tm states=a start=a blank=0\nrule a 0 => a 0 R\n",
     "line 2: expected: rule <state> <read> -> <state'> <write> <L|R>"),
    (parse_tileset, "decode 0 a\ntileset t colors=1\ntile 0 0 0 0\n",
     "line 1: decode before tileset header"),
    (parse_subshift, "subshift alphabet=0,1\nstream all_words_min_len 5\nforbid 11\n",
     "line 3: only one word source allowed"),
    (parse_sft, "sft alphabet=a\nforbid 1 2\nb\n\n",
     "line 2: pattern rows missing at end of file"),
    (parse_sft, "sft alphabet=a\nforbid 2 1\n\na\n", "line 4: pattern row must have 2 letters"),
    (parse_window, "# banner\nwindow 2 1\nabc\n", "line 3: window row must have 2 letters"),
    (parse_tm, "tm states=q0 start=q0 blank=0\ntape 0,1\ntape 0\n", "line 3: duplicate tape line"),
    (parse_tileset, "tileset t colors=1\ntile 0 0 0 0\ntile 0 0 0 0\n", "line 3: duplicate tile"),
])
def test_directive_rules_reject_misread_inputs(parse, text, where):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == where


# --- every format round-trips whatever it accepts ------------------------------

INTS = st.sampled_from(["0", "1", "2", "1", "2", "-1", "x"])
NAMES = st.sampled_from(["0", "1", "q0", "q1", "q0", "a", "#", "0,1", "->"])
JUNK = st.lists(st.one_of(INTS, NAMES, st.sampled_from(["tile", "forbid", "rule"])),
                max_size=5).map(lambda toks: [" ".join(toks)])


def line(strategy):
    return strategy.map(lambda text: [text])


@st.composite
def grid(draw, keyword):
    """A `<keyword> <w> <h>` line and its rows: usually h rows of w
    letters, sometimes one row or one letter more or less."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    off = st.sampled_from([0, 0, 0, -1, 1])
    width, height = w + draw(off), h + draw(off)
    row = st.text("01a# ", min_size=width, max_size=width)
    return [f"{keyword} {w} {h}", *draw(st.lists(row, min_size=height, max_size=height))]


@st.composite
def texts(draw, header, block):
    """Usually one header line, usually first, and blocks of directive
    lines, about a quarter of them junk."""
    blocks = draw(st.lists(st.one_of(block, block, block, JUNK), max_size=6))
    heads = [[draw(header)] for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2])))]
    at = draw(st.sampled_from([0, 0, 0, len(blocks)]))
    return "\n".join(text for b in blocks[:at] + heads + blocks[at:] for text in b) + "\n"


ALPHABETS = st.sampled_from(["0,1", "0,1", "a", "0,1,a", "", "0,,1", "#,a", "ab"])
FORMATS = {
    "tileset": (parse_tileset, lambda v: serialize_tileset(*v), texts(
        st.builds("tileset {} colors={}".format, NAMES, st.sampled_from(["3", "3", "1", "x"])),
        line(st.one_of(st.builds("tile {} {} {} {}".format, INTS, INTS, INTS, INTS),
                       st.builds("decode {} {}".format, INTS, NAMES))))),
    "sft": (parse_sft, serialize_sft, texts(
        ALPHABETS.map("sft alphabet={}".format), grid("forbid"))),
    "subshift": (parse_subshift, serialize_subshift, texts(
        ALPHABETS.map("subshift alphabet={}".format),
        line(st.one_of(st.sampled_from(["0", "1", "11", "a", "00 1"]).map("forbid {}".format),
                       st.builds("stream {} {}".format,
                                 st.sampled_from(["all_words_min_len", "other"]), INTS))))),
    "tm": (parse_tm, serialize_tm, texts(
        st.builds("tm states={} start={} blank={}".format,
                  st.sampled_from(["q0,q1", "2", "q0", "a,0"]),
                  st.sampled_from(["q0", "q0", "q1", "a"]), NAMES),
        line(st.one_of(st.sampled_from(["0", "0,1", "0,#", "1,a"]).map("tape {}".format),
                       st.builds("rule {} {} -> {} {} {}".format, NAMES, NAMES, NAMES, NAMES,
                                 st.sampled_from(["L", "R", "X"])),
                       NAMES.map("halt {}".format))))),
    # the header is the grid's own first line
    "window": (parse_window, serialize_window, st.lists(
        st.one_of(grid("window"), grid("window"), JUNK), max_size=2).map(
        lambda blocks: "\n".join(text for b in blocks for text in b) + "\n")),
}


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(FORMATS)).flatmap(
    lambda kind: st.tuples(st.just(kind), FORMATS[kind][2])))
# tape lines are comma-separated, so an inferred tape symbol may not hold a comma
@example(("tm", "tm states=q0,q1 start=q0 blank=0\nrule q0 0,1 -> q1 0 R\n"))
@example(("tm", "tm states=q0 start=q0 blank=0,1\n"))
def test_formats_reject_or_round_trip(kind_text):
    """Any text either raises a ShiftforgeError or parses to a value that
    survives serializing and parsing again."""
    kind, text = kind_text
    parse, serialize, _ = FORMATS[kind]
    try:
        v = parse(text)
    except ShiftforgeError:
        return
    assert parse(serialize(v)) == v
