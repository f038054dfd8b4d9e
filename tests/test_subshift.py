import itertools
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_first_match, naive_words
from shiftforge.errors import InvalidInput, InvalidSpec, UnsupportedSpec
from shiftforge.subshift import (BUDGET_EXHAUSTED_CLEAN, CLEAN, VIOLATION,
                                 ExplicitWords, Subshift1dSpec, WordStream,
                                 all_words_min_len, check_sequence, lift_1d,
                                 make_stream)

words_strategy = st.lists(st.text(alphabet="ab", min_size=1, max_size=4),
                          min_size=0, max_size=6)
text_strategy = st.text(alphabet="ab", max_size=30)


def first_match(words, s):
    """check_sequence's hit as (word, start), or None; `words` may repeat,
    so they reach it both as a stream and as a deduplicated list."""
    got = []
    for source in (WordStream("words", lambda: iter(words)),
                   ExplicitWords(tuple(dict.fromkeys(words)))):
        v = check_sequence(Subshift1dSpec(("a", "b"), source), s)
        got.append(None if v.kind == CLEAN else (v.match, v.x))
    assert got[0] == got[1]
    return got[0]


@settings(max_examples=300, deadline=None)
@given(words=words_strategy, s=text_strategy)
def test_matcher_agrees_with_naive_scan(words, s):
    assert first_match(words, s) == naive_first_match(words, s)


def test_matcher_tie_break_earliest_then_shortest():
    # both "ab" and "abb" end matches around position 1; earliest start wins,
    # then the shorter word
    assert first_match(["ab", "abb"], "abb") == ("ab", 0)
    assert first_match(["b", "ab"], "ab") == ("ab", 0)


def test_matcher_rejects_empty_word():
    spec = Subshift1dSpec(("a",), WordStream("empty", lambda: iter(["a", ""])))
    with pytest.raises(InvalidSpec, match="forbidden words must be nonempty"):
        check_sequence(spec, "a")


def test_explicit_words_must_be_distinct_and_nonempty():
    with pytest.raises(InvalidSpec):
        ExplicitWords(("a", "a"))
    with pytest.raises(InvalidSpec):
        ExplicitWords(("",))


def test_spec_rejects_words_outside_alphabet():
    with pytest.raises(InvalidSpec):
        Subshift1dSpec(("a",), ExplicitWords(("ab",)))


def test_check_sequence_explicit_clean_and_violation():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("bb",)))
    assert check_sequence(spec, "ababab").kind == CLEAN
    v = check_sequence(spec, "abba")
    assert (v.kind, v.match, v.x) == (VIOLATION, "bb", 1)


def test_check_sequence_rejects_foreign_letters():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("bb",)))
    with pytest.raises(InvalidInput):
        check_sequence(spec, "abc")


def test_check_sequence_explicit_budget_one_sided():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("aa", "bb", "ab")))
    # budget smaller than the list: clean only up to the drawn words
    assert check_sequence(spec, "a", budget=2).kind == BUDGET_EXHAUSTED_CLEAN
    # a hit within the budget is still reported
    assert check_sequence(spec, "aa", budget=2).kind == VIOLATION


def test_check_sequence_budget_fits_in_sys_maxsize():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("bb",)))
    assert check_sequence(spec, "ab", budget=sys.maxsize).kind == CLEAN
    with pytest.raises(InvalidInput, match="budget must be at most sys.maxsize"):
        check_sequence(spec, "ab", budget=sys.maxsize + 1)


def test_check_sequence_stream_budget():
    stream = WordStream("all>=2", lambda: all_words_min_len(("a", "b"), 2))
    spec = Subshift1dSpec(("a", "b"), stream)
    # infinite stream: a clean string can only be budget-limited clean
    assert check_sequence(spec, "a", budget=10).kind == BUDGET_EXHAUSTED_CLEAN
    assert check_sequence(spec, "ab", budget=10).kind == VIOLATION


@settings(max_examples=100, deadline=None)
@given(words=words_strategy, s=text_strategy)
@example(words=["aa", "bb"], s="ab")
def test_word_sources_agree_at_every_budget(words, s):
    words = tuple(dict.fromkeys(words))
    for budget in range(1, len(words) + 2):
        verdicts = {check_sequence(Subshift1dSpec(("a", "b"), source), s, budget)
                    for source in (WordStream("words", lambda: iter(words)),
                                   ExplicitWords(words))}
        assert len(verdicts) == 1
        if budget >= len(words):  # the source is finished, not cut off
            assert verdicts.pop().kind != BUDGET_EXHAUSTED_CLEAN


def test_check_sequence_stream_repeatable():
    stream = WordStream("all>=1", lambda: all_words_min_len(("a", "b"), 1))
    spec = Subshift1dSpec(("a", "b"), stream)
    first = check_sequence(spec, "ba", budget=3)
    second = check_sequence(spec, "ba", budget=3)
    assert first == second


def test_check_sequence_holds_only_words_that_fit_in_the_string():
    # 400 stream words of 10,000 letters are 4 MB; none can occur in a
    # 3-letter string, so none is kept, and the peak is about one word's
    # letter tuple
    spec = Subshift1dSpec(("0", "1"),
                          make_stream("all_words_min_len", ("0", "1"), ["10000"]))
    tracemalloc.start()
    try:
        verdict = check_sequence(spec, "010", budget=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == BUDGET_EXHAUSTED_CLEAN
    assert peak < 1_500_000


def test_all_words_min_len_order():
    it = all_words_min_len(("b", "a"), 1)
    assert [next(it) for _ in range(6)] == ["a", "b", "aa", "ab", "ba", "bb"]
    with pytest.raises(InvalidSpec, match="alphabet must be nonempty"):
        next(all_words_min_len((), 0))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from("01abc"), min_size=1).map(tuple),
       st.integers(0, 3), st.integers(0, 3))
def test_all_words_min_len_matches_naive_enumeration(alphabet, min_len, extra):
    max_len = min_len + extra
    want = naive_words(alphabet, min_len, max_len)
    it = all_words_min_len(alphabet, min_len)
    assert list(itertools.islice(it, len(want))) == want
    # the stream goes on with the least longer word
    assert next(it) == min(alphabet) * (max_len + 1)


def test_make_stream_registry():
    s = make_stream("all_words_min_len", ("a",), ["2"])
    assert next(s.generate()) == "aa"
    with pytest.raises(InvalidSpec):
        make_stream("nope", ("a",), [])
    with pytest.raises(InvalidSpec):
        make_stream("all_words_min_len", ("a",), ["x"])


def test_lift_rejects_streams():
    stream = WordStream("all>=2", lambda: all_words_min_len(("a", "b"), 2))
    with pytest.raises(UnsupportedSpec):
        lift_1d(Subshift1dSpec(("a", "b"), stream))


def test_lift_pattern_inventory():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("ba",)))
    lifted = lift_1d(spec)
    # 2 unequal vertical pairs + 1 word row
    assert len(lifted.forbidden) == 3
    shapes = {(p.width, p.height) for p in lifted.forbidden}
    assert shapes == {(1, 2), (2, 1)}
