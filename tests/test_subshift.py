import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_first_match, naive_words
from shiftforge.errors import InvalidInput, InvalidSpec, ParseError, UnsupportedSpec
from shiftforge.subshift import (BUDGET_EXHAUSTED_CLEAN, CLEAN, VIOLATION,
                                 ExplicitWords, Subshift1dSpec, WordStream,
                                 check_sequence, lift_1d)
from shiftforge.textio import parse_subshift

words_strategy = st.lists(st.text(alphabet="ab", min_size=1, max_size=4),
                          min_size=0, max_size=6)
text_strategy = st.text(alphabet="ab", max_size=30)


def first_match(words, s):
    """check_sequence's hit as (word, start), or None; `words` may repeat,
    so they reach it as a deduplicated list."""
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(tuple(dict.fromkeys(words))))
    v = check_sequence(spec, s)
    return None if v.kind == CLEAN else (v.match, v.x)


@settings(max_examples=300, deadline=None)
@given(words=words_strategy, s=text_strategy)
def test_matcher_agrees_with_naive_scan(words, s):
    assert first_match(words, s) == naive_first_match(words, s)


def test_matcher_tie_break_earliest_then_shortest():
    # both "ab" and "abb" end matches around position 1; earliest start wins,
    # then the shorter word
    assert first_match(["ab", "abb"], "abb") == ("ab", 0)
    assert first_match(["b", "ab"], "ab") == ("ab", 0)


def test_stream_rejects_empty_word():
    with pytest.raises(InvalidSpec, match="^forbidden words must be nonempty$"):
        WordStream(0)


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
    spec = Subshift1dSpec(("a", "b"), WordStream(2))
    # infinite stream: a clean string can only be budget-limited clean
    assert check_sequence(spec, "a", budget=10).kind == BUDGET_EXHAUSTED_CLEAN
    assert check_sequence(spec, "ab", budget=10).kind == VIOLATION


@settings(max_examples=100, deadline=None)
@given(words=words_strategy, s=text_strategy)
@example(words=["aa", "bb"], s="ab")
def test_word_sources_agree_at_every_budget(words, s):
    words = tuple(dict.fromkeys(words))
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(words))
    for budget in range(1, len(words) + 2):
        v = check_sequence(spec, s, budget)
        hit = naive_first_match(words[:budget], s)
        if hit is not None:
            assert (v.kind, v.match, v.x) == (VIOLATION, *hit)
        elif budget >= len(words):  # the source is finished, not cut off
            assert v.kind == CLEAN
        else:
            assert v.kind == BUDGET_EXHAUSTED_CLEAN


@settings(max_examples=100, deadline=None)
@given(letters=st.sets(st.sampled_from("abc"), min_size=1),
       min_len=st.integers(1, 4), s=st.text(alphabet="abc", max_size=5))
@example(letters={"a", "b"}, min_len=2, s="aba")
def test_stream_verdicts_agree_with_naive_words_at_every_budget(letters, min_len, s):
    alphabet = tuple(letters | set(s))
    words = naive_words(alphabet, min_len, len(s))
    spec = Subshift1dSpec(alphabet, WordStream(min_len))
    # a stream always has more words, so a clean answer is budget-limited
    for budget in range(1, len(words) + 2):
        v = check_sequence(spec, s, budget)
        hit = naive_first_match(words[:budget], s)
        if hit is None:
            assert v.kind == BUDGET_EXHAUSTED_CLEAN
        else:
            assert (v.kind, v.match, v.x) == (VIOLATION, *hit)


def test_check_sequence_stream_repeatable():
    spec = Subshift1dSpec(("a", "b"), WordStream(1))
    first = check_sequence(spec, "ba", budget=3)
    second = check_sequence(spec, "ba", budget=3)
    assert first == second


def test_check_sequence_holds_only_words_that_fit_in_the_string():
    # 400 stream words of 10,000 letters are 4 MB; none can occur in a
    # 3-letter string, so none is drawn, not even one word's letter tuple
    spec = Subshift1dSpec(("0", "1"), WordStream(10000))
    tracemalloc.start()
    try:
        verdict = check_sequence(spec, "010", budget=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == BUDGET_EXHAUSTED_CLEAN
    assert peak < 10_000


def test_all_words_min_len_order():
    words = WordStream(1).words_upto(("b", "a"), 2)
    assert list(words) == ["a", "b", "aa", "ab", "ba", "bb"]
    with pytest.raises(InvalidSpec, match="alphabet must be nonempty"):
        Subshift1dSpec((), WordStream(1))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from("01abc"), min_size=1).map(tuple),
       st.integers(1, 3), st.integers(0, 3))
def test_all_words_min_len_matches_naive_enumeration(alphabet, min_len, extra):
    max_len = min_len + extra
    assert (list(WordStream(min_len).words_upto(alphabet, max_len))
            == naive_words(alphabet, min_len, max_len))


def test_stream_lines_name_the_one_generator():
    spec = parse_subshift("subshift alphabet=a\nstream all_words_min_len 2\n")
    assert spec.source == WordStream(2)
    for line in ("stream nope 2", "stream all_words_min_len x"):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_subshift(f"subshift alphabet=a\n{line}\n")


def test_lift_rejects_streams():
    with pytest.raises(UnsupportedSpec):
        lift_1d(Subshift1dSpec(("a", "b"), WordStream(2)))


def test_lift_pattern_inventory():
    spec = Subshift1dSpec(("a", "b"), ExplicitWords(("ba",)))
    lifted = lift_1d(spec)
    # 2 unequal vertical pairs + 1 word row
    assert len(lifted.forbidden) == 3
    shapes = {(p.width, p.height) for p in lifted.forbidden}
    assert shapes == {(1, 2), (2, 1)}
