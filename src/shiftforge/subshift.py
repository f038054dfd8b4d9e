"""1D subshift specifications, forbidden-word checking and the vertical lift.

A 1D subshift is given by an alphabet and a source of forbidden words:
either an explicit finite list or a pull-based stream whose enumeration
can only ever be sampled up to a budget.  A string is checked with
`core.Patterns`, each word a one-row pattern.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import count, islice, product
from typing import Callable, Iterator, NamedTuple

from .core import Grid, Patterns, SftSpec, check_alphabet
from .errors import InvalidInput, InvalidSpec, UnsupportedSpec

DEFAULT_STREAM_BUDGET = 10_000

CLEAN = "CLEAN"
VIOLATION = "VIOLATION"
BUDGET_EXHAUSTED_CLEAN = "BUDGET_EXHAUSTED_CLEAN"


class _WordsFields(NamedTuple):
    words: tuple[str, ...]


class ExplicitWords(_WordsFields):
    """A finite, duplicate-free forbidden-word list."""

    __slots__ = ()

    def __new__(cls, words):
        if len(set(words)) != len(words):
            raise InvalidSpec("forbidden words must be distinct")
        for w in words:
            if not w:
                raise InvalidSpec("forbidden words must be nonempty")
        return super().__new__(cls, words)

    def generate(self) -> Iterator[str]:
        """The words in list order, drawn like a `WordStream`'s."""
        return iter(self.words)


@dataclass
class WordStream:
    """A pull source of forbidden words.  ``generate`` yields words in the
    stream's own order; a fresh iterator is created per query, so budgeted
    queries are repeatable.  Single consumer at a time.  Streams compare
    by name, which together with the spec's alphabet fixes the words."""

    name: str
    generate: Callable[[], Iterator[str]] = field(compare=False)


class _Subshift1dFields(NamedTuple):
    alphabet: tuple[str, ...]
    source: ExplicitWords | WordStream


class Subshift1dSpec(_Subshift1dFields):
    __slots__ = ()

    def __new__(cls, alphabet, source):
        check_alphabet(alphabet)
        if isinstance(source, ExplicitWords):
            letters = set(alphabet)
            for w in source.words:
                if any(a not in letters for a in w):
                    raise InvalidSpec(f"forbidden word {w!r} uses letters outside alphabet")
        return super().__new__(cls, alphabet, source)


def all_words_min_len(alphabet: tuple[str, ...], min_len: int) -> Iterator[str]:
    """All words of length >= min_len in length-lexicographic order."""
    check_alphabet(alphabet)  # with no letters, the loop over lengths would never yield
    letters = sorted(alphabet)
    for n in count(min_len):
        for w in product(letters, repeat=n):
            yield "".join(w)


def make_stream(name: str, alphabet: tuple[str, ...], params: list[str]) -> WordStream:
    if name != "all_words_min_len":
        raise InvalidSpec(f"unknown stream generator {name!r}")
    if len(params) != 1 or not params[0].isdecimal():
        raise InvalidSpec("all_words_min_len takes one integer parameter")
    min_len = int(params[0])
    return WordStream(
        f"all_words_min_len {min_len}",
        lambda: all_words_min_len(alphabet, min_len),
    )


# --- verdicts ----------------------------------------------------------------


class Verdict(NamedTuple):
    """A string's check; a violation names its match, the forbidden word,
    and the position x where it starts."""

    kind: str  # CLEAN / VIOLATION / BUDGET_EXHAUSTED_CLEAN
    match: str | None = None
    x: int | None = None


def check_sequence(
    spec: Subshift1dSpec, s: str, budget: int = DEFAULT_STREAM_BUDGET
) -> Verdict:
    """Test a finite string against the spec's forbidden words.

    At most ``budget`` words are checked.  A source that has no more
    words gives CLEAN without a hit; one that has more gives the
    one-sided BUDGET_EXHAUSTED_CLEAN.  A match reports the earliest
    occurrence (then the shortest word there).
    """
    if budget < 1:
        raise InvalidInput("budget must be positive")
    if budget > sys.maxsize:
        raise InvalidInput("budget must be at most sys.maxsize")
    letters = set(spec.alphabet)
    for a in s:
        if a not in letters:
            raise InvalidInput(f"letter {a!r} outside alphabet")
    source = spec.source.generate()
    words = []  # only words that fit in s can occur in it
    for w in islice(source, budget):
        if not w:
            raise InvalidSpec("forbidden words must be nonempty")
        if len(w) <= len(s):
            words.append(w)
    # shortest first, so the least index at a start is the shortest word there
    words.sort(key=len)
    hit = Patterns([(w,) for w in words]).first((s,))
    if hit is not None:
        _, x, i = hit
        return Verdict(VIOLATION, words[i], x)
    # one word past the budget tells a cut-off source from a finished one
    if next(source, None) is not None:
        return Verdict(BUDGET_EXHAUSTED_CLEAN)
    return Verdict(CLEAN)


def lift_1d(spec: Subshift1dSpec) -> SftSpec:
    """Lift a finite-type 1D subshift to the 2D spec whose configurations
    repeat each letter vertically: forbidden patterns are every unequal
    vertical pair plus every forbidden word laid out horizontally."""
    if not isinstance(spec.source, ExplicitWords):
        raise UnsupportedSpec("only explicit finite word lists can be lifted")
    patterns: list[Grid] = []
    for lower in spec.alphabet:
        for upper in spec.alphabet:
            if lower != upper:
                patterns.append(Grid.from_rows([lower, upper]))
    for w in sorted(spec.source.words):
        patterns.append(Grid.from_rows([w]))
    return SftSpec(spec.alphabet, tuple(patterns))
