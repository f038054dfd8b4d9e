"""1D subshift specifications, forbidden-word checking and the vertical lift.

A 1D subshift is given by an alphabet and a source of forbidden words:
either an explicit finite list or the stream of every word of at least
some length, which can only ever be sampled up to a budget.  A string is
checked with `core.Patterns`, each word a one-row pattern.
"""

from __future__ import annotations

import sys
from itertools import islice, product
from typing import Iterator, NamedTuple

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


class _StreamFields(NamedTuple):
    min_len: int


class WordStream(_StreamFields):
    """The unbounded stream of every word of at least `min_len` letters
    over the spec's alphabet, shortest first and each length in sorted
    letter order.  It can only ever be sampled up to a budget."""

    __slots__ = ()

    def __new__(cls, min_len):
        if min_len < 1:
            raise InvalidSpec("forbidden words must be nonempty")
        return super().__new__(cls, min_len)

    def words_upto(self, alphabet: tuple[str, ...], n: int) -> Iterator[str]:
        """The stream's words of at most `n` letters, in stream order."""
        letters = sorted(alphabet)
        for k in range(self.min_len, n + 1):
            for w in product(letters, repeat=k):
                yield "".join(w)


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
    source = spec.source
    # only words that fit in s can occur in it
    if isinstance(source, ExplicitWords):
        words = [w for w in source.words[:budget] if len(w) <= len(s)]
        more = len(source.words) > budget
    else:
        words = list(islice(source.words_upto(spec.alphabet, len(s)), budget))
        more = True
    # shortest first, so the least index at a start is the shortest word there
    words.sort(key=len)
    hit = Patterns([(w,) for w in words]).first((s,))
    if hit is not None:
        _, x, i = hit
        return Verdict(VIOLATION, words[i], x)
    return Verdict(BUDGET_EXHAUSTED_CLEAN if more else CLEAN)


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
