"""1D subshift specifications, forbidden-word checking and the vertical lift.

A 1D subshift is given by an alphabet and a source of forbidden words:
either an explicit finite list or a pull-based stream whose enumeration
can only ever be sampled up to a budget.  Strings are checked with a
failure-function multi-pattern matcher; windows are checked against the
2D patterns a spec was lifted to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import Grid, SftSpec, check_alphabet
from .errors import InvalidInput, InvalidSpec, UnsupportedSpec

DEFAULT_STREAM_BUDGET = 10_000

CLEAN = "CLEAN"
VIOLATION = "VIOLATION"
BUDGET_EXHAUSTED_CLEAN = "BUDGET_EXHAUSTED_CLEAN"


@dataclass(frozen=True)
class ExplicitWords:
    """A finite, duplicate-free forbidden-word list."""

    words: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise InvalidSpec("forbidden words must be distinct")
        for w in self.words:
            if not w:
                raise InvalidSpec("forbidden words must be nonempty")


@dataclass
class WordStream:
    """A pull source of forbidden words.  ``generate`` yields words in the
    stream's own order; a fresh iterator is created per query, so budgeted
    queries are repeatable.  Single consumer at a time."""

    name: str
    generate: Callable[[], Iterator[str]]


@dataclass(frozen=True)
class Subshift1dSpec:
    alphabet: tuple[str, ...]
    source: ExplicitWords | WordStream

    def __post_init__(self):
        check_alphabet(self.alphabet)
        if isinstance(self.source, ExplicitWords):
            letters = set(self.alphabet)
            for w in self.source.words:
                if any(a not in letters for a in w):
                    raise InvalidSpec(f"forbidden word {w!r} uses letters outside alphabet")


def all_words_min_len(alphabet: tuple[str, ...], min_len: int) -> Iterator[str]:
    """All words of length >= min_len in length-lexicographic order."""
    letters = sorted(alphabet)
    queue: deque[str] = deque([""])
    while queue:
        w = queue.popleft()
        if len(w) >= min_len:
            yield w
        for a in letters:
            queue.append(w + a)


STREAM_GENERATORS: dict[str, Callable[[tuple[str, ...], list[str]], WordStream]] = {}


def _register(name):
    def deco(fn):
        STREAM_GENERATORS[name] = fn
        return fn
    return deco


@_register("all_words_min_len")
def _mk_all_words_min_len(alphabet: tuple[str, ...], params: list[str]) -> WordStream:
    if len(params) != 1 or not params[0].isdigit():
        raise InvalidSpec("all_words_min_len takes one integer parameter")
    min_len = int(params[0])
    return WordStream(
        f"all_words_min_len {min_len}",
        lambda: all_words_min_len(alphabet, min_len),
    )


def make_stream(name: str, alphabet: tuple[str, ...], params: list[str]) -> WordStream:
    try:
        factory = STREAM_GENERATORS[name]
    except KeyError:
        raise InvalidSpec(f"unknown stream generator {name!r}") from None
    return factory(alphabet, params)


# --- multi-pattern matching -------------------------------------------------


@dataclass
class _Node:
    children: dict[str, int] = field(default_factory=dict)
    fail: int = 0
    # longest matched word ending here (original string), or None
    hit: str | None = None


@dataclass(frozen=True)
class MatchAutomaton:
    """Failure-function multi-pattern matcher over a fixed word list.

    Words are deduplicated and sorted at build time, so equal word sets
    always produce identical automata.
    """

    words: tuple[str, ...]
    _nodes: tuple[_Node, ...]

    def scan(self, s: str) -> tuple[str, int] | None:
        """First match in s: minimal start position, then minimal length.

        Returns (word, start) or None.
        """
        nodes = self._nodes
        best: tuple[int, int, str] | None = None  # (start, length, word)
        state = 0
        for i, a in enumerate(s):
            while state and a not in nodes[state].children:
                state = nodes[state].fail
            state = nodes[state].children.get(a, 0)
            node = state
            while node:
                w = nodes[node].hit
                if w is not None:
                    cand = (i - len(w) + 1, len(w), w)
                    if best is None or cand < best:
                        best = cand
                node = nodes[node].fail
        if best is None:
            return None
        return best[2], best[0]


def build_matcher(words: list[str] | tuple[str, ...]) -> MatchAutomaton:
    canon = tuple(sorted(set(words)))
    for w in canon:
        if not w:
            raise InvalidSpec("forbidden words must be nonempty")
    nodes = [_Node()]
    for w in canon:
        state = 0
        for a in w:
            nxt = nodes[state].children.get(a)
            if nxt is None:
                nodes.append(_Node())
                nxt = len(nodes) - 1
                nodes[state].children[a] = nxt
            state = nxt
        nodes[state].hit = w
    # breadth-first failure links
    queue: deque[int] = deque()
    for child in nodes[0].children.values():
        nodes[child].fail = 0
        queue.append(child)
    while queue:
        state = queue.popleft()
        for a, child in nodes[state].children.items():
            f = nodes[state].fail
            while f and a not in nodes[f].children:
                f = nodes[f].fail
            nodes[child].fail = nodes[f].children.get(a, 0)
            queue.append(child)
    return MatchAutomaton(canon, tuple(nodes))


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class SequenceVerdict:
    kind: str  # CLEAN / VIOLATION / BUDGET_EXHAUSTED_CLEAN
    word: str | None = None
    position: int | None = None


@dataclass(frozen=True)
class WindowVerdict:
    kind: str  # CLEAN / VIOLATION
    pattern_index: int | None = None
    x: int | None = None
    y: int | None = None


def _check_letters(alphabet: tuple[str, ...], s: str) -> None:
    letters = set(alphabet)
    for a in s:
        if a not in letters:
            raise InvalidInput(f"letter {a!r} outside alphabet")


def check_sequence(
    spec: Subshift1dSpec, s: str, budget: int = DEFAULT_STREAM_BUDGET
) -> SequenceVerdict:
    """Test a finite string against the spec's forbidden words.

    At most ``budget`` words are drawn from the source.  An explicit list
    that is exhausted without a hit gives CLEAN; a stream that hits the
    budget gives the one-sided BUDGET_EXHAUSTED_CLEAN.  A match reports
    the earliest occurrence (then the shortest word there).
    """
    if budget < 1:
        raise InvalidInput("budget must be positive")
    _check_letters(spec.alphabet, s)
    if isinstance(spec.source, ExplicitWords):
        words = list(spec.source.words[:budget])
        exhausted = len(spec.source.words) > budget
    else:
        words = []
        exhausted = False
        it = spec.source.generate()
        for _ in range(budget):
            try:
                words.append(next(it))
            except StopIteration:
                break
        else:
            exhausted = True
    if words:
        hit = build_matcher(words).scan(s)
        if hit is not None:
            return SequenceVerdict(VIOLATION, hit[0], hit[1])
    if exhausted:
        return SequenceVerdict(BUDGET_EXHAUSTED_CLEAN)
    return SequenceVerdict(CLEAN)


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


def check_window(spec: SftSpec, w: Grid) -> WindowVerdict:
    """Scan a window for forbidden-pattern occurrences; on a hit, report
    the least (y, x, pattern_index) triple."""
    letters = set(spec.alphabet)
    for row in w.cells:
        for a in row:
            if a not in letters:
                raise InvalidInput(f"letter {a!r} outside alphabet")
    for y in range(w.height):
        for x in range(w.width):
            for pi, p in enumerate(spec.forbidden):
                if x + p.width > w.width or y + p.height > w.height:
                    continue
                if all(
                    w.cells[y + dy][x + dx] == p.cells[dy][dx]
                    for dy in range(p.height)
                    for dx in range(p.width)
                ):
                    return WindowVerdict(VIOLATION, pi, x, y)
    return WindowVerdict(CLEAN)
