import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import legal_torus_configs, tm_run, torus_config_legal
from shiftforge.compilers import (TileCompilation, TmSpec, legal_blocks, sft_to_wang,
                                  tm_initial_boundary, tm_to_tileset)
from shiftforge.core import Grid, Patterns, SftSpec
from shiftforge.errors import InvalidInput, InvalidSpec
from shiftforge.solve import SAT, UNSAT, count_rectangle, enumerate_tilings, solve_rectangle
from shiftforge.subshift import ExplicitWords, Subshift1dSpec, lift_1d
from shiftforge.textio import serialize_compilation

GOLDEN_FREE = SftSpec(("0", "1"), ())


def brute_legal_blocks(spec, kb):
    out = []
    for flat in itertools.product(spec.alphabet, repeat=kb * kb):
        block = tuple(flat[y * kb:(y + 1) * kb] for y in range(kb))
        if not any(all(block[y0 + dy][x0 + dx] == p.cells[dy][dx]
                       for dy in range(p.height) for dx in range(p.width))
                   for p in spec.forbidden
                   for y0 in range(kb - p.height + 1) for x0 in range(kb - p.width + 1)):
            out.append(block)
    return out


def test_singleton_alphabet_gives_one_tile_all_sides_equal():
    comp = sft_to_wang(SftSpec(("a",), ()))
    assert len(comp.tileset.tiles) == 1
    t = comp.tileset.tiles[0]
    assert t.north == t.east == t.south == t.west
    assert comp.decode == ("a",)


def test_lifted_golden_word_spec_tile_count_matches_block_oracle():
    # lift of the binary spec forbidding "11": tiles = legal 2x2 blocks
    spec = lift_1d(Subshift1dSpec(("0", "1"), ExplicitWords(("11",))))
    comp = sft_to_wang(spec)
    oracle = brute_legal_blocks(spec, 2)
    assert len(comp.tileset.tiles) == len(oracle) == 3


def random_pattern(rng, alphabet, w, h):
    return Grid(w, h, tuple(
        tuple(rng.choice(alphabet) for _ in range(w)) for _ in range(h)))


def test_legal_blocks_matches_brute_force():
    # alphabets of 1-3 letters, patterns up to 3x3, every block size from
    # the spec's window up to 3, each also with one pattern of the full
    # block size (whose only placement is the whole block)
    rng = random.Random(2)
    for i in range(12):
        a = tuple("abc"[: 1 + i % 3])
        pats = tuple(random_pattern(rng, a, rng.randint(1, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3)))
        spec = SftSpec(a, pats)
        for kb in range(spec.window, 4):
            full = SftSpec(a, pats + (random_pattern(rng, a, kb, kb),))
            for s in (spec, full):
                assert legal_blocks(s, kb) == brute_legal_blocks(s, kb)


def test_legal_blocks_matches_brute_force_where_tails_repeat():
    # block sizes up to H + 2 for patterns at most H = 2 high, so tails
    # shorter than H - 1 and repeated tails both occur; with H = 1 every
    # tail is empty
    rng = random.Random(7)
    for i in range(8):
        flat = i % 2 == 0
        a = ("a", "b", "c")[: 2 + i % 4 // 2] if flat else ("a", "b")
        pats = tuple(random_pattern(rng, a, rng.randint(2, 3), 1 if flat else rng.randint(1, 2))
                     for _ in range(rng.randint(1, 2)))
        if not flat:
            pats += (random_pattern(rng, a, rng.randint(1, 2), 2),)
        spec = SftSpec(a, pats)
        height = max(p.height for p in pats)
        for kb in range(spec.window, min(height + 2, 3 if len(a) == 3 else 4) + 1):
            assert legal_blocks(spec, kb) == brute_legal_blocks(spec, kb)


@pytest.mark.parametrize("alphabet, words, k", [
    (("0", "1"), ("11111", "101"), 5),
    (("0", "1", "2"), ("0120",), 4),
])
def test_legal_blocks_scans_each_tail_once(monkeypatch, alphabet, words, k):
    # |A|^k scans find the L rows legal alone; then each distinct tail, at
    # most one per legal row on a lift, scans those L rows once
    spec = lift_1d(Subshift1dSpec(alphabet, ExplicitWords(words)))
    calls = [0]
    first = Patterns.first

    def counted(self, rows, top=0):
        calls[0] += 1
        return first(self, rows, top)

    monkeypatch.setattr(Patterns, "first", counted)
    blocks = legal_blocks(spec, k)
    alone = [w for w in itertools.product(alphabet, repeat=k)
             if not any(f in "".join(w) for f in words)]
    assert blocks == [(w,) * k for w in alone]
    assert calls[0] <= len(alphabet) ** k + len(alone) ** 2


def test_binary_k5_lift_blocks_are_constant_columns_of_legal_words():
    for seed in range(3):
        rng = random.Random(seed)
        short = "".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
        words = ("11111", short)
        spec = lift_1d(Subshift1dSpec(("0", "1"), ExplicitWords(words)))
        assert spec.window == 5
        legal = [w for w in map("".join, itertools.product("01", repeat=5))
                 if not any(f in w for f in words)]
        assert legal_blocks(spec, 5) == [(tuple(w),) * 5 for w in legal]


def test_decode_is_bottom_left_letter():
    spec = SftSpec(("0", "1"), (Grid.from_rows(["11"]),))
    comp = sft_to_wang(spec)
    for i, role in enumerate(comp.tile_roles):
        rows = role.removeprefix("block ").split("|")
        assert comp.decode[i] == rows[0][0]


def d_image_of_tori(comp, p, q):
    sols, complete = enumerate_tilings(comp.tileset, p, q, wrap=True)
    assert complete
    return {
        tuple(tuple(comp.decode[i] for i in row) for row in t.cells)
        for t in sols
    }


def test_torus_correspondence_on_golden_spec():
    spec = lift_1d(Subshift1dSpec(("0", "1"), ExplicitWords(("11",))))
    comp = sft_to_wang(spec)
    for p, q in [(2, 2), (3, 2), (4, 4)]:
        assert d_image_of_tori(comp, p, q) == legal_torus_configs(spec, p, q)


def test_torus_correspondence_free_binary_shift():
    comp = sft_to_wang(GOLDEN_FREE)
    got = d_image_of_tori(comp, 2, 2)
    assert len(got) == 16  # every configuration legal
    for grid in got:
        assert torus_config_legal(GOLDEN_FREE, grid, 2, 2)


# --- Turing machines ----------------------------------------------------------


HALT_NOW = TmSpec(("h",), "h", ("0",), "0", {}, frozenset(["h"]))

INCREMENTER = TmSpec(
    ("q0", "q1"),
    "q0",
    ("0", "1"),
    "0",
    {("q0", "1"): ("q0", "1", "R"), ("q0", "0"): ("q1", "1", "L")},
    frozenset(["q1"]),
)


def test_tm_spec_invariants():
    with pytest.raises(InvalidSpec):
        TmSpec(("a", "a"), "a", ("0",), "0", {}, frozenset())
    with pytest.raises(InvalidSpec):
        TmSpec(("a",), "b", ("0",), "0", {}, frozenset())
    with pytest.raises(InvalidSpec):
        TmSpec(("a",), "a", ("0",), "1", {}, frozenset())
    with pytest.raises(InvalidSpec):
        TmSpec(("a",), "a", ("0",), "0",
               {("a", "0"): ("a", "0", "R")}, frozenset(["a"]))
    with pytest.raises(InvalidSpec, match="move must be L or R, got 'X'"):
        TmSpec(("a",), "a", ("0",), "0", {("a", "0"): ("a", "0", "X")}, frozenset())


def test_tape_width_must_be_positive():
    with pytest.raises(InvalidInput):
        tm_to_tileset(HALT_NOW, 0)


def run_and_check(tm, w, n, height, head=0):
    """Solve the forced-bottom-row rectangle and compare each row with the
    reference simulator."""
    comp = tm_to_tileset(tm, n)
    boundary = tm_initial_boundary(tm, comp, w, n, height, head=head)
    configs = tm_run(tm, w, n, head=head)
    r = solve_rectangle(comp.tileset, n, height, boundary=boundary)
    return comp, boundary, configs, r


def test_immediate_halt_machine():
    comp, boundary, configs, r = run_and_check(HALT_NOW, "", 3, 1)
    assert r.status == SAT
    assert tuple(comp.decode[i] for i in r.tiling.cells[0]) == configs[0] == ("h.0", "0", "0")
    # a halted head admits no row above it
    _, _, _, r2 = run_and_check(HALT_NOW, "", 3, 2)
    assert r2.status == UNSAT


def test_incrementer_rows_decode_to_simulator_configs():
    # q0 scans right over 1s, writes 1 on the first 0, halts moving left:
    # 3 configurations on input "1", then the halt row blocks growth
    comp, boundary, configs, r = run_and_check(INCREMENTER, "1", 4, 3)
    assert r.status == SAT
    assert len(configs) == 3
    assert [tuple(comp.decode[i] for i in row) for row in r.tiling.cells] == configs
    c = count_rectangle(comp.tileset, 4, 3, boundary=boundary)
    assert c.count == 1
    _, _, _, r4 = run_and_check(INCREMENTER, "1", 4, 4)
    assert r4.status == UNSAT


def counter(decrement, mirrored):
    """A binary counter between two `#` markers: from the outer marker it
    walks to the far one, adds (or subtracts) one with the carry running
    back, walks home and repeats, halting when the carry reaches the
    marker.  Mirrored machines keep the least significant bit on the left."""
    fwd, back = ("L", "R") if mirrored else ("R", "L")
    carry, stop = ("0", "1") if decrement else ("1", "0")
    rules = {
        ("s", "#"): ("r", "#", fwd),
        ("r", "0"): ("r", "0", fwd), ("r", "1"): ("r", "1", fwd),
        ("r", "#"): ("i", "#", back),
        ("i", carry): ("i", stop, back), ("i", stop): ("l", carry, back),
        ("i", "#"): ("H", "#", fwd),
        ("l", "0"): ("l", "0", back), ("l", "1"): ("l", "1", back),
        ("l", "#"): ("r", "#", fwd),
    }
    return TmSpec(("s", "r", "i", "l", "H"), "s", ("0", "1", "#"), "0", rules,
                  frozenset(["H"]))


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
@pytest.mark.parametrize("decrement", [False, True], ids=["inc", "dec"])
@pytest.mark.parametrize("bits", [4, 5])
def test_long_counter_diagrams_decode_to_simulator_configs(bits, decrement, mirrored):
    # counting through every value takes 162 rows at 4 bits and 386 at 5:
    # diagrams where the initial propagation narrows cells again after
    # their revision
    digits = ("1" if decrement else "0") * bits
    tape = "#" + digits + "#"
    n = len(tape)
    head = n - 1 if mirrored else 0
    tm = counter(decrement, mirrored)
    configs = tm_run(tm, tape, n, head=head)
    height = len(configs)
    assert height > 150
    comp, boundary, _, r = run_and_check(tm, tape, n, height, head=head)
    assert r.status == SAT
    assert [tuple(comp.decode[i] for i in row) for row in r.tiling.cells] == configs
    c = count_rectangle(comp.tileset, n, height, boundary=boundary)
    assert (c.status, c.count) == ("COUNT", 1)
    assert run_and_check(tm, tape, n, height + 1, head=head)[3].status == UNSAT


@st.composite
def tm_starts(draw):
    """(tm, w, n, head): a machine with at most 3 states and 3 symbols,
    any of its states halting and any of its rules defined, on a 1- to
    6-cell tape with a random input at a random offset and a random head."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    symbols = tuple("01#"[:draw(st.integers(1, 3))])
    halting = frozenset(draw(st.sets(st.sampled_from(states))))
    keys = [(q, a) for q in states if q not in halting for a in symbols]
    rule = st.tuples(st.sampled_from(states), st.sampled_from(symbols), st.sampled_from("LR"))
    transitions = draw(st.dictionaries(st.sampled_from(keys), rule) if keys else st.just({}))
    n = draw(st.integers(1, 6))
    w = draw(st.text(alphabet=symbols, max_size=n))
    head = draw(st.integers(0, n - 1))
    # the cells before the input's offset are blank
    w = symbols[0] * draw(st.integers(0, n - len(w))) + w
    return TmSpec(states, "q0", symbols, symbols[0], transitions, halting), w, n, head


@settings(max_examples=200, deadline=None)
@given(tm_starts())
def test_random_machine_diagrams_match_the_simulator(start):
    tm, w, n, head = start
    comp = tm_to_tileset(tm, n)
    # rules are read in sorted order, so their insertion order changes nothing
    flipped = tm._replace(transitions=dict(reversed(tm.transitions.items())))
    other = tm_to_tileset(flipped, n)
    assert serialize_compilation(other) == serialize_compilation(comp)
    assert other.color_keys == comp.color_keys
    # tiles exist for exactly the tape ends some column touches
    ends = {"LR"} if n == 1 else {"L", "R"} | ({"I"} if n > 2 else set())
    assert {p[p.rindex("[") + 1:-1] for p in comp.tile_roles} == ends
    configs = tm_run(tm, w, n, head=head)
    assume(configs is not None)  # the head left the tape or the run kept going

    def solve(height):
        boundary = tm_initial_boundary(tm, comp, w, n, height, head=head)
        return boundary, solve_rectangle(comp.tileset, n, height, boundary=boundary)

    try:
        tm_initial_boundary(tm, comp, w, n, 1, head=head)
    except InvalidInput:  # no tile reads the start configuration's head
        assume(False)
    h = len(configs)
    halted = next(c for c in configs[-1] if "." in c).split(".")[0] in tm.halting
    if not halted:  # the run stalled: its last configuration has no row above it
        assert solve(h)[1].status == UNSAT
        h -= 1
        if h == 0:
            return
    boundary, r = solve(h)
    assert r.status == SAT
    assert [tuple(comp.decode[i] for i in row) for row in r.tiling.cells] == configs[:h]
    if halted:
        c = count_rectangle(comp.tileset, n, h, boundary=boundary)
        assert (c.status, c.count) == ("COUNT", 1)
        assert solve(h + 1)[1].status == UNSAT


def test_head_running_off_tape_fails_closed():
    # on "11" with a 2-cell tape the incrementer walks off the right end
    comp = tm_to_tileset(INCREMENTER, 2)
    boundary = tm_initial_boundary(INCREMENTER, comp, "11", 2, 2)
    assert tm_run(INCREMENTER, "11", 2) is None
    assert solve_rectangle(comp.tileset, 2, 2, boundary=boundary).status == UNSAT


def test_boundary_rejects_unreachable_initial_configuration():
    # a 1-cell tape has no tile that can apply the only transition, so the
    # initial head color does not even exist: fail closed at boundary time
    comp = tm_to_tileset(INCREMENTER, 1)
    with pytest.raises(InvalidInput, match="no tile reads state q0 over '1' at cell 0: "
                       "the machine has no move there on a 1-cell tape"):
        tm_initial_boundary(INCREMENTER, comp, "1", 1, 2)


def test_boundary_names_a_start_state_without_a_move():
    # the width is right; q0 just has no rule over the blank it starts on
    stuck = TmSpec(("q0", "q1"), "q0", ("0", "1"), "0",
                   {("q0", "1"): ("q1", "1", "R")}, frozenset())
    assert tm_run(stuck, "0", 3) == [("q0.0", "0", "0")]
    comp = tm_to_tileset(stuck, 3)
    with pytest.raises(InvalidInput, match="no tile reads state q0 over '0' at cell 0: "
                       "the machine has no move there on a 3-cell tape"):
        tm_initial_boundary(stuck, comp, "0", 3, 1)


def test_initial_boundary_validates_input():
    comp = tm_to_tileset(INCREMENTER, 4)
    with pytest.raises(InvalidInput):
        tm_initial_boundary(INCREMENTER, comp, "11111", 4, 2)
    with pytest.raises(InvalidInput):
        tm_initial_boundary(INCREMENTER, comp, "1", 4, 2, head=9)
    with pytest.raises(InvalidInput):
        tm_initial_boundary(INCREMENTER, comp, "x", 4, 2)
    # a 1-cell compilation has no interior or edge tags for a wider tape
    with pytest.raises(InvalidInput, match="no tile reads '0' at cell 0: "
                       "the tile set was not compiled for a 3-cell tape"):
        tm_initial_boundary(INCREMENTER, tm_to_tileset(INCREMENTER, 1), "", 3, 2, head=2)


def test_compilation_decode_must_be_total():
    comp = tm_to_tileset(HALT_NOW, 2)
    with pytest.raises(InvalidSpec, match="decode must be total on the tile set"):
        TileCompilation(comp.tileset, comp.decode[:-1], comp.tile_roles, comp.color_keys)
    with pytest.raises(InvalidSpec, match="tile roles must be total on the tile set"):
        TileCompilation(comp.tileset, comp.decode, comp.tile_roles[:-1], comp.color_keys)
    with pytest.raises(InvalidSpec, match="tile roles must be total on the tile set"):
        TileCompilation(comp.tileset, None, comp.tile_roles[:-1], comp.color_keys)
    with pytest.raises(InvalidSpec, match="color keys must be total on the colors"):
        TileCompilation(comp.tileset, comp.decode, comp.tile_roles, comp.color_keys[:-1])


def test_a_compilation_without_decode_writes_roles_and_no_decode_lines():
    comp = tm_to_tileset(HALT_NOW, 2)
    text = serialize_compilation(TileCompilation(comp.tileset, (), comp.tile_roles,
                                                comp.color_keys))
    lines = text.splitlines()
    assert not any(line.startswith("decode ") for line in lines)
    assert [line for line in lines if line.startswith("# tile ")] == [
        f"# tile {i}: {role}" for i, role in enumerate(comp.tile_roles)]
    # the same file with its decode lines dropped
    assert text == "".join(line + "\n" for line in serialize_compilation(comp).splitlines()
                           if not line.startswith("decode "))
