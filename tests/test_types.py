"""The package's value types are immutable named tuples that compare and
hash by value and keep their constructors' checks; only the two types
that need a dataclass-only feature are dataclasses."""

import dataclasses
import importlib
import pkgutil
import re

import pytest

import shiftforge
from shiftforge.aperiodic import EvidenceReport
from shiftforge.compilers import TileCompilation, TmSpec
from shiftforge.core import Grid, SftSpec, Tile, make_tileset
from shiftforge.errors import InvalidInput, InvalidSpec
from shiftforge.macrotile import MacroTileSet
from shiftforge.render import RenderSpec
from shiftforge.solve import SAT, UNSAT, BoundaryConstraint, SearchBudget
from shiftforge.subshift import VIOLATION, ExplicitWords, Subshift1dSpec, Verdict, WordStream

ONE = make_tileset("one", [(0, 0, 0, 0)])


def _machine(start="q0"):
    return TmSpec(("q0", "q1"), start, ("0", "1"), "0", {("q0", "0"): ("q1", "1", "R")},
                  frozenset({"q1"}))


# (a function that makes one value, and a bad call with the error it raises or None
# for a type without checks)
VALUE_TYPES = [
    (lambda: Tile(0, 1, 2, 3), None),
    (lambda: BoundaryConstraint(south=(0, 1), forced_cells=((0, 0, 1),)), None),
    (lambda: TileCompilation(ONE, None, ("role",)),
     (lambda: TileCompilation(ONE, None, ()), InvalidSpec,
      "tile roles must be total on the tile set")),
    (lambda: EvidenceReport(((1, SAT),), ((1, 1, UNSAT),), 2, 1), None),
    (lambda: MacroTileSet((Grid.from_rows([(0,)]),), ONE), None),
    (lambda: Verdict(VIOLATION, "ab", 1), None),
    (lambda: Grid.from_rows(["ab", "ba"]),
     (lambda: Grid(2, 1, (("a",),)), InvalidSpec,
      "grid does not match its declared dimensions")),
    (lambda: SftSpec(("a", "b"), (Grid.from_rows(["ab"]),)),
     (lambda: SftSpec(("a",), (Grid.from_rows(["ab"]),)), InvalidSpec,
      "pattern letter 'b' outside alphabet")),
    (lambda: SearchBudget(5, 7),
     (lambda: SearchBudget(max_nodes=0), InvalidInput, "budget values must be positive")),
    (lambda: RenderSpec(4, "svg"),
     (lambda: RenderSpec(format="png"), InvalidInput, "unknown render format 'png'")),
    (_machine, (lambda: _machine("q2"), InvalidSpec, "start state not in state set")),
    (lambda: TileCompilation(ONE, ("a",), ("block a",)),
     (lambda: TileCompilation(ONE, (), ("block a",)), InvalidSpec,
      "decode must be total on the tile set")),
    (lambda: ExplicitWords(("ab", "b")),
     (lambda: ExplicitWords(("ab", "ab")), InvalidSpec, "forbidden words must be distinct")),
    (lambda: WordStream(3),
     (lambda: WordStream(0), InvalidSpec, "forbidden words must be nonempty")),
    (lambda: Subshift1dSpec(("a", "b"), ExplicitWords(("ab",))),
     (lambda: Subshift1dSpec(("a",), ExplicitWords(("ab",))), InvalidSpec,
      "forbidden word 'ab' uses letters outside alphabet")),
]


def test_the_package_defines_exactly_two_dataclasses():
    # SearchResult is copied with dataclasses.replace by its callers, and a
    # TileSet keeps its support table in an instance dict and is weakly
    # referenced
    found = set()
    for info in pkgutil.iter_modules(shiftforge.__path__):
        module = importlib.import_module(f"shiftforge.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}
    assert found == {"SearchResult", "TileSet"}


@pytest.mark.parametrize("build, bad", VALUE_TYPES,
                         ids=[build().__class__.__name__ for build, _ in VALUE_TYPES])
def test_a_value_type_is_immutable_compares_by_value_and_keeps_its_checks(build, bad):
    a, b = build(), build()
    assert a == b and a is not b
    if isinstance(a, TmSpec):  # its transitions are a dict, as they always were
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a).startswith(f"{type(a).__name__}({a._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == b
    if bad is not None:
        call, error, message = bad
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
