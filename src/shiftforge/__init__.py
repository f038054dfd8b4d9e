"""Symbolic dynamics on the line and the plane: subshift specifications,
compilers to Wang tile sets, exact tiling solvers, and a built-in
aperiodic tile set with its evidence suite."""

from .aperiodic import (ROBINSON_TILE_COUNT, EvidenceReport, aperiodicity_evidence,
                        robinson_tileset)
from .compilers import (TileCompilation, TmSpec, sft_to_wang, tm_initial_boundary,
                        tm_to_tileset)
from .core import Grid, SftSpec, Tile, TileSet, make_tileset, validate_tiling
from .errors import (InvalidInput, InvalidSpec, MalformedInput, ParseError,
                     ShiftforgeError, UnsupportedSpec)
from .macrotile import BUDGET_EXCEEDED, MacroTileSet, find_simulation, macro_tiles
from .solve import (SAT, UNKNOWN, UNSAT, BoundaryConstraint, SearchBudget,
                    SearchResult, count_rectangle, enumerate_tilings,
                    solve_rectangle, solve_torus)
from .subshift import (BUDGET_EXHAUSTED_CLEAN, CLEAN, VIOLATION,
                       ExplicitWords, Subshift1dSpec, WordStream,
                       check_sequence, lift_1d)

__version__ = "0.1.0"
