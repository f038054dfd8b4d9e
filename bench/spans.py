"""Span tracing around the public functions of each shiftforge layer.

A layer is one module of the package.  Every public function of a layer
is wrapped at every place its name is bound: the defining module and
every module that imported it with ``from .x import y``.  Spans are kept
in memory as (function id, parent span, start, end, counters) and turned
into per-layer numbers at the end of a pass.  A layer's self time is its
spans' durations minus the durations of their direct child spans, so the
layers' self times plus the benchmark's own time add up to the pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "textio", "subshift", "compilers", "solve", "core",
          "aperiodic", "macrotile", "render")

# Called once per pixel from inside `render`; a span per call would cost
# more than the rendering.  Its time stays in render's self time.
UNTRACED = {("render", "palette_rgb")}


def _solve_info(name, args, result):
    """(nodes or None, unknown verdict, cells) of one solve-layer call."""
    if name == "domino_semidecide":
        unknown = result.kind == "UNDETERMINED" and result.completed_n < args[1]
        return result.nodes, unknown, 0
    cells = args[1] * args[2]
    if name.startswith("enumerate"):
        return None, not result[1], cells  # enumerations report no node count
    return result.nodes, result.status == "UNKNOWN", cells


def _render_pixels(args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    c = 16 if spec is None else spec.cell_pixels
    tiling = args[1]
    return tiling.width * tiling.height * c * c


def _counters(layer: str, name: str):
    """Extractor of the counters one call contributes, or None."""
    if layer == "solve":
        return lambda args, kwargs, result: _solve_info(name, args, result)
    if name in ("sft_to_wang", "tm_to_tileset"):
        return lambda args, kwargs, result: len(result.tileset.tiles)
    if name == "macro_tiles":
        return lambda args, kwargs, result: (0 if isinstance(result, str)
                                             else len(result.blocks))
    if (layer, name) == ("render", "render"):
        return lambda args, kwargs, result: _render_pixels(args, kwargs)
    return None


class Tracer:
    """Wraps the package's public functions; `install` and `uninstall`
    switch tracing on and off between passes."""

    def __init__(self):
        self.funcs: list[tuple[str, str]] = []
        self.spans: list = []
        self.phase_spans: dict[str, list] = {}
        self._stack: list[int] = []
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"shiftforge.{layer}")
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or (layer, name) in UNTRACED):
                    continue
                fid = len(self.funcs)
                self.funcs.append((layer, name))
                wrappers[id(fn)] = (fn, self._wrap(fn, fid, _counters(layer, name)))
        self._patches = []
        for modname, mod in sorted(sys.modules.items()):
            if modname != "shiftforge" and not modname.startswith("shiftforge."):
                continue
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, hit[0], hit[1]))

    def _wrap(self, fn, fid: int, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (fid, parent, start, clock(), None)
                raise
            finally:
                stack.pop()
            end = clock()
            info = counters(args, kwargs, result) if counters else None
            spans[index] = (fid, parent, start, end, info)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def take(self, phase: str) -> list:
        """Move the spans recorded so far into the named phase."""
        taken = list(self.spans)
        self.spans.clear()
        self.phase_spans[phase] = taken
        return taken

    def write(self, path: Path) -> None:
        """One JSON line per span, times in microseconds from the phase start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for phase, spans in self.phase_spans.items():
                base = spans[0][2] if spans else 0.0
                for i, (fid, parent, start, end, info) in enumerate(spans):
                    layer, name = self.funcs[fid]
                    out.write(json.dumps({
                        "phase": phase, "span": i, "parent": parent,
                        "layer": layer, "fn": name,
                        "start_us": round((start - base) * 1e6, 1),
                        "dur_us": round((end - start) * 1e6, 1),
                        "counters": info,
                    }) + "\n")


def self_times(spans: list) -> list[float]:
    """Self time in seconds of each span: duration minus direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(tracer: Tracer, spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times in ms unless named)."""
    funcs = tracer.funcs
    own = self_times(spans)
    m = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
    m.update({"cli.calls": 0, "textio.parse_ms": 0.0, "textio.serialize_ms": 0.0,
              "compilers.legal_blocks_ms": 0.0, "compilers.tiles_out": 0,
              "solve.calls": 0, "solve.nodes": 0, "solve.cells": 0,
              "solve.zero_node_ms": 0.0, "core.validate_ms": 0.0,
              "core.validate_calls": 0, "macrotile.blocks": 0, "render.pixels": 0})
    node_self = node_count = unknown = 0
    child_nodes = [0] * len(spans)
    for fid, parent, _, _, info in spans:
        if funcs[fid][0] == "solve" and parent >= 0 and funcs[spans[parent][0]][0] == "solve":
            child_nodes[parent] += (info[0] or 0) if info else 0
    top = 0.0
    for i, (fid, parent, start, end, info) in enumerate(spans):
        layer, name = funcs[fid]
        ms = own[i] * 1000
        m[f"{layer}.self_ms"] += ms
        if parent < 0:
            top += end - start
        if name == "main" and layer == "cli":
            m["cli.calls"] += 1
        elif layer == "textio" and name.startswith("parse"):
            m["textio.parse_ms"] += ms
        elif layer == "textio" and name.startswith("serialize"):
            m["textio.serialize_ms"] += ms
        elif name == "legal_blocks":
            m["compilers.legal_blocks_ms"] += ms
        elif name in ("validate_tiling", "validate_torus_tiling"):
            m["core.validate_ms"] += ms
            m["core.validate_calls"] += 1
        if info is None:
            continue
        if layer == "solve":
            m["solve.calls"] += 1
            nodes, was_unknown, cells = info
            unknown += was_unknown
            m["solve.cells"] += cells
            if nodes is not None:
                nodes -= child_nodes[i]
                m["solve.nodes"] += nodes
                if nodes:
                    node_self += own[i]
                    node_count += nodes
                else:
                    m["solve.zero_node_ms"] += ms
        elif layer == "compilers":
            m["compilers.tiles_out"] += info
        elif layer == "macrotile":
            m["macrotile.blocks"] += info
        elif layer == "render":
            m["render.pixels"] += info
    m["solve.us_per_node"] = node_self * 1e6 / node_count if node_count else 0.0
    m["solve.unknown_share"] = unknown / m["solve.calls"] if m["solve.calls"] else 0.0
    render_s = m["render.self_ms"] / 1000
    m["render.mpix_per_s"] = m["render.pixels"] / render_s / 1e6 if render_s else 0.0
    m["bench.self_ms"] = (wall_s - top) * 1000
    m["trace.wall_s"] = wall_s
    return m


def setup_build_ms(tracer: Tracer, spans: list) -> float:
    """Time spent building the built-in aperiodic set during set-up,
    including the core calls the build makes."""
    return sum((end - start) * 1000 for fid, _, start, end, _ in spans
               if tracer.funcs[fid] == ("aperiodic", "robinson_tileset"))
