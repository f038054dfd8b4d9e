"""shiftforge benchmark: one seeded workload, timed end to end, with every
answer checked against an independent reference.

    python3 bench/run.py --workload lift-pipeline --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process, one thread: set-up is timed in fresh child
processes, then a reference pass is run and checked, then passes repeat
for ``--seconds``.  Every later pass must reproduce the reference pass
exactly (CLI bytes, witnesses and node counts); any difference is a
failed query.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
alternates traced and untraced passes and reports per-layer metrics.
End-to-end times are scaled to a nominal host speed by `calibrate`.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only sets up, to time set-up afresh
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package() -> SimpleNamespace:
    """Import shiftforge from this checkout's src/ and return its modules."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"shiftforge.{name}") for name in spans.LAYERS}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "shiftforge":
        raise ImportError(f"shiftforge was imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process until its first query could
    run, scaled by the kernel times the process takes before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        kernels = proc.stdout.read().split()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0 or len(kernels) != 2:
        raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
    before, after = map(float, kernels)
    return (elapsed - before) * 2 * calibrate.NOMINAL_S / (before + after)


def setup_probe(args: argparse.Namespace, work: Path) -> None:
    """The child of `time_setup`: set up, say so, then report the kernel
    times from before and after set-up."""
    before = calibrate.time_kernel()
    workloads.build(load_package(), args.workload, args.seed, work)
    print("ready", flush=True)
    print(before, calibrate.time_kernel())


def run_pass(queries: list[workloads.Query]) -> tuple[float, list[float], list]:
    """(wall seconds, calibrated per-query ms, records) of one pass over the
    queries.  The kernel runs before the first query and after each one;
    each query's time is scaled by the two kernel times around it, and the
    wall leaves the kernel runs out."""
    clock = time.perf_counter
    latencies, records = [], []
    start = clock()
    kernel = kernel_total = calibrate.time_kernel()
    for q in queries:
        t0 = clock()
        try:
            answer = q.run()
        except Exception as exc:  # a raising query is a failed query
            answer = exc
        ms = (clock() - t0) * 1000
        before, kernel = kernel, calibrate.time_kernel()
        kernel_total += kernel
        latencies.append(ms * 2 * calibrate.NOMINAL_S / (before + kernel))
        try:
            records.append(answer if isinstance(answer, Exception) else q.collect(answer))
        except OSError as exc:
            records.append(exc)
    return clock() - start - kernel_total, latencies, records


def check_all(queries: list[workloads.Query], records: list) -> list[str | None]:
    """Reference verdict of each record: None when right, else the reason."""
    errors = []
    for q, rec in zip(queries, records):
        if isinstance(rec, Exception):
            errors.append(f"raised {type(rec).__name__}: {rec}")
            continue
        try:
            errors.append(q.check(rec))
        except Exception as exc:  # a malformed answer fails its check
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    return errors


def unit_of(name: str) -> str:
    name = name.removesuffix(".p50").removesuffix(".p90")
    for suffix, unit in (("mpix_per_s", "Mpx/s"), ("us_per_node", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_mb", "MB"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure(args: argparse.Namespace, work: Path) -> int:
    setup_samples = [time_setup(args) for _ in range(SETUP_PROBES)]
    sf = load_package()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    queries = workloads.build(sf, args.workload, args.seed, work)
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take("setup")

    problems = workloads.gate_selftest(sf)
    for p in problems:
        print(f"error: answer-check self-test: {p}", file=sys.stderr)
    if problems:
        return 1

    _, _, reference = run_pass(queries)
    errors = check_all(queries, reference)
    for q, e in zip(queries, errors):
        if e is not None:
            print(f"FAILED {q.name}: {e}", file=sys.stderr)
    failed = sum(e is not None for e in errors)

    # the benchmark's own objects must not make the program's collections slower
    gc.collect()
    gc.freeze()
    walls: dict[bool, list[float]] = {False: [], True: []}  # calibrated, by traced
    latencies, layer_passes = [], []
    needed = (False, True) if tracer else (False,)
    traced = tracer is not None
    deadline = time.perf_counter() + args.seconds
    while True:
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        wall, lat, records = run_pass(queries)
        pass_s = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
            layer_passes.append(spans.pass_metrics(
                tracer, tracer.take(f"pass{len(latencies)}"), wall))
        walls[traced].append(sum(lat) / 1000)
        latencies.append(lat)
        for q, err, rec, ref in zip(queries, errors, records, reference):
            if err is None and rec != ref:
                print(f"FAILED {q.name}: differs from the reference pass", file=sys.stderr)
            failed += err is not None or rec != ref
        if all(walls[k] for k in needed) and time.perf_counter() + pass_s > deadline:
            break
        traced = tracer is not None and not traced
    attempted = len(queries) * (len(latencies) + 1)
    nodes = {m["solve.nodes"] for m in layer_passes}
    if len(nodes) > 1:
        print(f"FAILED solve.nodes differs between passes: {sorted(nodes)}", file=sys.stderr)
        failed += len(layer_passes)

    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}"
          f"  nproc {os.cpu_count()}  queries/pass {len(queries)}"
          f"  timed passes {len(latencies)} (+1 reference)"
          f"  failed_share {failed / attempted:.4g} ({failed} of {attempted})")
    if tracer:
        # all layer numbers come from the least disturbed traced pass, so
        # they add up to its wall
        metrics = dict(min(layer_passes, key=lambda m: m["trace.wall_s"]))
        metrics["aperiodic.build_ms"] = spans.setup_build_ms(tracer, setup_spans)
        metrics["trace.overhead_share"] = (statistics.median(walls[True])
                                           / statistics.median(walls[False]) - 1)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        layers_ms = sum(metrics[f"{layer}.self_ms"] for layer in spans.LAYERS)
        print(f"traced passes {len(walls[True])}, untraced {len(walls[False])};"
              f" spans in {out}\nfastest traced pass: layer self times {layers_ms:.1f} ms"
              f" + bench.self_ms {metrics['bench.self_ms']:.1f} ms"
              f" = traced wall {metrics['trace.wall_s'] * 1000:.1f} ms")
    else:
        # Each query's latency is the median of its calibrated repeats,
        # and a pass takes their sum.
        per_query = [statistics.median(q) for q in zip(*latencies)]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": sum(per_query) / 1000,
            "query_ms.p50": statistics.median(per_query),
            "query_ms.p90": statistics.quantiles(per_query, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"samples: setup_s {len(setup_samples)} probes, wall_s {len(latencies)} passes,"
              f" query_ms {len(per_query)} queries")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "shiftforge" / "__init__.py").is_file():
        print(f"error: no shiftforge package under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.setup_probe:
            setup_probe(args, work)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
