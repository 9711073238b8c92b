"""speclab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of perfbench/workloads.py from this process, in a closed
loop with a single caller, and prints the metrics declared in BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and, per metric, the quartiles and sample count.

--trace 0 reports the end-to-end metrics:

* ``setup_s``: median wall time of SETUP_PROCESSES fresh processes that
  import speclab and generate the seeded inputs, spread over the timed passes;
* ``peak_mb``: tracemalloc peak (1e6 bytes) over the calls of one untimed
  pass, which also serves as the warm-up pass;
* ``wall_s``: the time of one pass with every operation at its median, i.e.
  the sum over operations of each one's median call in the timed passes.
  Passes repeat until their calls add up to S seconds, and there are at
  least MIN_PASSES of them.

The median, quartiles and minimum of the pass times (``pass_s``), each
operation's median and fastest time, and the share of failed verifications
(``fail_ratio``) are printed with them; the result line carries the last as
``failed`` / ``attempted``.  Per-operation medians stand for the pass time
because on a shared host (a 2-vCPU cloud VM, say) other tenants slow a
changing share of calls, by up to 2x: the median of each operation's calls is
steadier from run to run than either one pass or each operation's fastest
call, which rests on the few quiet moments a run happens to catch.

--trace 1 reports the per-layer metrics of tracer.py: a traced warm-up pass,
then untraced and traced passes alternating until S seconds have passed.
Times are medians over the timed traced passes, counts must be equal in every
traced pass (the run fails otherwise), and ``trace.overhead_s`` is the fastest
traced pass minus the fastest untraced one.

BLAS runs at its default thread count; nothing pins the process or changes a
machine setting.  Scratch files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import workloads as wl  # imports speclab from the checkout's src/, or fails
from tracer import Tracer, is_count, layer_metrics

import numpy as np

ROOT = wl.ROOT
SCRATCH = ROOT / ".perfbench"
SETUP_PROCESSES = 7
MIN_PASSES = 2


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "commit": _commit(),
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def describe(name: str, values: list[float], unit: str, what: str) -> None:
    med, q1, q3 = summary(values)
    print(f"{name}: median {med:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, min {min(values):.6g}, "
          f"n={len(values)} {what}")


def setup_once(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(wl.__file__).resolve()), workload, str(seed)], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def end_to_end(ops: list[wl.Op], checks: wl.Checks, workload: str, seed: int, seconds: float) -> dict[str, float]:
    tracemalloc.start()
    try:
        _, peak = wl.run_pass(ops, checks, measure_memory=True)
    finally:
        tracemalloc.stop()

    # The set-up processes are spread over the timed passes, so that their
    # median samples the host's load over the whole run, not over one burst.
    walls: list[float] = []
    setup: list[float] = []
    op_seconds: dict[str, list[float]] = {}
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        walls.append(wl.run_pass(ops, checks, op_seconds=op_seconds)[0])
        while len(setup) < min(SETUP_PROCESSES, math.ceil(SETUP_PROCESSES * sum(walls) / seconds)):
            setup.append(setup_once(workload, seed))

    for label, times in op_seconds.items():
        print(f"  {label}: median {statistics.median(times):.6g} s, min {min(times):.6g} s")
    describe("pass_s", walls, "s", "timed passes after a warm-up pass")
    describe("setup_s", setup, "s", "fresh processes")
    print(f"peak_mb: {peak / 1e6:.6g} MB over the calls of one untimed pass under tracemalloc")
    wall = sum(statistics.median(times) for times in op_seconds.values())
    return {"wall_s": wall, "setup_s": summary(setup)[0], "peak_mb": peak / 1e6}


RUN_METRICS = ("trace.overhead_s", "checks.worst_ratio")  # per-layer metrics not taken from spans


def per_layer(ops: list[wl.Op], checks: wl.Checks, seconds: float, spans_path: Path,
              declared: list[str]) -> dict[str, float]:
    names = [name for name in declared if name not in RUN_METRICS]
    tracer = Tracer()
    with tracer:
        wl.run_pass(ops, checks, tracer=tracer)  # warm-up; its counts are compared too
    passes = [layer_metrics(tracer, 0, names)]
    traced: list[float] = []
    untraced: list[float] = []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(wl.run_pass(ops, checks)[0])
        tracer.pass_id += 1
        with tracer:
            traced.append(wl.run_pass(ops, checks, tracer=tracer)[0])
        passes.append(layer_metrics(tracer, tracer.pass_id, names))

    SCRATCH.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "pass", "count"],
                                      "spans": tracer.spans}))

    for name, value in passes[0].items():
        if is_count(name) and any(p[name] != value for p in passes[1:]):
            raise SystemExit(f"count metric {name} differs between passes of one seed: "
                             f"{[p[name] for p in passes]}")
    metrics = {name: (value if is_count(name) else statistics.median(p[name] for p in passes[1:]))
               for name, value in passes[0].items()}
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    metrics["checks.worst_ratio"] = checks.worst_ratio
    describe("traced wall_s", traced, "s", "traced passes")
    describe("untraced wall_s", untraced, "s", "untraced passes")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one speclab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"environment": environment(args.seed)}), flush=True)

    out = SCRATCH / f"out-{os.getpid()}"
    checks = wl.Checks()
    try:
        ops = wl.make_ops(args.workload, args.seed, str(out))
        if args.trace:
            spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(ops, checks, args.seconds, spans_path, list(units))
        else:
            metrics = end_to_end(ops, checks, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
                         f"missing {sorted(set(units) - set(metrics))}")
    failed = len(checks.failures)
    for line in checks.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio: {failed / checks.attempted:.6g} ({failed} of {checks.attempted} verifications failed)")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
