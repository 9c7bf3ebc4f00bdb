"""Benchmark of upb3q: four workloads through its public entry points.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 30 --trace 0

One client runs ops back to back in this process (a closed loop, no extra
threads).  Each op is checked by an independent numpy oracle; a raised
exception or a failed check counts as a failed op.  --trace 0 reports the
end-to-end metrics; --trace 1 wraps every public upb3q function and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

import os

# A CLI call is one single-threaded process; pin BLAS before numpy loads.
# Child interpreters inherit the pins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import layertrace
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_OPS = 4  # even: inputs come in pairs symmetric about the band's centre
SETUP_RUNS = 7

# Import time of the package in a fresh interpreter that already loaded numpy,
# corrected for machine speed by reference-kernel probes taken around it.
_SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy, speed
speed.kernel()
before = speed.kernel()
start = time.perf_counter()
import upb3q, upb3q.cli
elapsed = time.perf_counter() - start
after = speed.kernel()
if not upb3q.__file__.startswith(sys.argv[2]):
    raise SystemExit(f"imported {upb3q.__file__}, not the checkout's package")
print(repr(elapsed), repr(elapsed * speed.NOMINAL_S * 2.0 / (before + after)))
"""


class Runner:
    """Draws the seeded inputs, runs and checks ops, and counts failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self._inputs = workload.inputs(random.Random(seed))
        self.drawn = []
        self.attempted = 0
        self.failures = []

    def draw(self):
        inp = next(self._inputs)
        self.drawn.append(inp)
        return inp

    def op(self, inp, tracer=None):
        """Run one op and check it; returns (wall s, speed-corrected s, items done)."""
        gc.collect()
        self.attempted += 1
        probe = speed.SpeedProbe()
        wall = 0.0
        try:
            with tracer.op(probe) if tracer else contextlib.nullcontext(), probe:
                start = perf_counter()
                try:
                    out = self.workload.run(inp)
                finally:
                    wall = perf_counter() - start
            self.workload.check(inp, out)
        except (Exception, SystemExit) as exc:  # argparse exits on a rejected flag
            self.failures.append(f"{inp}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return wall, probe.corrected(wall), 0
        return wall, probe.corrected(wall), self.workload.items(inp)


def setup_times():
    """(wall s, corrected s) of the upb3q import in SETUP_RUNS fresh interpreters."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(BENCH), str(SRC)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(tuple(float(v) for v in done.stdout.split()))
    return times[1:]  # the first may still fill the bytecode and page caches


def plain(runner, seconds):
    """End-to-end metrics and the table lines that show them with sample counts."""
    setup = setup_times()
    runner.op(runner.draw())  # warm-up: first calls fill lazy state later ops reuse
    walls, times, items = [], [], 0
    start = perf_counter()
    while (len(times) < MIN_OPS or len(times) % 2
           or perf_counter() - start + walls[-1] <= seconds):
        wall, corrected, n = runner.op(runner.draw())
        walls.append(wall)
        times.append(corrected)
        items += n
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rows = [
        ("setup_s", statistics.median(t for _, t in setup), "s", len(setup)),
        ("op_s.p50", statistics.median(times), "s", len(times)),
        ("items_per_s", items / sum(times), "items/s", len(times)),
        ("fail_ratio", len(runner.failures) / runner.attempted, "ratio", runner.attempted),
        ("peak_rss_mb", peak_mb, "MB", 1),
    ]
    # fail_ratio is 0 on a healthy commit, so it travels as attempted and
    # failed in the result line rather than as a metric with a relative bound.
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name != "fail_ratio"}
    lines = [f"{'metric':14s} {'value':>14s} {'unit':8s} samples"]
    lines += [f"{name:14s} {value:14.6g} {unit:8s} {n}" for name, value, unit, n in rows]
    lines += [
        f"items are {runner.workload.item_kind}; times are at nominal machine speed",
        f"uncorrected wall: setup {statistics.median(w for w, _ in setup):.6g} s, "
        f"op p50 {statistics.median(walls):.6g} s, {items / sum(walls):.6g} items/s",
    ]
    return metrics, lines


def traced(runner, seconds):
    """Per-layer metrics from wrapped public functions, and their table lines."""
    tracer = layertrace.Tracer()
    runner.op(runner.draw())  # warm-up
    # Half the run goes to ops: each input runs once plain and once traced,
    # in alternating order, so the overhead ratio compares the same work.
    # Counting sweeps afterwards re-solves the recorded eigen inputs and takes
    # about as long again.
    plain_t, traced_t, broken = [], [], []
    start = perf_counter()
    pair_wall = 0.0
    while not traced_t or perf_counter() - start + pair_wall <= seconds / 2:
        inp = runner.draw()
        pair_wall = 0.0
        for use_tracer in (len(traced_t) % 2 == 1, len(traced_t) % 2 == 0):
            if not use_tracer:
                wall, corrected, _ = runner.op(inp)
                plain_t.append(corrected)
            else:
                before = tracer.snapshot()
                wall, corrected, _ = runner.op(inp, tracer)
                traced_t.append(corrected)
                after = tracer.snapshot()
                delta = {key: after[key] - before[key] for key in after}
                broken += [f"{inp}: {err}" for err in runner.workload.invariants(inp, delta)]
            pair_wall += wall
    for err in broken:
        print(f"trace error: {err}", file=sys.stderr)
    overhead = statistics.median(traced_t) / statistics.median(plain_t)
    metrics = tracer.metrics(tracer.count_sweeps(), overhead, len(broken))
    eigen = {key: metrics[f"linalg.jacobi_eigh.{key}"]["value"]
             for key in ("matrices", "sweeps", "distinct_ratio")}
    lines = tracer.table() + [
        f"traced ops {tracer.ops}; self times are at nominal machine speed",
        f"trace.overhead {overhead:.4f} (traced op p50 {statistics.median(traced_t):.6g} s"
        f" / plain {statistics.median(plain_t):.6g} s)",
        f"jacobi_eigh per op: {eigen['matrices']:.1f} matrices, {eigen['sweeps']:.1f} sweeps, "
        f"distinct ratio {eigen['distinct_ratio']:.4f}",
        f"invariant errors {len(broken)}",
    ]
    return metrics, lines


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    if not (SRC / "upb3q" / "__init__.py").is_file():
        return _fail(f"no upb3q package under {SRC}; run from a upb3q checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import upb3q

    if Path(upb3q.__file__).resolve().parent != (SRC / "upb3q").resolve():
        return _fail(f"imported {upb3q.__file__}, not the checkout's package")
    import workloads

    parser = argparse.ArgumentParser(description="upb3q benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        runner = Runner(workloads.WORKLOADS[args.workload](Path(work)), args.seed)
        metrics, lines = (traced if args.trace else plain)(runner, args.seconds)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"upb3q benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: nproc={nproc} python={platform.python_version()} "
          f"numpy={numpy.__version__} OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1")
    print(f"inputs ({runner.workload.input_kind}, first is warm-up): "
          + " ".join(",".join(i) if isinstance(i, tuple) else str(i) for i in runner.drawn))
    for line in lines + [f"failed op: {f}" for f in runner.failures]:
        print(line)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
