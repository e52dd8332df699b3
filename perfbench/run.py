"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload placement-grid --seed 1 --seconds 30 --trace 0

A closed loop with one caller runs the workload's operations back to back
for ``--seconds`` in blocks of ``BLOCK_S`` and checks every output.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other block and prints per-layer metrics derived from the spans, which
it also writes to ``.perfbench/`` in the checkout.  The line before the
result carries the run's facts: environment, sample count and latency
percentiles, the unscaled times and the host speed they were scaled by.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

if __name__ == "__main__":
    if not (SRC / "irschain" / "__init__.py").is_file():
        sys.exit(f"error: irschain sources not found under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read by OpenBLAS when numpy loads
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPAN_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
WARMUP_S = 0.5
# Blocks are short next to the host's speed states, which last seconds;
# traced runs alternate untraced and traced blocks, so drift hits both.
BLOCK_S = 0.25
# p95 and beyond moved by 10-14 % between runs of placement-grid, more
# than any bound allows; p90 stays within 5-8 %.  The info line prints the
# deeper percentiles of every run.
TAIL_PERCENTILE = 90.0
INFO_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MiB = 1024 * 1024

# The host's speed swings by up to 2x for minutes at a time.  A fixed
# reference, timed between blocks, tracks it, and every time is scaled to
# the host at full speed, where the reference takes its nominal time.
# Interpreter-bound work follows a pure-Python loop; the oracle's dense
# matrices follow a fresh 32 MB outer product instead (measured over 10
# seeds: oracle spreads of 8-11 % scaled by the Python loop, 2-4 % by
# the outer product).
REFERENCE_REPEATS = 3

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.generate({name!r}, {seed!r})
print(time.perf_counter() - start)
"""


def _interpreter_work() -> None:
    acc, table = 0.0, {}
    for i in range(1500):
        x = math.log(i + 1.5) * 0.5
        table[i & 63] = (x, i)
        acc += math.exp(-x) + len(table)


def _memory_work() -> None:
    np.outer(np.ones(2048, complex), np.ones(1024, complex))


# (work, its ns at full speed)
INTERPRETER = (_interpreter_work, 500_000)
MEMORY = (_memory_work, 10_000_000)
REFERENCES = {"placement-grid": INTERPRETER, "long-chain": INTERPRETER, "oracle": MEMORY}


def host_speed(reference=INTERPRETER) -> float:
    """Host speed now, as a share of full speed (about 1 when fast)."""
    work, nominal_ns = reference
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter_ns()
        work()
        times.append(time.perf_counter_ns() - start)
    return nominal_ns / statistics.median(times)


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """(raw, speed-scaled) import plus input generation in a fresh process."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    before = host_speed()
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=ROOT)
    raw = float(out.stdout)
    return raw, raw * (before + host_speed()) / 2.0


class Loop:
    """Closed loop over a workload's items, one caller, outputs checked."""

    def __init__(self, name: str, seed: int):
        self.items, self.probe = workloads.generate(name, seed)
        self.op = workloads.operation(name)
        self.check = workloads.checker(name)
        self.reference = REFERENCES[name]
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.raw_ns = 0
        self.speeds = []

    def step(self) -> int:
        """Run the next item; return its latency in ns."""
        item = self.items[self.next % len(self.items)]
        self.next += 1
        start = time.perf_counter_ns()
        try:
            result = self.op(item)
        except (ValueError, ArithmeticError):
            latency = time.perf_counter_ns() - start
            ok = False
        else:
            latency = time.perf_counter_ns() - start
            ok = self.check(item, result)
        self.attempted += 1
        self.failed += not ok
        return latency

    def warm_up(self) -> None:
        deadline = time.perf_counter() + WARMUP_S
        self.step()
        while time.perf_counter() < deadline:
            self.step()
        self.next = self.attempted = self.failed = 0

    def run(self, seconds: float, tracer=None) -> tuple[array, array]:
        """Latencies (ns, speed-scaled) of untraced and of traced operations."""
        plain, traced = array("d"), array("d")
        speed = host_speed(self.reference)
        deadline = time.perf_counter() + seconds
        block = 0
        # at least one block, and in a traced run one of each kind
        while block < (1 if tracer is None else 2) or time.perf_counter() < deadline:
            tracing_on = tracer is not None and block % 2 == 1
            block_end = min(deadline, time.perf_counter() + BLOCK_S)
            with tracer.installed() if tracing_on else nullcontext():
                latencies = [self.step()]
                while time.perf_counter() < block_end:
                    latencies.append(self.step())
            after = host_speed(self.reference)
            factor = (speed + after) / 2.0
            (traced if tracing_on else plain).extend(t * factor for t in latencies)
            self.raw_ns += sum(latencies)
            self.speeds.append(factor)
            speed = after
            block += 1
        return plain, traced

    def probe_defects(self) -> dict[str, int]:
        """Untimed: outcomes on the draws kept out of the timed items."""
        counts = {"configs": len(self.probe), "raised": 0, "failed_check": 0}
        for item in self.probe:
            try:
                result = self.op(item)
            except (ValueError, ArithmeticError):
                counts["raised"] += 1
            else:
                counts["failed_check"] += not self.check(item, result)
        return counts


def environment() -> dict[str, object]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "host": "unpinned, shared host",
    }


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, name: str, seed: int, seconds: float, info: dict) -> dict:
    loop.warm_up()
    # set-up probes run between slices of the loop, so that both sample
    # the host over the whole run
    latencies, setups = array("d"), []
    for _ in range(SETUP_REPEATS):
        latencies += loop.run(seconds / SETUP_REPEATS)[0]
        setups.append(setup_seconds(name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = np.frombuffer(latencies) / 1e6
    percentiles = dict(zip(INFO_PERCENTILES, np.percentile(ms, INFO_PERCENTILES).tolist()))
    info["latency_ms"] = {"samples": len(ms), "tail_percentile": TAIL_PERCENTILE,
                          **{f"p{q:g}": v for q, v in percentiles.items()}}
    info["raw"] = {
        "ops_per_s": len(ms) / (loop.raw_ns / 1e9),
        "setup_s": statistics.median(raw for raw, _ in setups),
        "host_speed_median": statistics.median(loop.speeds),
    }
    return {
        "setup_s": metric(statistics.median(scaled for _, scaled in setups), "s"),
        "ops_per_s": metric(len(ms) / (ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": metric(percentiles[50.0], "ms"),
        "latency_tail_ms": metric(percentiles[TAIL_PERCENTILE], "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(loop: Loop, name: str, seed: int, seconds: float) -> dict:
    tracer = tracing.Tracer()
    loop.warm_up()
    plain, traced = loop.run(seconds, tracer)
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{name}.npz")
    ops = len(traced)
    out = {}
    for target, (calls, self_ns) in tracer.layer_totals().items():
        out[f"{target}.calls_per_op"] = metric(calls / ops, "count")
        out[f"{target}.self_us_per_op"] = metric(self_ns / 1e3 / ops, "us")
    for target, nbytes in tracer.computed_bytes.items():
        out[f"{target}.computed_mb_per_op"] = metric(nbytes / MiB / ops, "MB")
    # mean latency traced over untraced, blocks interleaved
    out["trace.slowdown"] = metric((sum(traced) / ops) / (sum(plain) / len(plain)), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loop = Loop(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    if args.trace:
        results = per_layer(loop, args.workload, args.seed, args.seconds)
    else:
        results = end_to_end(loop, args.workload, args.seed, args.seconds, info)
    if loop.probe:
        info["probe"] = loop.probe_defects()
    info["failed_frac"] = loop.failed / loop.attempted
    print(json.dumps(info))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
