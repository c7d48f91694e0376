"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-quick --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the program from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the spans run: one unwrapped pass for the baseline,
then one pass with every layer function wrapped, reporting per-layer
counts and self times (and a share table on standard error). Either
way every pass is checked against ``golden.json`` and the workload's
own checks, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The process pins itself to one CPU, and every time it reports is
corrected for host contention by the speed probe in ``probe.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11

# The Table 1 quick sweep's cells, for experiments.table1.cell.<name>.s.
CELLS = (
    "tree",
    "grid1d",
    "grid1d-finite",
    "grid2d",
    "gridd",
    "gridd-reduced",
    "isothetic",
    "redundancy-gap",
    "diagonal",
    "general",
    "geometric",
    "pathological",
    "nonuniform",
    "example1",
    "example2",
    "ballcover",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from layers import LAYERS

    units: dict[str, str] = {}
    for name in LAYERS + ("bench.pass", "experiments.table1.cell"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.self_share"] = "ratio"
    units.update(
        {
            "core.memory.load.vertices": "count",
            "adversaries.covers_per_step": "ratio",
            "core.engine.steps": "count",
            "core.engine.faults": "count",
            "core.engine.hit_ratio": "ratio",
            "obs.sink.events": "count",
            "obs.sink.bytes": "bytes",
            "cache.hits": "count",
            "cache.misses": "count",
            "cache.build_s": "s",
            "service.cache.hits": "count",
            "service.cache.misses": "count",
            "service.cache.coalesced": "count",
            "service.cache.evictions": "count",
            "service.cache.hit_ratio": "ratio",
            "service.request.queue_wait_ms_p50": "ms",
            "service.request.serve_ms_p50": "ms",
            "service.latency_units.p50": "units",
            "service.latency_units.p99": "units",
            "bench.spans_overhead_frac": "ratio",
        }
    )
    for cell in CELLS:
        units[f"experiments.table1.cell.{cell}.s"] = "s"
    return units


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int, probe) -> tuple[float, list[str]]:
    """Median wall time, corrected by the speed probe, of fresh processes
    that import the program and build the workload's inputs, then exit."""
    samples = []
    problems = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        end = time.perf_counter()
        samples.append((end - start) * probe.speed(start, end))
        if proc.returncode != 0:
            problems.append(f"set-up process failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(samples), problems


class Checker:
    """Applies the golden digests and cross-pass identity to passes."""

    def __init__(self, workload: str, seed: int) -> None:
        import golden

        self._golden = golden.load()
        self._check = golden.check
        self.workload = workload
        self.seed = seed
        self.first_digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems
        self.problems += self._check(self._golden, self.workload, self.seed, result)
        if self.first_digest is None:
            self.first_digest = result.digest
        elif result.digest != self.first_digest:
            self.problems.append(
                f"{self.workload}: pass digest {result.digest} differs from "
                f"the run's first pass {self.first_digest}"
            )


def timed_run(cls, args, workdir: str, checker: Checker) -> dict:
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        setup_s, problems = measure_setup(args.workload, args.seed, probe)
        checker.problems += problems
        workload = cls(args.seed, workdir)
        if getattr(cls, "WARMUP", False):
            checker(workload.run_pass())
        passes: list = []
        speeds: list[float] = []
        elapsed = 0.0
        # Start another pass only while it should end within --seconds.
        while len(passes) < 2 or elapsed + passes[-1].seconds <= args.seconds:
            start = time.perf_counter()
            result = workload.run_pass()
            speeds.append(probe.speed(start, time.perf_counter()))
            checker(result)
            passes.append(result)
            elapsed += result.seconds
    # Every time is corrected for host contention (probe.py): multiplied
    # by the host's mean speed over the pass it was measured in.
    wall = statistics.median(p.seconds * speed for p, speed in zip(passes, speeds))
    # Every pass makes the same requests in the same order. A request's
    # latency is its median over the passes, so that a stall of the host
    # that hits one pass does not move the tail. A request that failed
    # has no latency; it is counted in `failed`, which makes the run
    # incorrect.
    per_request = zip(*([t * speed for t in p.latencies] for p, speed in zip(passes, speeds)))
    requests = [
        latency for latency in map(statistics.median, per_request) if latency != math.inf
    ] or [math.nan]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "steps_per_s": passes[0].steps / wall,
        "requests_per_s": len(requests) / wall,
        "latency_p50_ms": statistics.median(requests) * 1000,
        "latency_p99_ms": percentile(requests, 99) * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    print(
        f"{args.workload}: {len(passes)} pass(es) of {len(requests)} request(s); "
        f"measured pass seconds {[round(p.seconds, 3) for p in passes]}, "
        f"host speed {[round(s, 3) for s in speeds]}",
        file=sys.stderr,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(cls, args, workdir: str, checker: Checker) -> dict:
    from layers import LAYERS, install
    from probe import SpeedProbe
    from spans import SpanRecorder

    workload = cls(args.seed, workdir)
    if getattr(cls, "WARMUP", False):
        checker(workload.run_pass())
    rec = SpanRecorder()
    # Times in seconds are corrected for host contention as in timed runs.
    with SpeedProbe() as probe:
        start = time.perf_counter()
        baseline = workload.run_pass()
        base_speed = probe.speed(start, time.perf_counter())
        install(rec)
        try:
            start = time.perf_counter()
            traced = workload.run_pass(rec)
            speed = probe.speed(start, time.perf_counter())
        finally:
            rec.unpatch()
    checker(baseline)
    checker(traced)

    units = per_layer_units()
    values = {name: 0.0 for name in units}
    by_name = rec.by_name()
    busy = {n: v for n, v in by_name.items() if n != "service.wait"}
    total_self = sum(self_s for _calls, self_s in busy.values()) or 1.0
    for name in LAYERS + ("bench.pass", "experiments.table1.cell"):
        calls, self_s = by_name.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s * speed
        values[f"{name}.self_share"] = self_s / total_self
    counts = rec.counts()
    for key in ("core.memory.load.vertices", "core.engine.steps", "core.engine.faults"):
        values[key] = counts.get(key, 0)
    steps = values["adversaries.step.calls"]
    values["adversaries.covers_per_step"] = (
        values["core.memory.covers.calls"] / steps if steps else 0.0
    )
    if values["core.engine.steps"]:
        values["core.engine.hit_ratio"] = 1 - values["core.engine.faults"] / values[
            "core.engine.steps"
        ]
    values["obs.sink.events"] = values["obs.sink.calls"]
    values["obs.sink.bytes"] = traced.extra.get("trace_bytes", 0)
    values["cache.hits"] = traced.extra.get("cache_hits", 0)
    values["cache.misses"] = traced.extra.get("cache_misses", 0)
    values["cache.build_s"] = speed * sum(
        end - start
        for start, end, outermost in rec.records("cache.get_or_build")
        if outermost
    )
    for cell, seconds in baseline.extra.get("cell_s", {}).items():
        values[f"experiments.table1.cell.{cell}.s"] = seconds * base_speed
    service_cache = traced.extra.get("cache")
    if service_cache is not None:
        for key, value in service_cache.items():
            values[f"service.cache.{key}"] = value
        submits = rec.records("service.submit")
        serves = rec.records("service.serve")
        # Lockstep serves requests in submit order: pair them by index.
        waits = [serve[0] - submit[0] for submit, serve in zip(submits, serves)]
        values["service.request.queue_wait_ms_p50"] = statistics.median(waits) * speed * 1000
        values["service.request.serve_ms_p50"] = (
            statistics.median(end - start for start, end, _outer in serves) * speed * 1000
        )
        units_p = traced.extra["latency_units"]
        values["service.latency_units.p50"] = units_p["p50"]
        values["service.latency_units.p99"] = units_p["p99"]
    values["bench.spans_overhead_frac"] = (
        traced.seconds * speed / (baseline.seconds * base_speed) - 1
    )

    print(f"{args.workload}: self-time share of the traced pass", file=sys.stderr)
    for name, (calls, self_s) in sorted(busy.items(), key=lambda kv: -kv[1][1]):
        print(
            f"  {name:32s} {calls:>10d} calls {self_s * speed:9.3f} s "
            f"{self_s / total_self:7.1%}",
            file=sys.stderr,
        )
    print(
        f"  spans overhead: {values['bench.spans_overhead_frac']:.1%} "
        f"({baseline.seconds * base_speed:.2f} s -> {traced.seconds * speed:.2f} s "
        f"at the reference speed; measured {baseline.seconds:.2f} s -> "
        f"{traced.seconds:.2f} s)",
        file=sys.stderr,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the program, build the workload's inputs and exit "
        "(the process that setup_s times)",
    )
    args = parser.parse_args(argv)

    if not args.setup_only:
        # Before any thread starts; the set-up processes inherit it.
        pin_to_one_cpu()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_only:
            cls(args.seed, workdir)
            return 0
        checker = Checker(args.workload, args.seed)
        run = traced_run if args.trace else timed_run
        metrics = run(cls, args, workdir, checker)
    for problem in checker.problems:
        print(f"verification: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not checker.problems and not checker.failed,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
