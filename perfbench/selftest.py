"""Self-tests of the benchmark itself (a few minutes).

    python3 perfbench/selftest.py

Checks, each by running ``run.py`` as a benchmark harness would:

1. the printed metric names and units match ``BENCHMARK.json``
   (``--trace 0`` gives every end-to-end metric, none of them zero;
   ``--trace 1`` gives every per-layer metric);
2. every per-layer count repeats exactly across two spans runs at one
   seed;
3. seeds not used while the benchmark was tuned still pass output
   verification: 100 (inside the golden table) and 7919 (outside it,
   so only the seed-independent checks apply);
4. the service workload's timed lockstep loop produces the same
   metrics snapshot as ``loadgen.closed_loop``;
5. with only ``BENCHMARK.json`` and ``perfbench/`` present the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-layer metrics that are timings; every other one is an exact count.
TIMED_UNITS = {"s", "ms"}
TIMED_SUFFIXES = (".self_share", "spans_overhead_frac")


def run(workload: str, seed: int, trace: int, seconds: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_timing(name: str, unit: str) -> bool:
    return unit in TIMED_UNITS or name.endswith(TIMED_SUFFIXES)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import golden
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    gated = [w["name"] for w in bench["workloads"]]
    check(set(gated) <= set(WORKLOADS), f"BENCHMARK.json workloads {gated} exist")
    # Every workload, gated or run on demand, prints the same metrics.
    for name in WORKLOADS:
        seed = 7919 if name in golden.SEEDED else 0
        doc = result_of(run(name, seed, 0))
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        check(got == want_e2e, f"{name}: --trace 0 metric names and units match")
        check(
            all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                and v["value"] != 0 for v in doc["metrics"].values()),
            f"{name}: every end-to-end value is a finite non-zero number",
        )
        check(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
              f"{name}: seed {seed} passes output verification")

        first = result_of(run(name, 100, 1))
        second = result_of(run(name, 100, 1))
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        check(got == want_layer, f"{name}: --trace 1 metric names and units match")
        check(first["correct"] and second["correct"],
              f"{name}: seed 100 passes output verification in spans runs")
        drift = [
            k for k, unit in want_layer.items()
            if not is_timing(k, unit)
            and first["metrics"][k]["value"] != second["metrics"][k]["value"]
        ]
        check(not drift, f"{name}: per-layer counts repeat exactly {drift[:5]}")

    from repro.experiments.loadgen import closed_loop
    from workloads import ServiceBurst

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        burst = ServiceBurst(3, workdir)
        timed = burst.run_pass().digest
        service, metrics = burst.new_service()
        try:
            closed_loop(service, burst.load)
        finally:
            service.drain()
        reference = json.dumps(
            metrics.snapshot(), sort_keys=True, separators=(",", ":"), default=repr
        )
        check(timed == hashlib.sha256(reference.encode()).hexdigest(),
              "service-burst: timed loop matches loadgen.closed_loop")

        bare = Path(workdir) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sweep-quick", 0, 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the program the benchmark fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
