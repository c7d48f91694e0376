"""Golden output digests, recorded from the program and checked on
every pass of every run.

* ``sweep-quick`` and ``sweep-quick-recorded``: the digest of the
  sweep's rows (experiment, params, sigma, faults, steps; checks with
  their expected and measured values). The seed does not change them.
* ``sweep-quick-recorded``: also the SHA-256 and size of the JSONL
  trace, which is byte-identical from run to run.
* ``service-burst``: one digest per seed in ``SEEDS``, of the lockstep
  metrics snapshot. A seed outside ``SEEDS`` has no golden digest; its
  runs are still held to the seed-independent checks in
  ``workloads.py`` (every request replayed with no shared cache), and
  the engine they share with the sweeps is held to the sweeps' golden
  rows.

Every later pass of a run must also reproduce the run's first.

Regenerate after a change that is meant to alter outputs::

    python3 perfbench/golden.py                    # every workload
    python3 perfbench/golden.py service-burst      # only the named ones
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
SEEDS = range(128)
SEEDED = ("service-burst",)


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(golden: dict, workload: str, seed: int, result) -> list[str]:
    """Mismatches between one pass and the golden digests."""
    entry = golden[workload]
    problems = []
    if workload in SEEDED:
        want = entry.get(str(seed))
        if want is not None and result.digest != want:
            problems.append(f"{workload} seed {seed}: digest {result.digest} != golden {want}")
        return problems
    if result.digest != entry["rows"]:
        problems.append(f"{workload}: rows digest {result.digest} != golden {entry['rows']}")
    if "trace_sha256" in entry:
        for key in ("trace_sha256", "trace_bytes"):
            if result.extra.get(key) != entry[key]:
                problems.append(
                    f"{workload}: {key} {result.extra.get(key)} != golden {entry[key]}"
                )
    return problems


def record(names: list[str]) -> dict:
    """Run one pass of each named workload (each seed for the seeded
    ones) and return their digests."""
    from workloads import WORKLOADS

    out: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as workdir:
        for name in names:
            cls = WORKLOADS[name]
            if name in SEEDED:
                out[name] = {}
                for seed in SEEDS:
                    result = cls(seed, workdir).run_pass()
                    if result.problems or result.failed:
                        raise SystemExit(f"{name} seed {seed}: {result.problems}")
                    out[name][str(seed)] = result.digest
                continue
            result = cls(0, workdir).run_pass()
            if result.problems or result.failed:
                raise SystemExit(f"{name}: {result.problems}")
            out[name] = {"rows": result.digest}
            if "trace_sha256" in result.extra:
                out[name]["trace_sha256"] = result.extra["trace_sha256"]
                out[name]["trace_bytes"] = result.extra["trace_bytes"]
            print(f"{name}: recorded", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    golden = load() if GOLDEN_PATH.exists() else {}
    golden.update(record(sys.argv[1:] or list(WORKLOADS)))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
