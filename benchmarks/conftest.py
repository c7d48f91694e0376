"""Shared benchmark helpers.

Every Table 1 benchmark runs one experiment function once (the games
are long deterministic traces — timing variance across rounds is not
the interesting output), asserts the paper's bounds hold, and attaches
the measured sigma / envelope to ``benchmark.extra_info`` so the
pytest-benchmark table doubles as the reproduction report.

At session end every ``bench_<name>.py`` module that ran gets its
timings and extra info rolled up (``repro.obs.bench_rollup``) into a
machine-readable ``BENCH_<name>.json`` at the repository root, so CI
and ad-hoc runs leave comparable artifacts without extra flags. With
``BENCH_HISTORY=PATH`` in the environment each rollup is additionally
appended to that history journal (``repro.obs.benchwatch``), labeled
by ``BENCH_LABEL`` — the hands-free way to grow the committed
``BENCH_history.jsonl`` the regression sentinel gates on. The label is
required: ``BENCH_HISTORY`` without ``BENCH_LABEL`` fails the session
before any benchmark runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[1]


def pytest_configure(config):
    """Refuse to grow the history with unlabeled records."""
    if os.environ.get("BENCH_HISTORY") and not os.environ.get("BENCH_LABEL"):
        raise pytest.UsageError(
            "BENCH_HISTORY is set without BENCH_LABEL: every history "
            "record needs a run identity (e.g. BENCH_LABEL=<git sha>)"
        )


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<module>.json`` per benchmark module that ran."""
    config = session.config
    bench_session = getattr(config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    from repro.obs.profiling import bench_rollup, write_bench_json

    by_module: dict[str, list] = {}
    for meta in bench_session.benchmarks:
        module = meta.fullname.split("::")[0]
        stem = Path(module).stem
        if stem.startswith("bench_"):
            stem = stem[len("bench_"):]
        by_module.setdefault(stem, []).append(meta)
    history = os.environ.get("BENCH_HISTORY")
    for name, metas in sorted(by_module.items()):
        payload = bench_rollup(name, metas)
        write_bench_json(name, payload, root=_REPO_ROOT)
        if history:
            from repro.obs.benchwatch import append_run

            append_run(history, payload, label=os.environ.get("BENCH_LABEL"))


def run_rows(benchmark, func, **kwargs):
    """Run ``func(**kwargs)`` under the benchmark once, assert every
    returned row holds, and record the rows as extra info."""
    results = benchmark.pedantic(
        lambda: func(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    rows = []
    for r in results:
        rows.append(
            {
                "experiment": r.experiment,
                "description": r.description,
                "sigma": round(r.sigma, 3),
                "lower": r.lower_bound,
                "upper": r.upper_bound,
                "s": r.storage_blowup,
            }
        )
        assert r.holds, f"bound violated: {r.description} (sigma={r.sigma:.3f})"
    benchmark.extra_info["rows"] = rows
    return results


def run_checks(benchmark, func, **kwargs):
    """Like :func:`run_rows` for closed-form CheckResult lists."""
    results = benchmark.pedantic(
        lambda: func(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    for c in results:
        assert c.holds, (
            f"check failed: {c.description} "
            f"(measured={c.measured}, expected={c.expected})"
        )
    benchmark.extra_info["checks"] = len(results)
    return results
