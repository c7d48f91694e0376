"""The benchmark's three workloads, driven through the public API.

Each workload builds its inputs in ``__init__`` (that, plus the imports
it makes there, is the set-up that ``setup_s`` times) and then runs
identical *passes*. A pass returns its wall time, the latency of each
request in it (in the same order every pass; a sweep is one request),
the engine steps it simulated, the operations it attempted and failed,
and a digest of its outputs, which ``golden.py`` checks.

Why these three (see README.md for the layer map):

* ``sweep-quick`` is what users run, and it is where the fault path
  (O(B) memory-index upkeep per block read), blocking arithmetic and the
  corridor adversary's coverage search do most of their work.
* ``sweep-quick-recorded`` is the same sweep with event recording on;
  it is the only workload where ``repro.obs`` does real work.
* ``service-burst`` is the only workload through ``repro.service``:
  small private memories, so per-step work, per-request overhead,
  queueing and the shared block cache are the cost.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from spans import SpanRecorder


@dataclass
class PassResult:
    seconds: float
    latencies: list[float]
    steps: int
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _span(rec: SpanRecorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


def _jsonable(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


# ---------------------------------------------------------------------------
# Table 1 sweep (plain and recorded).
# ---------------------------------------------------------------------------


class SweepQuick:
    """The 16 cells of ``cell_specs(quick=True)``, run serially through
    ``run_cell`` on a reliable disk. The sweep is one request: its user
    waits for all of it. Each cell is timed for the spans run's report.

    The seed is ignored: Table 1 fixes the cells. Every pass starts
    with a cleared construction cache, because a CLI run without
    ``--cache-dir`` pays construction every time.
    """

    name = "sweep-quick"
    recorded = False
    GAMES = 26
    CHECKS = 54

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.cache import get_cache
        from repro.errors import ReproError
        from repro.experiments.table1 import cell_specs, run_cell
        from repro.obs import Instrumentation, JsonlSink, use_instrumentation

        self._cache = get_cache()
        self._run_cell = run_cell
        self._error = ReproError
        self._instrumentation = Instrumentation
        self._sink = JsonlSink
        self._ambient = use_instrumentation
        self.specs = cell_specs(quick=True)
        self.workdir = workdir
        self._verified_trace = False

    def _cells(self, rec: SpanRecorder | None):
        games: list = []
        checks: list = []
        cell_s: dict[str, float] = {}
        failed = 0
        for spec in self.specs:
            start = time.perf_counter()
            with _span(rec, "experiments.table1.cell"):
                try:
                    out = self._run_cell(spec)
                except self._error:
                    out = None
            cell_s[spec.name] = time.perf_counter() - start
            if out is None:
                failed += 1
                continue
            if spec.kind == "game":
                games += out
                failed += any(g.error is not None or not g.holds for g in out)
            else:
                checks += out
                failed += not all(c.holds for c in out)
        return games, checks, cell_s, failed

    def run_pass(self, rec: SpanRecorder | None = None) -> PassResult:
        self._cache.clear()
        gc.collect()
        stats_before = self._cache.stats.as_dict()
        trace_path = os.path.join(self.workdir, "sweep-trace.jsonl")
        with _span(rec, "bench.pass"):
            start = time.perf_counter()
            if self.recorded:
                instr = self._instrumentation(sink=self._sink(trace_path))
                with self._ambient(instr):
                    games, checks, cell_s, failed = self._cells(rec)
                instr.close()
            else:
                games, checks, cell_s, failed = self._cells(rec)
            seconds = time.perf_counter() - start
        stats_after = self._cache.stats.as_dict()
        result = PassResult(
            seconds=seconds,
            latencies=[seconds],
            steps=sum(g.steps for g in games),
            attempted=len(self.specs),
            failed=failed,
            digest=rows_digest(games, checks),
            extra={
                "cell_s": cell_s,
                "cache_hits": stats_after["hits"] - stats_before["hits"],
                "cache_misses": stats_after["misses"] - stats_before["misses"],
            },
        )
        holds = all(g.holds and g.error is None for g in games) and all(
            c.holds for c in checks
        )
        if not (holds and len(games) == self.GAMES and len(checks) == self.CHECKS):
            result.problems.append(
                f"{self.name}: expected 'All {self.GAMES} games and "
                f"{self.CHECKS} checks hold', got {len(games)} games, "
                f"{len(checks)} checks, all hold={holds}"
            )
        if self.recorded:
            self._check_trace(trace_path, result)
        return result

    def _check_trace(self, path: str, result: PassResult) -> None:
        """Hash the trace and (once per process, outside the timed
        region) reconstruct every run in it with the replay checker."""
        digest = hashlib.sha256()
        size = 0
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
        result.extra["trace_bytes"] = size
        result.extra["trace_sha256"] = digest.hexdigest()
        if not self._verified_trace:
            from repro.obs.replay import replay_file, verify_run

            runs = replay_file(path)
            bad = [m for run in runs for m in verify_run(run)]
            if not runs or bad:
                result.problems.append(
                    f"{self.name}: replay of {len(runs)} run(s) found "
                    f"{len(bad)} mismatch(es): {bad[:3]}"
                )
            result.extra["replayed_runs"] = len(runs)
            self._verified_trace = True
        os.unlink(path)


class SweepQuickRecorded(SweepQuick):
    """The same sweep with ``--trace-out``'s recording: an
    ``Instrumentation`` with a ``JsonlSink`` writing to a file."""

    name = "sweep-quick-recorded"
    recorded = True


def rows_digest(games: list, checks: list) -> str:
    digest = hashlib.sha256()
    for g in games:
        row = [g.experiment, g.params, repr(g.sigma), g.faults, g.steps]
        digest.update(_jsonable(row).encode() + b"\n")
    for c in checks:
        row = [c.experiment, c.description, repr(c.expected), repr(c.measured)]
        digest.update(_jsonable(row).encode() + b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Service burst.
# ---------------------------------------------------------------------------


class ServiceBurst:
    """A lockstep closed loop on the tree store through
    ``SearchService`` with its default configuration (2 workers, shared
    block cache): 8 Zipf-skewed clients, 1,000 requests per burst, each
    a walk of the load generator's default length (256 steps).

    The loop is ``loadgen.closed_loop`` with a clock around each
    submit-to-result wait: clients advance round-robin and each request
    is submitted only after the previous one completed.
    """

    name = "service-burst"
    # The store's blocking memoizes materialized blocks; the first pass fills it.
    WARMUP = True
    CLIENTS = 8
    REQUESTS_PER_CLIENT = 125
    TENANTS = ("alpha", "beta")

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.errors import ReproError
        from repro.experiments.loadgen import LoadSpec, generate_requests
        from repro.obs import MetricsRegistry
        from repro.service import (
            SearchService,
            ServiceConfig,
            StoreSpec,
            TenantConfig,
            build_store,
        )
        from repro.service.requests import run_request

        self._error = ReproError
        self._registry = MetricsRegistry
        self._service = SearchService
        self._config = ServiceConfig
        self._tenant = TenantConfig
        self._run_request = run_request
        self.store = build_store(StoreSpec(family="tree"))
        self.load = LoadSpec(
            clients=self.CLIENTS,
            requests_per_client=self.REQUESTS_PER_CLIENT,
            tenants=self.TENANTS,
            seed=seed,
        )
        self.streams = generate_requests(self.load, self.store)
        self._replayed = False

    def new_service(self):
        metrics = self._registry()
        service = self._service(
            self.store,
            [self._tenant(name) for name in self.TENANTS],
            self._config(),
            metrics=metrics,
        )
        return service, metrics

    def run_pass(self, rec: SpanRecorder | None = None) -> PassResult:
        gc.collect()
        latencies = []
        outcomes = []
        failed = 0
        perf = time.perf_counter
        with _span(rec, "bench.pass"):
            start = perf()
            service, metrics = self.new_service()
            try:
                for index in range(self.load.requests_per_client):
                    for stream in self.streams:
                        t0 = perf()
                        try:
                            future = service.submit(stream[index])
                            with _span(rec, "service.wait"):
                                outcome = future.result()
                        except self._error:
                            # Keeps the request's position across passes;
                            # counted in `failed`.
                            failed += 1
                            latencies.append(math.inf)
                            continue
                        latencies.append(perf() - t0)
                        outcomes.append(outcome)
            finally:
                stats = service.drain()
            seconds = perf() - start
        snapshot = _jsonable(metrics.snapshot())
        result = PassResult(
            seconds=seconds,
            latencies=latencies,
            steps=sum(o.steps for o in outcomes),
            attempted=self.CLIENTS * self.REQUESTS_PER_CLIENT,
            failed=failed,
            digest=hashlib.sha256(snapshot.encode()).hexdigest(),
            extra={
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "coalesced": stats.coalesced,
                    "evictions": stats.evictions,
                    "hit_ratio": stats.hit_ratio or 0.0,
                },
                "latency_units": metrics.histogram("service_latency").percentiles(
                    (50.0, 99.0)
                ),
            },
        )
        completed = metrics.counter("service_completed").snapshot()
        if completed + failed != result.attempted:
            result.problems.append(
                f"{self.name}: {completed} completed + {failed} failed "
                f"!= {result.attempted} submitted"
            )
        result.problems += self._check_outcomes(outcomes, stats)
        return result

    def _check_outcomes(self, outcomes: list, stats) -> list[str]:
        """Seed-independent checks of a pass's outcomes.

        Every request walks its full length, and each fault is one
        block fetched through the shared cache (a hit, a miss or a
        coalesced wait), as the cache's own totals must agree. Once per
        run (outside the timed region) every request is replayed on its
        own with no shared cache: the private memory plays the same
        game, so its steps and faults must be the same.
        """
        problems = []
        short = [o.spec.name for o in outcomes if o.steps != o.spec.num_steps]
        if short:
            problems.append(
                f"{self.name}: {len(short)} request(s) cut short: {short[:3]}"
            )
        unread = [
            o.spec.name
            for o in outcomes
            if o.hits + o.misses + o.coalesced != o.faults
        ]
        if unread:
            problems.append(
                f"{self.name}: {len(unread)} request(s) whose faults are not "
                f"hits + misses + coalesced: {unread[:3]}"
            )
        totals = [sum(o.hits for o in outcomes), sum(o.misses for o in outcomes),
                  sum(o.coalesced for o in outcomes)]
        shared = [stats.hits, stats.misses, stats.coalesced]
        if totals != shared:
            problems.append(
                f"{self.name}: requests' hits/misses/coalesced {totals} != the "
                f"shared cache's {shared}"
            )
        if not self._replayed:
            self._replayed = True
            differ = []
            for o in outcomes:
                trace, _ = self._run_request(self.store, o.spec, cache=None)
                if (trace.steps, trace.faults) != (o.steps, o.faults):
                    differ.append(o.spec.name)
            if differ:
                problems.append(
                    f"{self.name}: {len(differ)} request(s) differ from their "
                    f"isolated replay in steps or faults: {differ[:3]}"
                )
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (SweepQuick, SweepQuickRecorded, ServiceBurst)
}
