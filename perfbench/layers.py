"""Which program functions the traced run wraps, and under which name.

Each layer name is ``<module>.<function>``, as ``README.md`` uses it.
A layer may cover the same method on several classes: every subclass
of the listed base that defines the method itself is wrapped, so a
blocking or adversary added later is measured without touching this
file.
"""

from __future__ import annotations

from typing import Iterator

from spans import SpanRecorder


def _subclasses(base: type) -> Iterator[type]:
    seen: set[type] = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


def _patch_all(
    rec: SpanRecorder, name: str, base: type, methods: tuple[str, ...], **kw
) -> None:
    for cls in _subclasses(base):
        for method in methods:
            fn = cls.__dict__.get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            rec.patch(name, cls, method, **kw)


def _count_load(args: tuple, result: object, counts: dict) -> None:
    counts["core.memory.load.vertices"] = counts.get(
        "core.memory.load.vertices", 0
    ) + len(args[1])


def _count_run(args: tuple, trace, counts: dict) -> None:
    counts["core.engine.steps"] = counts.get("core.engine.steps", 0) + trace.steps
    counts["core.engine.faults"] = counts.get("core.engine.faults", 0) + trace.faults


# Layer spans, in report order. Manual spans opened by the workloads
# themselves (bench.pass, experiments.table1.cell, service.wait) come
# on top of these.
LAYERS = (
    "core.engine.run",
    "core.memory.visit",
    "core.memory.covers",
    "core.memory.load",
    "core.memory.evict_block",
    "graphs.neighbors",
    "graphs.tree.depth",
    "adversaries.step",
    "blockings.blocks_for",
    "blockings.block",
    "blockings.block.materialize",
    "analysis.tessellation.tile_of",
    "policies.choose",
    "paging.eviction.make_room",
    "obs.hook",
    "obs.sink",
    "cache.get_or_build",
    "service.submit",
    "service.serve",
    "service.cache.fetch",
)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer function; undo with ``rec.unpatch()``."""
    from repro.analysis.tessellation import Tessellation
    from repro.cache import ConstructionCache
    from repro.core.blocking import Blocking, ImplicitBlocking
    from repro.core.engine import Adversary, MemoryView, Searcher
    from repro.core.memory import Memory, WeakMemory
    from repro.core.policies import BlockChoicePolicy
    from repro.graphs.base import Graph
    from repro.graphs.tree import CompleteTree
    from repro.obs.instrument import Instrumentation
    from repro.obs.sinks import JsonlSink
    from repro.paging.eviction import EvictionPolicy
    from repro.service.cache import SharedBlockCache
    from repro.service.server import SearchService

    rec.patch("core.engine.run", Searcher, "run_adversary", count=_count_run)
    rec.patch("core.engine.run", Searcher, "run_path", count=_count_run)
    _patch_all(rec, "core.memory.visit", Memory, ("visit",))
    # Adversaries probe coverage through the read-only view.
    rec.patch("core.memory.covers", MemoryView, "covers")
    rec.patch("core.memory.covers", MemoryView, "uncovered")
    _patch_all(rec, "core.memory.load", Memory, ("load",), count=_count_load)
    rec.patch("core.memory.evict_block", WeakMemory, "evict_block")
    _patch_all(rec, "graphs.neighbors", Graph, ("neighbors",))
    rec.patch("graphs.tree.depth", CompleteTree, "depth")
    _patch_all(rec, "adversaries.step", Adversary, ("step",))
    _patch_all(rec, "blockings.blocks_for", Blocking, ("blocks_for",))
    _patch_all(rec, "blockings.block", Blocking, ("block",))
    _patch_all(rec, "blockings.block.materialize", ImplicitBlocking, ("_materialize",))
    _patch_all(rec, "analysis.tessellation.tile_of", Tessellation, ("tile_of",))
    _patch_all(rec, "policies.choose", BlockChoicePolicy, ("choose",))
    _patch_all(rec, "paging.eviction.make_room", EvictionPolicy, ("make_room",))
    _patch_all(
        rec,
        "obs.hook",
        Instrumentation,
        (
            "run_start",
            "step",
            "fault",
            "block_read",
            "retry",
            "fallback",
            "eviction",
            "run_end",
        ),
    )
    rec.patch("obs.sink", JsonlSink, "emit")
    rec.patch("cache.get_or_build", ConstructionCache, "get_or_build", raw=True)
    rec.patch("service.submit", SearchService, "submit", raw=True)
    rec.patch("service.serve", SearchService, "_serve", raw=True)
    rec.patch("service.cache.fetch", SharedBlockCache, "fetch")
