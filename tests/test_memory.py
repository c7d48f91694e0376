"""Weak and strong memory models (Section 2, item 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ModelParams, PagingError, PagingModel, StrongMemory, WeakMemory
from repro.core.block import Block, make_block
from repro.core.memory import make_memory


def block(bid, vertices, B=4):
    return make_block(bid, vertices, B)


class TestWeakMemory:
    def make(self, B=4, M=8) -> WeakMemory:
        return WeakMemory(ModelParams(B, M))

    def test_load_covers(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covers(1)
        assert not mem.covers(3)

    def test_occupancy_counts_copies(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2, 3}))
        assert mem.occupancy == 4
        assert mem.copies_of(2) == 2

    def test_capacity_enforced(self):
        mem = self.make(B=4, M=4)
        mem.load(block("a", {1, 2, 3, 4}))
        with pytest.raises(PagingError):
            mem.load(block("b", {5}))

    def test_reload_resident_block_is_noop(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("a", {1, 2}))
        assert mem.occupancy == 2

    def test_evict_block_removes_copies(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2, 3}))
        mem.evict_block("a")
        assert not mem.covers(1)
        assert mem.covers(2)  # still held by b
        assert mem.occupancy == 2

    def test_evict_non_resident_raises(self):
        with pytest.raises(PagingError):
            self.make().evict_block("ghost")

    def test_lru_order_tracks_loads(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        mem.load(block("c", {3}))
        assert mem.lru_order() == ["a", "b", "c"]

    def test_touch_refreshes_recency(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        mem.touch(1)  # block a used again
        assert mem.lru_order() == ["b", "a"]

    def test_touch_uncovered_vertex_noop(self):
        mem = self.make()
        mem.load(block("a", {1}))
        mem.touch(42)
        assert mem.lru_order() == ["a"]

    def test_covered_vertices(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covered_vertices() == {1, 2}

    def test_is_resident(self):
        mem = self.make()
        mem.load(block("a", {1}))
        assert mem.is_resident("a")
        assert not mem.is_resident("b")

    def test_visit_is_covers_plus_touch(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        assert mem.visit(1)  # covered: refreshes a's recency
        assert mem.lru_order() == ["b", "a"]
        assert not mem.visit(42)  # uncovered: no recency change
        assert mem.lru_order() == ["b", "a"]

    def test_visit_ticks_every_holder(self):
        mem = self.make(M=12)
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2}))
        mem.load(block("c", {3}))
        clock = mem.clock
        assert mem.visit(2)  # held by a and b: both tick
        assert mem.clock == clock + 2
        assert mem.lru_order() == ["c", "a", "b"]

    def test_lru_block_is_order_head(self):
        mem = self.make(M=12)
        assert mem.lru_block() is None
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        assert mem.lru_block() == "a"
        mem.visit(1)
        assert mem.lru_block() == "b"


class HolderIndexModel:
    """Reference weak memory built on a per-vertex holder index.

    Deliberately naive and independent of :class:`WeakMemory`, which
    keeps no per-vertex state: every vertex maps to the list of
    resident blocks holding it, appended in load order; recency is a
    plain list, least recently used first, and every use of a block is
    one clock tick. A visit ticks each holder of the vertex in that
    list's order.
    """

    def __init__(self, params: ModelParams) -> None:
        self.capacity = params.memory_size
        self.resident: dict = {}
        self.holders: dict = {}
        self.lru: list = []
        self.last: dict = {}
        self.clock = 0
        self.occupancy = 0

    def load(self, blk: Block) -> None:
        if blk.block_id in self.resident:
            self.tick(blk.block_id)
            return
        if self.occupancy + len(blk) > self.capacity:
            raise PagingError("over capacity")
        self.resident[blk.block_id] = blk
        self.occupancy += len(blk)
        for v in blk.vertices:
            self.holders.setdefault(v, []).append(blk.block_id)
        self.tick(blk.block_id)

    def evict_block(self, block_id) -> None:
        if block_id not in self.resident:
            raise PagingError("not resident")
        blk = self.resident.pop(block_id)
        self.occupancy -= len(blk)
        for v in blk.vertices:
            self.holders[v].remove(block_id)
            if not self.holders[v]:
                del self.holders[v]
        self.lru.remove(block_id)
        del self.last[block_id]

    def tick(self, block_id) -> None:
        self.clock += 1
        if block_id in self.lru:
            self.lru.remove(block_id)
        self.lru.append(block_id)
        self.last[block_id] = self.clock

    def touch(self, vertex) -> None:
        for block_id in list(self.holders.get(vertex, [])):
            self.tick(block_id)

    def visit(self, vertex) -> bool:
        covered = vertex in self.holders
        self.touch(vertex)
        return covered


# A handful of small blocks over ten vertices, so blocks overlap often.
_block_pools = st.lists(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)
_memory_ops = st.lists(
    st.tuples(
        st.sampled_from(["load", "evict", "visit", "touch"]),
        st.integers(0, 9),
    ),
    max_size=80,
)


def _same_outcome(call, reference, arg) -> None:
    """Apply one operation to both memories: either both accept it or
    both raise PagingError."""
    try:
        reference(arg)
    except PagingError:
        with pytest.raises(PagingError):
            call(arg)
    else:
        call(arg)


class TestWeakMemoryReference:
    """Differential test: WeakMemory against the holder-index model,
    including holder order and the exact clock ticks it implies."""

    @settings(max_examples=300, deadline=None)
    @given(
        pool=_block_pools, ops=_memory_ops, capacity=st.sampled_from([4, 8, 12])
    )
    def test_matches_holder_index_model(self, pool, ops, capacity):
        params = ModelParams(4, capacity)
        mem = WeakMemory(params)
        model = HolderIndexModel(params)
        blocks = [Block(i, vertices) for i, vertices in enumerate(pool)]
        for op, arg in ops:
            if op == "load":
                blk = blocks[arg % len(blocks)]
                _same_outcome(mem.load, model.load, blk)
            elif op == "evict":
                block_id = arg % len(blocks)
                _same_outcome(mem.evict_block, model.evict_block, block_id)
            elif op == "visit":
                assert mem.visit(arg) == model.visit(arg)
            else:
                mem.touch(arg)
                model.touch(arg)

            assert mem.clock == model.clock
            assert mem.lru_order() == model.lru
            assert mem.lru_block() == (model.lru[0] if model.lru else None)
            for block_id in mem.resident_blocks():
                assert mem.last_used(block_id) == model.last[block_id]
            assert mem.resident_blocks() == tuple(model.resident)
            assert mem.occupancy == model.occupancy
            for v in range(10):
                holders = tuple(model.holders.get(v, ()))
                assert mem.covering_blocks(v) == holders
                assert mem.covers(v) == bool(holders)
                assert mem.copies_of(v) == len(holders)
            assert mem.covered_vertices() == set(model.holders)
            assert mem.covered_count == len(model.holders)


class TestStrongMemory:
    def make(self, B=4, M=8) -> StrongMemory:
        return StrongMemory(ModelParams(B, M, PagingModel.STRONG))

    def test_load_covers(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covers(1)

    def test_evict_oldest_partial(self):
        # The strong model's distinguishing power: flush part of a block.
        mem = self.make()
        mem.load(block("a", {1, 2, 3, 4}))
        before = mem.covered_vertices()
        mem.evict_oldest(2)
        after = mem.covered_vertices()
        assert mem.occupancy == 2
        assert len(before - after) == 2

    def test_evict_more_than_resident_raises(self):
        mem = self.make()
        mem.load(block("a", {1}))
        with pytest.raises(PagingError):
            mem.evict_oldest(5)

    def test_evict_all(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.evict_all()
        assert mem.occupancy == 0
        assert not mem.covers(1)

    def test_duplicate_copies_counted(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {1, 3}))
        assert mem.copies_of(1) == 2
        assert mem.occupancy == 4

    def test_capacity_enforced(self):
        mem = self.make(B=4, M=4)
        mem.load(block("a", {1, 2, 3}))
        with pytest.raises(PagingError):
            mem.load(block("b", {4, 5}))

    def test_visit_is_coverage_only(self):
        # Copy-level recency is untracked, so visit is just the test.
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.visit(1)
        assert not mem.visit(42)
        mem.evict_all()
        assert not mem.visit(1)


class TestMakeMemory:
    def test_weak(self):
        assert isinstance(make_memory(ModelParams(2, 4)), WeakMemory)

    def test_strong(self):
        params = ModelParams(2, 4, PagingModel.STRONG)
        assert isinstance(make_memory(params), StrongMemory)
