"""Weak and strong memory models (Section 2, item 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ModelParams, PagingError, PagingModel, StrongMemory, WeakMemory
from repro.core.block import make_block
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


# A handful of small blocks over ten vertices, so blocks overlap often.
_block_pools = st.lists(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)
# (load?, which block) pairs; indices wrap around the pool.
_load_evict_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5)), max_size=60
)


class TestWeakMemoryIndex:
    """The weak model answers coverage from its one vertex -> holders
    index; it must agree with the resident blocks themselves."""

    @settings(max_examples=200, deadline=None)
    @given(pool=_block_pools, ops=_load_evict_ops)
    def test_index_matches_resident_blocks(self, pool, ops):
        mem = WeakMemory(ModelParams(4, 12))
        blocks = [make_block(i, vertices, 4) for i, vertices in enumerate(pool)]
        for load, pick in ops:
            blk = blocks[pick % len(blocks)]
            if load:
                while not mem.is_resident(blk.block_id) and not mem.room_for(
                    len(blk)
                ):
                    mem.evict_block(mem.lru_block())
                mem.load(blk)
            elif mem.is_resident(blk.block_id):
                mem.evict_block(blk.block_id)
            else:
                with pytest.raises(PagingError):
                    mem.evict_block(blk.block_id)

            resident = [mem.resident_block(b) for b in mem.resident_blocks()]
            for v in range(10):
                holders = [b.block_id for b in resident if v in b.vertices]
                assert mem.copies_of(v) == len(mem.covering_blocks(v))
                assert sorted(mem.covering_blocks(v)) == sorted(holders)
                assert mem.covers(v) == bool(holders)
            covered = set().union(*(b.vertices for b in resident))
            assert mem.covered_vertices() == covered
            assert mem.covered_count == len(mem.covered_vertices())
            assert mem.occupancy == sum(len(b) for b in resident)


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
