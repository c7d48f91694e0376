"""Tree blockings: the naive stratification and Lemma 17's overlap."""

import math

import pytest

from repro import BlockingError, CompleteTree
from repro.blockings import (
    TreeStrataBlocking,
    naive_subtree_blocking,
    overlapped_tree_blocking,
    tree_block_levels,
)


class TestTreeBlockLevels:
    def test_binary(self):
        assert tree_block_levels(15, 2) == 4   # 2^4-1 = 15
        assert tree_block_levels(14, 2) == 3
        assert tree_block_levels(1, 2) == 1

    def test_ternary(self):
        assert tree_block_levels(13, 3) == 3   # 1+3+9

    def test_invalid(self):
        with pytest.raises(BlockingError):
            tree_block_levels(0, 2)


class TestStrataBlocking:
    def test_every_vertex_in_one_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        for v in tree.vertices():
            bids = blocking.blocks_for(v)
            assert len(bids) == 1
            assert v in blocking.block(bids[0])

    def test_partition_is_exact(self):
        tree = CompleteTree(2, 5)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        seen = set()
        for v in tree.vertices():
            block = blocking.block(blocking.blocks_for(v)[0])
            seen.update(block.vertices)
        assert seen == set(tree.vertices())

    def test_block_is_subtree(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        root = 1  # depth 1? no: stratum roots at depths 0,3,6
        block = blocking.block(0)
        # Root block: depths 0..2 = 7 vertices.
        assert len(block) == 7

    def test_offset_creates_partial_top_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=4, offset=2)
        top = blocking.block(0)
        assert len(top) == 3  # depths 0..1

    def test_offset_strata_boundaries(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=4, offset=2)
        v = next(iter(tree.leaves()))  # depth 6
        root = blocking.blocks_for(v)[0]
        assert tree.depth(root) == 6  # strata at 2, 6

    def test_truncated_bottom_block(self):
        tree = CompleteTree(2, 4)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        leaf = next(iter(tree.leaves()))  # depth 4: stratum 3..4 only
        block = blocking.block(blocking.blocks_for(leaf)[0])
        assert len(block) == 3  # 1 + 2 (two levels)

    def test_levels_exceeding_b_rejected(self):
        tree = CompleteTree(2, 6)
        with pytest.raises(BlockingError):
            TreeStrataBlocking(tree, 10, levels=4)  # needs 15

    def test_bad_offset(self):
        tree = CompleteTree(2, 6)
        with pytest.raises(BlockingError):
            TreeStrataBlocking(tree, 15, levels=3, offset=3)

    def test_interior_distance_root_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        # Vertex at depth 0 in the root block: no exit upward; exit
        # downward at depth 3, i.e. distance 3.
        assert blocking.interior_distance(0, 0) == 3
        # Vertex at depth 2 (block bottom): one step down leaves.
        assert blocking.interior_distance(0, 4) == 1

    def test_interior_distance_leaf_block_infinite_down(self):
        tree = CompleteTree(2, 5)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        leaf = next(iter(tree.leaves()))  # depth 5, block depths 3..5
        stratum_root = blocking.blocks_for(leaf)[0]
        # Leaf's only exit is upward through the stratum root.
        expected_up = (tree.depth(leaf) - 3) + 1
        assert blocking.interior_distance(stratum_root, leaf) == expected_up

    def test_materialize_rejects_non_root(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        with pytest.raises(BlockingError):
            blocking.block(1)  # depth 1 is not a stratum root


def _reference_block(tree, root, levels, offset):
    """A stratum root's block by walking ``children()`` down to the
    next stratum boundary (or the leaves)."""
    start = tree.depth(root)
    boundary = offset if start == 0 and offset > 0 else start + levels
    members, frontier = {root}, [root]
    while frontier:
        frontier = [
            c for v in frontier for c in tree.children(v)
            if tree.depth(c) < boundary
        ]
        members.update(frontier)
    return members


class TestMaterializeFromHeapRanges:
    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("height", [0, 1, 4, 5])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_matches_children_walk(self, arity, height, levels):
        """Every stratum root's block, for every offset — the partial
        top block (offset > 0) and bottom blocks cut short at the leaves
        included — equals the children() walk."""
        tree = CompleteTree(arity, height)
        block_size = (arity**levels - 1) // (arity - 1)
        for offset in range(levels):
            blocking = TreeStrataBlocking(tree, block_size, levels, offset)
            starts = {0} | set(range(offset or levels, height + 1, levels))
            roots = [v for v in tree.vertices() if tree.depth(v) in starts]
            covered = set()
            for root in roots:
                vertices = blocking.block(root).vertices
                assert vertices == _reference_block(tree, root, levels, offset)
                covered |= vertices
            assert covered == set(tree.vertices())

    def test_unknown_root_rejected(self):
        tree = CompleteTree(3, 3)
        blocking = TreeStrataBlocking(tree, 13, levels=3)
        with pytest.raises(BlockingError, match="unknown block root"):
            blocking.block(tree.size)
        with pytest.raises(BlockingError, match="not a stratum root"):
            blocking.block(1)


class TestNaive:
    def test_blowup_1(self):
        tree = CompleteTree(2, 8)
        assert naive_subtree_blocking(tree, 15).storage_blowup() == 1.0


class TestOverlapped:
    def test_blowup_2(self):
        tree = CompleteTree(2, 8)
        assert overlapped_tree_blocking(tree, 15).storage_blowup() == 2.0

    def test_every_vertex_in_two_blocks(self):
        tree = CompleteTree(2, 8)
        blocking = overlapped_tree_blocking(tree, 15)
        for v in [0, 5, 100, 500]:
            assert len(blocking.blocks_for(v)) == 2

    def test_lemma17_half_stratum_guarantee(self):
        """Every vertex is at least k/2 from the boundary of one of its
        two blocks (or the block has no boundary there at all)."""
        tree = CompleteTree(2, 12)
        blocking = overlapped_tree_blocking(tree, 15)  # k = 4
        for v in range(0, 5000, 37):
            best = max(
                blocking.interior_distance(bid, v)
                for bid in blocking.blocks_for(v)
            )
            assert best >= 2  # k/2

    def test_needs_two_levels(self):
        tree = CompleteTree(2, 4)
        with pytest.raises(BlockingError):
            overlapped_tree_blocking(tree, 1)
