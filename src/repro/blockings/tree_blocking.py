"""Complete-tree blockings (Section 5.2, Figure 4).

* :func:`naive_subtree_blocking` — the "obvious" packing of disjoint
  height-``k`` subtrees into blocks (``s = 1``). The paper notes an
  adversary bouncing across block boundaries holds it to ``sigma ~ 2``
  — this is the cautionary baseline.
* :func:`overlapped_tree_blocking` — Lemma 17: the same stratification
  *twice*, the second copy offset by half a stratum (``s = 2``). A
  pathfront leaving a block of one copy lands mid-block in the other,
  guaranteeing ``sigma >= lg B / (2 lg d)``.

Both are implicit: a block is identified by its root vertex, and
membership is depth arithmetic on the heap indices. Heap order is also
what makes a block cheap to build: the ``j``-th level below a root
``r`` is the contiguous index run ``[r d^j + (d^j - 1)/(d - 1),
(r + 1) d^j + (d^j - 1)/(d - 1) - 1]``, so a ``k``-level block is ``k``
ranges (each the previous one's ``[d lo + 1, d hi + d]``), never a
per-vertex ``children()`` walk — the blocked tree layout of
path-traversal work on external-memory trees.
"""

from __future__ import annotations

from itertools import chain

from repro.blockings.union import UnionBlocking
from repro.core.blocking import ImplicitBlocking
from repro.errors import BlockingError
from repro.graphs.tree import CompleteTree
from repro.typing import BlockId, Vertex


def tree_block_levels(block_size: int, arity: int) -> int:
    """The tallest ``k`` with ``(d^k - 1)/(d - 1) <= B``: how many full
    tree levels fit in one block."""
    if block_size < 1:
        raise BlockingError(f"block size must be >= 1, got {block_size}")
    levels = 0
    while (arity ** (levels + 1) - 1) // (arity - 1) <= block_size:
        levels += 1
    if levels == 0:
        raise BlockingError(f"B={block_size} cannot hold even one vertex?")
    return levels


class TreeStrataBlocking(ImplicitBlocking):
    """One stratification of a complete tree into subtree blocks.

    Strata boundaries sit at depths ``offset, offset + k, ...``; each
    block is the ``k``-level subtree hanging from a stratum root (the
    children of a block's bottom level are the roots of the next
    stratum's blocks). When ``offset > 0`` there is an additional
    partial block of ``offset`` levels at the very top. ``s = 1``:
    every vertex lies in exactly one block.
    """

    def __init__(
        self, tree: CompleteTree, block_size: int, levels: int, offset: int = 0
    ) -> None:
        if levels < 1:
            raise BlockingError(f"levels must be >= 1, got {levels}")
        if not 0 <= offset < levels:
            raise BlockingError(
                f"offset must be in [0, levels), got {offset} with {levels}"
            )
        block_vertices = (tree.arity ** levels - 1) // (tree.arity - 1)
        if block_vertices > block_size:
            raise BlockingError(
                f"{levels} levels of a {tree.arity}-ary tree hold "
                f"{block_vertices} vertices, exceeding B={block_size}"
            )
        super().__init__(block_size, blowup=1.0)
        self._tree = tree
        self._levels = levels
        self._offset = offset

    @property
    def tree(self) -> CompleteTree:
        return self._tree

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def offset(self) -> int:
        return self._offset

    def _stratum_start(self, depth: int) -> int:
        """The depth at which the block containing depth ``depth`` starts."""
        if depth < self._offset:
            return 0
        return self._offset + ((depth - self._offset) // self._levels) * self._levels

    def _block_levels(self, start: int) -> int:
        """How many levels the block starting at ``start`` spans, cut
        short at the leaves (the partial top block too, on a tree
        shorter than ``offset``)."""
        span = self._offset if start == 0 and self._offset > 0 else self._levels
        return min(span, self._tree.height - start + 1)

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        depth = self._tree.depth(vertex)
        root = self._tree.ancestor_at_depth(vertex, self._stratum_start(depth))
        return (root,)

    def _materialize(self, block_id: BlockId) -> frozenset[int]:
        tree = self._tree
        if not tree.has_vertex(block_id):
            raise BlockingError(f"unknown block root {block_id!r}")
        start = tree.depth(block_id)
        if start != self._stratum_start(start):
            raise BlockingError(f"{block_id!r} is not a stratum root")
        # Heap order stores each level of the subtree as one contiguous
        # index run: level j below the root spans [d*lo + 1, d*hi + d].
        d = tree.arity
        ranges: list[range] = []
        lo = hi = block_id
        for _ in range(self._block_levels(start)):
            ranges.append(range(lo, hi + 1))
            lo, hi = d * lo + 1, d * hi + d
        return frozenset(chain.from_iterable(ranges))

    def interior_distance(self, block_id: BlockId, vertex: Vertex) -> float:
        """Steps from ``vertex`` to the nearest vertex outside its
        block: out through the top (to the stratum root's parent) or
        out through the bottom (to a child of the block's last level).
        Sides of a subtree block border nothing — a tree has no lateral
        edges — and blocks touching the tree's root or leaves have no
        exit that way."""
        tree = self._tree
        start = tree.depth(block_id)
        depth = tree.depth(vertex)
        bottom = start + self._block_levels(start) - 1
        up = float("inf") if start == 0 else (depth - start) + 1
        down = float("inf") if bottom >= tree.height else (bottom - depth) + 1
        return min(up, down)


def naive_subtree_blocking(
    tree: CompleteTree, block_size: int
) -> TreeStrataBlocking:
    """The ``s = 1`` baseline: disjoint maximal subtree blocks."""
    return TreeStrataBlocking(
        tree, block_size, tree_block_levels(block_size, tree.arity), offset=0
    )


def overlapped_tree_blocking(tree: CompleteTree, block_size: int) -> UnionBlocking:
    """Lemma 17: two stratifications offset by half a stratum, s = 2."""
    levels = tree_block_levels(block_size, tree.arity)
    if levels < 2:
        raise BlockingError(
            f"B={block_size} holds only one level of a {tree.arity}-ary "
            "tree; the overlapped blocking needs at least two"
        )
    return UnionBlocking(
        [
            TreeStrataBlocking(tree, block_size, levels, offset=0),
            TreeStrataBlocking(tree, block_size, levels, offset=levels // 2),
        ]
    )
