"""Engine micro-benchmarks: simulation throughput.

Not a paper artifact — these track the simulator's own speed so
regressions in the hot path (coverage checks, fault servicing, LRU
bookkeeping) are visible. Timed over multiple rounds, unlike the
one-shot Table 1 games.

The last two cases are the two Table 1 games that dominate the sweep
(the d=5, B=1024 redundancy gap and the tree row), shortened. Their
step and fault counts are asserted exactly, so a hot-path rewrite that
changes what the engine computes fails here, not only in the sweep.
"""

from repro import FirstBlockPolicy, ModelParams, Searcher
from repro.adversaries import (
    GridCorridorAdversary,
    RandomWalkAdversary,
    RootLeafAdversary,
)
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    offset_grid_blocking,
    overlapped_tree_blocking,
    uniform_grid_blocking,
)
from repro.graphs import CompleteTree, InfiniteGridGraph


def test_throughput_s1_random_walk(benchmark):
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        uniform_grid_blocking(2, 64),
        FirstBlockPolicy(),
        ModelParams(64, 256),
        validate_moves=False,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_s2_farthest_policy(benchmark):
    """The expensive configuration: coverage-aware policy BFS per fault."""
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        offset_grid_blocking(2, 64),
        FarthestFaultPolicy(graph),
        ModelParams(64, 256),
        validate_moves=False,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_move_validation_cost(benchmark):
    """Validation on: measures the overhead of checking each edge."""
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        uniform_grid_blocking(2, 64),
        FirstBlockPolicy(),
        ModelParams(64, 256),
        validate_moves=True,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_gap_corridor_d5_b1024(benchmark):
    """The redundancy-gap cell's s=2 game: M = 2B, so at most two
    resident blocks, and every fault re-scans the corridor."""
    graph = InfiniteGridGraph(5)
    searcher = Searcher(
        graph,
        offset_grid_blocking(5, 1024),
        FarthestFaultPolicy(graph),
        ModelParams(1024, 2048),
        validate_moves=False,
    )
    adversary = GridCorridorAdversary(5, 1024, 2048)
    trace = benchmark.pedantic(
        searcher.run_adversary, (adversary, 1_500), rounds=3, iterations=1
    )
    assert (trace.steps, trace.faults) == (1_500, 377)


def test_throughput_tree_lemma17(benchmark):
    """The tree cell's Lemma 17 game at ``tree_row``'s parameters."""
    tree = CompleteTree(2, 300)
    searcher = Searcher(
        tree,
        overlapped_tree_blocking(tree, 1023),
        MostInteriorPolicy(),
        ModelParams(1023, 2046),
        validate_moves=False,
    )
    adversary = RootLeafAdversary(tree)
    trace = benchmark.pedantic(
        searcher.run_adversary, (adversary, 2_000), rounds=3, iterations=1
    )
    assert (trace.steps, trace.faults) == (2_000, 391)
