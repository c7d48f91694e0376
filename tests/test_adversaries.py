"""Adversarial walkers: each realizes its lemma's upper bound."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdversaryError,
    FirstBlockPolicy,
    ModelParams,
    SearchTrace,
    WeakMemory,
    simulate_adversary,
)
from repro.adversaries import (
    CornerLoopAdversary,
    CycleAdversary,
    DiagonalCorridorAdversary,
    GreedyUncoveredAdversary,
    GridCorridorAdversary,
    RandomWalkAdversary,
    RootLeafAdversary,
    SpanningTreeCircuitAdversary,
    SteinerTourAdversary,
    UniformCornerAdversary,
)
from repro.analysis import theory
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    contiguous_1d_blocking,
    lemma13_blocking,
    naive_subtree_blocking,
    offset_grid_blocking,
    overlapped_tree_blocking,
    sheared_grid_blocking,
    uniform_grid_blocking,
)
from repro.core.block import Block
from repro.core.engine import MemoryView
from repro.graphs import (
    CompleteTree,
    InfiniteDiagonalGridGraph,
    InfiniteGridGraph,
    complete_graph,
    cycle_graph,
    star_graph,
    torus_graph,
)


class TestGreedy:
    def test_clique_forces_fault_per_step(self):
        """Section 2: K_{M+1} pins sigma <= 1."""
        M = 8
        graph = complete_graph(M + 1)
        blocking, policy = lemma13_blocking(graph, 4)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(4, M),
            GreedyUncoveredAdversary(graph, 0),
            500,
        )
        assert trace.speedup <= 1.0 + 1e-9

    def test_star_forces_fault_every_other_step(self):
        """Section 2: the planar M-star pins sigma <= 2."""
        M = 8
        graph = star_graph(4 * M)
        blocking, policy = lemma13_blocking(graph, 4)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(4, M),
            GreedyUncoveredAdversary(graph, 0),
            500,
        )
        assert trace.speedup <= 2.0 + 1e-9

    def test_caps_at_r_plus_m(self):
        """Lemma 7: no blocking beats r^+(M) against greedy."""
        from repro.analysis import max_radius

        graph = torus_graph((8, 8))
        M = 16
        blocking, policy = lemma13_blocking(graph, 8)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(8, M),
            GreedyUncoveredAdversary(graph, (0, 0)),
            2_000,
        )
        assert trace.speedup <= max_radius(graph, M) + 1e-9

    def test_stalls_gracefully_when_all_covered(self):
        graph = cycle_graph(6)
        blocking, policy = lemma13_blocking(graph, 6)
        # Memory big enough to hold the whole graph.
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(6, 36),
            GreedyUncoveredAdversary(graph, 0),
            100,
        )
        assert trace.steps == 100  # keeps pacing, no crash


class TestCorridor:
    def test_1d_caps_at_b(self):
        """Lemma 18: sigma <= B on the 1-D grid."""
        B = 32
        graph = InfiniteGridGraph(1)
        trace = simulate_adversary(
            graph,
            contiguous_1d_blocking(B),
            FirstBlockPolicy(),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(1, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= B + 1e-9
        # And Lemma 20's lower bound is met simultaneously.
        assert trace.min_gap >= B

    def test_2d_caps_at_2_sqrt_b(self):
        """Lemma 21: sigma <= 2 sqrt(B) on the 2-D grid."""
        B = 64
        graph = InfiniteGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(2, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.grid_upper(B, 2) + 1e-9

    def test_3d_caps_at_d_b_third(self):
        """Lemma 24: sigma <= d B^(1/d)."""
        B = 64
        graph = InfiniteGridGraph(3)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(3, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(3, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.grid_upper(B, 3) + 1e-9

    def test_diagonal_caps_at_2_b_root(self):
        """Lemma 25: sigma <= 2 B^(1/d) on diagonal grids."""
        B = 64
        graph = InfiniteDiagonalGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            DiagonalCorridorAdversary(2, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.diagonal_upper(B, 2) + 1e-9

    def test_moves_are_legal(self):
        """The engine validates every corridor move against the graph."""
        B = 16
        graph = InfiniteGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            MostInteriorPolicy(),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(2, B, 2 * B),
            500,
            validate_moves=True,
        )
        assert trace.steps == 500

    def test_base_placement(self):
        adv = GridCorridorAdversary(2, 16, 32, base=(100, 50))
        assert adv.start(None) == (100, 50)

    def test_invalid_width(self):
        with pytest.raises(AdversaryError):
            GridCorridorAdversary(2, 16, 32, width=0)

    @pytest.mark.parametrize("dim, block_size", [(2, 0), (3, -5), (1, -1)])
    def test_invalid_block_size(self, dim, block_size):
        """B < 1 is refused outright: B=0 used to yield a silent width-1
        corridor and a negative B a complex-number TypeError."""
        with pytest.raises(AdversaryError, match="block size"):
            GridCorridorAdversary(dim, block_size, 32)
        with pytest.raises(AdversaryError, match="block size"):
            DiagonalCorridorAdversary(dim, block_size, 32)

    def test_width_is_floor_root(self):
        assert GridCorridorAdversary(2, 63, 128).width == 7
        assert GridCorridorAdversary(2, 64, 128).width == 8
        assert GridCorridorAdversary(3, 26, 64).width == 2
        assert GridCorridorAdversary(5, 1024, 2048).width == 4
        assert DiagonalCorridorAdversary(1, 5, 10).width == 5


def _reference_target(dim, width, base, horizon, pathfront, view):
    """The corridor target as a per-cell probe loop: every cell through
    ``view.covers``, cross positions in scan order, and the first
    strictly nearer one wins."""
    cross_cells = list(
        itertools.product(*(range(b, b + width) for b in base[1:]))
    )
    x0, front = pathfront[0], pathfront[1:]
    for x in range(x0, x0 + horizon):
        best, best_dist = None, 0
        for cross in cross_cells:
            cell = (x,) + cross
            if not view.covers(cell):
                dist = sum(abs(c - p) for c, p in zip(cross, front))
                if best is None or dist < best_dist:
                    best, best_dist = cell, dist
        if best is not None:
            return best
    raise AdversaryError(
        f"no uncovered corridor cell within {horizon} columns — "
        "is memory larger than the whole corridor window?"
    )


_CORRIDOR_CASES = [
    (GridCorridorAdversary, 1),
    (GridCorridorAdversary, 2),
    (GridCorridorAdversary, 3),
    (GridCorridorAdversary, 5),
    (DiagonalCorridorAdversary, 2),
    (DiagonalCorridorAdversary, 3),
]


@st.composite
def corridor_scenarios(draw):
    cls, dim = draw(st.sampled_from(_CORRIDOR_CASES))
    width = draw(st.integers(1, {1: 6, 2: 4, 3: 3, 5: 2}[dim]))
    block_size = draw(st.integers(width**dim, (width + 1) ** dim - 1))
    memory_size = draw(st.integers(block_size, 3 * block_size))
    base = tuple(draw(st.integers(-5, 5)) for _ in range(dim))
    horizon = memory_size // width ** (dim - 1) + block_size + 4
    x0 = base[0] + draw(st.integers(-3, 3))
    pathfront = (x0,) + tuple(
        b + draw(st.integers(0, width - 1)) for b in base[1:]
    )

    def span(lo, start_hi, hi):
        a = draw(st.integers(lo, start_hi))
        return range(a, draw(st.integers(a, hi)) + 1)

    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        # Boxes start near the front, so the first uncovered column is
        # often partly covered and the nearest-position tie-break matters.
        xs = span(x0 - 2, x0 + 3, x0 + horizon + 1)
        cross = [span(b, b + width - 1, b + width - 1) for b in base[1:]]
        boxes.append(frozenset(itertools.product(xs, *cross)))
    if draw(st.booleans()):
        # Sometimes the whole scanned window is covered: no target.
        window = [range(x0, x0 + horizon)]
        window += [range(b, b + width) for b in base[1:]]
        boxes.append(frozenset(itertools.product(*window)))
    return cls, dim, width, block_size, memory_size, base, horizon, pathfront, boxes


class TestCorridorTarget:
    @settings(max_examples=300, deadline=None)
    @given(corridor_scenarios())
    def test_matches_per_cell_probe_reference(self, scenario):
        """One coverage snapshot scanned nearest-first finds the same
        target as probing every cell, ties in scan order included."""
        cls, dim, width, B, M, base, horizon, pathfront, boxes = scenario
        adv = cls(dim, B, M, base=base)
        assert adv.width == width
        occupancy = sum(len(box) for box in boxes)
        memory = WeakMemory(ModelParams(1, max(occupancy, 1)))
        for i, box in enumerate(boxes):
            memory.load(Block(i, box))
        view = MemoryView(memory, SearchTrace())
        try:
            expected = _reference_target(dim, width, base, horizon, pathfront, view)
        except AdversaryError as exc:
            with pytest.raises(AdversaryError) as raised:
                adv._find_target(pathfront, view)
            assert str(raised.value) == str(exc)
            return
        assert adv._find_target(pathfront, view) == expected
        # The memoized nearest-first order survives reset and still agrees.
        adv.reset()
        assert adv._find_target(pathfront, view) == expected


class TestRootLeaf:
    def test_collapses_naive_blocking(self):
        """Against the naive s=1 subtree blocking on a tall tree, the
        greedy descent forces a fault every ~log_d B steps down, and
        the Theorem 7 bound caps the measured speed-up."""
        tree = CompleteTree(2, 120)
        B = 15  # 4 levels per block
        blocking = naive_subtree_blocking(tree, B)
        trace = simulate_adversary(
            tree,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 2 * B),
            RootLeafAdversary(tree),
            4_000,
        )
        cap = theory.tree_upper_finite(B, 2, 2 * B, 120)
        assert trace.speedup <= cap + 1e-9

    def test_overlapped_blocking_survives(self):
        """Lemma 17's blocking keeps sigma >= lg B/(2 lg d)."""
        tree = CompleteTree(2, 60)
        B = 255  # 8 levels
        blocking = overlapped_tree_blocking(tree, B)
        trace = simulate_adversary(
            tree,
            blocking,
            MostInteriorPolicy(),
            ModelParams(B, 2 * B),
            RootLeafAdversary(tree),
            4_000,
        )
        assert trace.steady_speedup >= theory.tree_lower_s2(B, 2) - 1e-9
        assert trace.min_gap >= 4  # k/2 with k = 8

    def test_moves_are_legal(self):
        tree = CompleteTree(3, 8)
        blocking = naive_subtree_blocking(tree, 13)
        trace = simulate_adversary(
            tree,
            blocking,
            FirstBlockPolicy(),
            ModelParams(13, 26),
            RootLeafAdversary(tree),
            300,
            validate_moves=True,
        )
        assert trace.steps == 300


class TestCornerLoop:
    def test_uniform_blocking_crushed(self):
        """Lemma 31: the corner walker holds any s=1 isothetic
        tessellation blocking to (B^(1/d)+d)/(d+1)."""
        B = 64
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        adv = UniformCornerAdversary(side=8, dim=2)
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            adv,
            4_000,
        )
        assert trace.speedup <= theory.isothetic_s1_upper(B, 2) + 1e-9

    def test_scanning_variant_also_works(self):
        B = 64
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        adv = CornerLoopAdversary(
            blocking.tessellation, memory_size=3 * B, min_uncovered=3
        )
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            adv,
            2_000,
        )
        assert trace.speedup <= theory.isothetic_s1_upper(B, 2) + 0.5

    def test_sheared_blocking_resists(self):
        """The sheared s=1 blocking has no 4-corners; the same attack
        yields a strictly better speed-up than on the uniform one."""
        B = 64
        graph = InfiniteGridGraph(2)
        uniform = uniform_grid_blocking(2, B)
        sheared = sheared_grid_blocking(2, B)
        adv_u = UniformCornerAdversary(side=8, dim=2)
        trace_u = simulate_adversary(
            graph, uniform, FirstBlockPolicy(), ModelParams(B, 3 * B), adv_u, 3_000
        )
        adv_s = CornerLoopAdversary(
            sheared.tessellation, memory_size=3 * B, min_uncovered=3
        )
        trace_s = simulate_adversary(
            graph, sheared, FirstBlockPolicy(), ModelParams(B, 3 * B), adv_s, 3_000
        )
        assert trace_s.speedup > trace_u.speedup

    def test_gray_moves_are_legal(self):
        B = 16
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            UniformCornerAdversary(side=4, dim=2),
            500,
            validate_moves=True,
        )
        assert trace.steps == 500


class TestTours:
    def test_cycle_adversary_caps_hamiltonian_at_b(self):
        """Section 4.1: following a Hamiltonian cycle caps sigma <= B."""
        graph = cycle_graph(60)
        B = 6
        blocking, policy = lemma13_blocking(graph, B)
        adv = CycleAdversary(list(range(60)))
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, 2 * B), adv, 3_000
        )
        assert trace.speedup <= B + 1e-9

    def test_spanning_tree_circuit_caps(self):
        """Lemma 9: sigma <= 2 rho/(rho-1) B."""
        graph = torus_graph((8, 8))
        B, M = 8, 16
        blocking, policy = lemma13_blocking(graph, B)
        adv = SpanningTreeCircuitAdversary(graph)
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, M), adv, 4_000
        )
        assert trace.speedup <= theory.dfs_circuit_upper(B, M, len(graph)) + 1e-9

    def test_steiner_tour_caps(self):
        """Lemma 12: sigma <= 8 r^+(B)."""
        from repro.analysis import max_radius

        graph = torus_graph((8, 8))
        B = 8
        blocking, policy = lemma13_blocking(graph, B)
        r_plus = max_radius(graph, B)
        adv = SteinerTourAdversary(graph, packing_radius=int(r_plus))
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, 2 * B), adv, 4_000
        )
        assert trace.speedup <= theory.steiner_upper(r_plus) + 1e-9

    def test_steiner_requires_radius_or_skeleton(self):
        with pytest.raises(AdversaryError):
            SteinerTourAdversary(cycle_graph(8))

    def test_cycle_needs_two_vertices(self):
        with pytest.raises(AdversaryError):
            CycleAdversary([0])

    def test_cycle_normalizes_closed_walk(self):
        adv = CycleAdversary([0, 1, 2, 0])
        assert adv.start(None) == 0
        assert adv.step(0, None) == 1


class TestRandomWalk:
    def test_deterministic_given_seed(self):
        graph = torus_graph((6, 6))
        blocking, policy = lemma13_blocking(graph, 8)
        results = []
        for _ in range(2):
            adv = RandomWalkAdversary(graph, (0, 0), seed=5)
            trace = simulate_adversary(
                graph, blocking, policy, ModelParams(8, 16), adv, 500
            )
            results.append(trace.faults)
        assert results[0] == results[1]

    def test_reset_restores_stream(self):
        graph = cycle_graph(10)
        adv = RandomWalkAdversary(graph, 0, seed=1)
        first = [adv.step(0, None) for _ in range(5)]
        adv.reset()
        second = [adv.step(0, None) for _ in range(5)]
        assert first == second

    def test_random_walk_beats_worst_case(self):
        """Benign walks fault far less than adversarial ones."""
        graph = torus_graph((8, 8))
        B = 13
        blocking, policy = lemma13_blocking(graph, B)
        benign = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(B, 2 * B),
            RandomWalkAdversary(graph, (0, 0), seed=2),
            2_000,
        )
        hostile = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(B, 2 * B),
            GreedyUncoveredAdversary(graph, (0, 0)),
            2_000,
        )
        assert benign.speedup > hostile.speedup
