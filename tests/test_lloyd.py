import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipcover.partition as partition_module
from conftest import partition_from_regions
from gossipcover import (
    PartitionError,
    PhiWeights,
    WeightedGraph,
    adjacency_edges,
    centroid,
    decentralized_lloyd_fixed_point,
    gossip_lloyd_exchange,
    h_exp,
    is_centroidal_voronoi,
    is_gossip_lloyd_fixed_point,
    is_pairwise_optimal,
    load_environment,
    parse_grid,
    random_start,
    voronoi_partition,
)
from gossipcover.cli import resolve_environment
from util_oracle import grid_edges, oracle_nearest_generator, random_connected_graph

PATH4 = parse_grid("....\n")
PATH5 = parse_grid(".....\n")


def uniform(n):
    return PhiWeights.uniform(n)


def lloyd_exchange(graph, part, i, j, phi):
    """gossip_lloyd_exchange seeded at the current region centroids."""
    centers = (centroid(graph, part.region(i), phi), centroid(graph, part.region(j), phi))
    return gossip_lloyd_exchange(graph, part, i, j, phi, centers)


# ---- gossip_lloyd_exchange ----


def test_exchange_four_path_tie_goes_to_lower_robot():
    # centroids 0 and 2; vertex 1 ties at distance 1 and joins robot 0
    part = partition_from_regions(4, [[0], [1, 2, 3]])
    new = lloyd_exchange(PATH4, part, 0, 1, uniform(4))
    assert sorted(new.region(0)) == [0, 1]
    assert sorted(new.region(1)) == [2, 3]


def test_exchange_four_path_reversed_labels_is_fixed_point():
    # same split with swapped labels: the tied vertex already belongs to
    # the lower robot, so nothing moves
    part = partition_from_regions(4, [[1, 2, 3], [0]])
    new = lloyd_exchange(PATH4, part, 0, 1, uniform(4))
    assert new is part


def test_exchange_unchanged_returns_same_object(grid2x5, phi10, reference_splits):
    part = reference_splits["a"]
    assert lloyd_exchange(grid2x5, part, 0, 1, phi10) is part


def test_exchange_robot_order_gives_same_split():
    part = partition_from_regions(4, [[0], [1, 2, 3]])
    forward = lloyd_exchange(PATH4, part, 0, 1, uniform(4))
    backward = lloyd_exchange(PATH4, part, 1, 0, uniform(4))
    assert np.array_equal(forward.owner, backward.owner)


def test_exchange_rejects_same_robot():
    part = partition_from_regions(4, [[0], [1, 2, 3]])
    with pytest.raises(PartitionError):
        lloyd_exchange(PATH4, part, 0, 0, uniform(4))


def test_exchange_non_adjacent_pair_unchanged():
    part = partition_from_regions(5, [[0, 1], [2], [3, 4]])
    assert lloyd_exchange(PATH5, part, 0, 2, uniform(5)) is part


def test_exchange_never_increases_cost_random():
    rng = random.Random(77)
    for _ in range(30):
        n, edges = random_connected_graph(rng, rng.randint(6, 14))
        graph = WeightedGraph(n, edges)
        n_robots = rng.randint(2, min(4, n))
        part = voronoi_partition(graph, rng.sample(range(n), n_robots))
        phi = uniform(n)
        before = h_exp(graph, part, phi)
        pairs = adjacency_edges(graph, part)
        if not pairs:
            continue
        i, j = sorted(pairs)[rng.randrange(len(pairs))]
        new = lloyd_exchange(graph, part, i, j, phi)
        new.validate(graph)
        assert h_exp(graph, new, phi) <= before + 1e-12


# ---- the Voronoi split against the heap search ----


def lloyd_split_by_reference(graph, part, i, j, centers):
    """The owners gossip_lloyd_exchange gives, from the heap search over the
    union: the lower robot's center is generator 0."""
    union = np.flatnonzero((part.owner == i) | (part.owner == j))
    lo, hi = (i, j) if i < j else (j, i)
    gens = centers if i < j else centers[::-1]
    nearest = oracle_nearest_generator(graph, gens, union)
    owner = part.owner.tolist()
    for v in union.tolist():
        owner[v] = (lo, hi)[nearest[v]]
    return owner


def test_split_ties_go_to_the_lowest_generator_index():
    # on the 3x3 grid, corners 0 and 8 are equally far from 2, 4 and 6
    g = WeightedGraph(*grid_edges(3, 3, w=0.5))
    for gens, expected in (
        ([0, 8], [0, 0, 0, 0, 0, 1, 0, 1, 1]),
        ([8, 0], [1, 1, 0, 1, 0, 0, 0, 0, 0]),
        ([4, 0, 8], [1, 0, 0, 0, 0, 0, 0, 0, 2]),
    ):
        assert voronoi_partition(g, gens).owner.tolist() == expected
        assert oracle_nearest_generator(g, gens) == expected
    part = partition_from_regions(9, [[0, 1, 3], [2, 4, 5, 6, 7, 8]])
    for i, j, centers in ((0, 1, (0, 8)), (1, 0, (8, 0)), (1, 0, (0, 8))):
        moved = gossip_lloyd_exchange(g, part, i, j, uniform(9), centers)
        assert moved.owner.tolist() == lloyd_split_by_reference(g, part, i, j, centers)


@settings(max_examples=120, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 18),
    k=st.integers(2, 6),
    grid=st.booleans(),
)
def test_uniform_graph_split_equals_heap_reference(rng, n, k, grid):
    # grids and uniform random graphs put many vertices at equal distance
    # from two or more generators
    if grid:
        n, edges = grid_edges(rng.randint(1, 4), rng.randint(2, 5), w=0.6)
    else:
        n, edges = random_connected_graph(rng, n, uniform=True)
    g = WeightedGraph(n, edges)
    gens = rng.sample(range(n), min(k, n))
    part = voronoi_partition(g, gens)
    assert part.owner.tolist() == oracle_nearest_generator(g, gens)
    for i, j in sorted(adjacency_edges(g, part)):
        if rng.random() < 0.5:
            i, j = j, i
        union = np.flatnonzero((part.owner == i) | (part.owner == j)).tolist()
        centers = tuple(rng.sample(union, 2))
        moved = gossip_lloyd_exchange(g, part, i, j, uniform(n), centers)
        assert moved.owner.tolist() == lloyd_split_by_reference(g, part, i, j, centers)


# ---- decentralized Lloyd ----


def test_round_single_robot_moves_to_path_center():
    # one round moves the robot to the center, a second one finds it fixed
    moved, part, costs = decentralized_lloyd_fixed_point(PATH5, [0], uniform(5))
    assert moved == [2]
    assert sorted(part.region(0)) == [0, 1, 2, 3, 4]
    assert len(costs) == 2


def test_round_rejects_duplicate_positions():
    with pytest.raises(PartitionError):
        decentralized_lloyd_fixed_point(PATH5, [1, 1], uniform(5))


def test_round_fixed_point_unchanged():
    moved, part, costs = decentralized_lloyd_fixed_point(PATH5, [1, 3], uniform(5))
    assert moved == [1, 3]
    assert sorted(part.region(0)) == [0, 1, 2]
    assert sorted(part.region(1)) == [3, 4]
    assert len(costs) == 1


def test_fixed_point_costs_nonincreasing_and_centroidal(grid2x5, phi10):
    positions, part, costs = decentralized_lloyd_fixed_point(grid2x5, [0, 9], phi10)
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert is_centroidal_voronoi(grid2x5, part, phi10)
    assert costs[-1] == h_exp(grid2x5, part, phi10)
    again, _, rounds = decentralized_lloyd_fixed_point(grid2x5, positions, phi10)
    assert again == positions and len(rounds) == 1


def test_fixed_point_random_instances():
    rng = random.Random(5)
    for _ in range(20):
        n, edges = random_connected_graph(rng, rng.randint(8, 16))
        graph = WeightedGraph(n, edges)
        phi = uniform(n)
        n_robots = rng.randint(1, min(4, n))
        starts = rng.sample(range(n), n_robots)
        _, part, costs = decentralized_lloyd_fixed_point(graph, starts, phi)
        part.validate(graph)
        assert is_centroidal_voronoi(graph, part, phi)
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


# ---- fixed-point predicates ----


def test_gossip_lloyd_fixed_point_predicate(grid2x5, phi10, reference_splits):
    assert is_gossip_lloyd_fixed_point(grid2x5, reference_splits["a"], phi10)
    assert is_gossip_lloyd_fixed_point(grid2x5, reference_splits["b"], phi10)
    assert is_gossip_lloyd_fixed_point(grid2x5, reference_splits["c"], phi10)
    part = partition_from_regions(4, [[0], [1, 2, 3]])
    assert not is_gossip_lloyd_fixed_point(PATH4, part, uniform(4))


def test_gossip_lloyd_keeps_suboptimal_fixed_points(grid2x5, phi10, reference_splits):
    # the Lloyd equilibrium set strictly contains the pairwise-optimal set
    part = reference_splits["a"]
    assert is_gossip_lloyd_fixed_point(grid2x5, part, phi10)
    assert not is_pairwise_optimal(grid2x5, part, phi10)


def test_exchange_off_lattice_tie_keeps_sides_connected():
    # vertex 1 is 0.05 from centroid 0 but 0.05000000000000001 from
    # centroid 4, while both reach vertex 2 at 1.05: comparing the two
    # union distance rows gave robot 0 the cut-off side {2, 3, 4}
    g = WeightedGraph(
        5, [(0, 1, 0.05), (1, 2, 1.0), (0, 3, 1.0), (1, 4, 0.05000000000000001), (3, 4, 1.0)]
    )
    phi = PhiWeights([10, 1, 1, 1, 2])
    part = partition_from_regions(5, [[3, 4], [0, 1, 2]])
    assert gossip_lloyd_exchange(g, part, 0, 1, phi, (4, 0)) is part
    assert gossip_lloyd_exchange(g, part, 1, 0, phi, (0, 4)) is part
    assert is_gossip_lloyd_fixed_point(g, part, phi)


def test_exchange_rejects_centers_outside_union():
    part = partition_from_regions(5, [[0, 1], [2], [3, 4]])
    with pytest.raises(PartitionError):
        gossip_lloyd_exchange(PATH5, part, 0, 1, uniform(5), (0, 3))
    with pytest.raises(PartitionError):
        gossip_lloyd_exchange(PATH5, part, 0, 1, uniform(5), (2, 2))
    # ids outside 0..n-1; -1 would index vertex 4, which robot 2 owns
    for centers in [(-1, 3), (3, -1), (3, 5), (5, 3)]:
        with pytest.raises(PartitionError):
            gossip_lloyd_exchange(PATH5, part, 1, 2, uniform(5), centers)


def test_fixed_point_prices_each_cell_once(monkeypatch):
    built = []
    original = partition_module.region_distance_matrix

    def counted(graph, region_ids):
        built.append(len(region_ids))
        return original(graph, region_ids)

    monkeypatch.setattr(partition_module, "region_distance_matrix", counted)
    graph = load_environment(resolve_environment("lab-like"))
    phi = uniform(graph.n)
    starts, _ = random_start(graph, 9, 0)
    _, part, costs = decentralized_lloyd_fixed_point(graph, starts, phi)
    # 21 rounds of 9 cells, one region matrix per cell
    assert len(costs) == 21
    assert len(built) == 21 * 9
    monkeypatch.undo()
    assert costs[-1] == h_exp(graph, part, phi)
