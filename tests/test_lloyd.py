import random

import numpy as np
import pytest

import gossipcover.partition as partition_module
from conftest import partition_from_regions
from gossipcover import (
    PartitionError,
    PhiWeights,
    WeightedGraph,
    adjacency_edges,
    centroid,
    decentralized_lloyd_fixed_point,
    decentralized_lloyd_round,
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
from util_oracle import random_connected_graph

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


# ---- decentralized Lloyd ----


def test_round_single_robot_moves_to_path_center():
    moved, part = decentralized_lloyd_round(PATH5, [0], uniform(5))
    assert moved == [2]
    assert sorted(part.region(0)) == [0, 1, 2, 3, 4]


def test_round_rejects_duplicate_positions():
    with pytest.raises(PartitionError):
        decentralized_lloyd_round(PATH5, [1, 1], uniform(5))


def test_round_fixed_point_unchanged():
    moved, part = decentralized_lloyd_round(PATH5, [1, 3], uniform(5))
    assert moved == [1, 3]
    assert sorted(part.region(0)) == [0, 1, 2]
    assert sorted(part.region(1)) == [3, 4]


def test_fixed_point_costs_nonincreasing_and_centroidal(grid2x5, phi10):
    positions, part, costs = decentralized_lloyd_fixed_point(grid2x5, [0, 9], phi10)
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert is_centroidal_voronoi(grid2x5, part, phi10)
    assert costs[-1] == h_exp(grid2x5, part, phi10)
    again, _ = decentralized_lloyd_round(grid2x5, positions, phi10)
    assert again == positions


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
