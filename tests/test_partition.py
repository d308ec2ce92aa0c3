import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcover import (
    Partition,
    PartitionError,
    PhiWeights,
    WeightedGraph,
    adjacency_edges,
    centroid,
    centroid_and_cost,
    format_partition,
    format_phi,
    h_exp,
    h_multicenter,
    h_one,
    is_centroidal_voronoi,
    is_pairwise_optimal,
    parse_grid,
    parse_partition,
    parse_phi,
    voronoi_partition,
)

from conftest import SPLIT_ROWS, SPLIT_BLOCKS, SPLIT_ZIGZAG, partition_from_regions
from util_oracle import (
    grid_edges,
    is_connected,
    off_lattice,
    oracle_centroid,
    oracle_h_one,
    random_connected_graph,
    random_off_lattice_graph,
    random_phi,
)


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])


# ---- phi weights ----


def test_phi_uniform():
    phi = PhiWeights.uniform(4)
    assert phi.total == 4.0 and len(phi) == 4


def test_phi_validation():
    for bad in ([], [0.0, 1.0], [-1.0], [float("nan")], [float("inf")]):
        with pytest.raises(ValueError):
            PhiWeights(bad)


def test_phi_file_roundtrip():
    phi = parse_phi("0 2.5\n3 0.5\n", 4)
    assert phi.values.tolist() == [2.5, 1.0, 1.0, 0.5]
    again = parse_phi(format_phi(phi), 4)
    assert np.array_equal(again.values, phi.values)
    with pytest.raises(ValueError):
        parse_phi("9 1.0\n", 4)
    with pytest.raises(ValueError):
        parse_phi("0 1.0 extra\n", 4)
    with pytest.raises(ValueError):
        parse_phi("0 0.0\n", 4)
    with pytest.raises(ValueError, match="line 3: vertex 0 listed twice"):
        parse_phi("0 1.0\n# again\n0 5.0\n", 4)


# ---- partition plumbing ----


def test_partition_regions(reference_splits):
    p = reference_splits["c"]
    assert p.region(0).tolist() == [0, 1, 2, 5, 6]
    assert p.region(1).tolist() == [3, 4, 7, 8, 9]
    with pytest.raises(PartitionError):
        p.region(2)


def test_partition_replace(reference_splits):
    p = reference_splits["a"]
    q = p.replace({0: np.array(SPLIT_ZIGZAG[0]), 1: np.array(SPLIT_ZIGZAG[1])})
    assert q == partition_from_regions(10, SPLIT_ZIGZAG)
    assert p == partition_from_regions(10, SPLIT_ROWS)  # original untouched


def test_partition_validate(grid2x5, reference_splits):
    reference_splits["a"].validate(grid2x5)
    with pytest.raises(PartitionError):
        Partition([0, 0, 0], 2).validate(path_graph(3))  # robot 1 empty
    with pytest.raises(PartitionError):
        Partition([0, 1], 2).validate(path_graph(3))  # size mismatch
    with pytest.raises(PartitionError):
        Partition([0, 5, 0], 2).validate(path_graph(3))  # owner out of range
    with pytest.raises(PartitionError):
        Partition([0, 1, 0], 2).validate(path_graph(3))  # robot 0 disconnected


def test_partition_validate_reports_the_lowest_bad_robot():
    path5 = path_graph(5)
    # robot 0 is split in two, robot 2 owns nothing
    with pytest.raises(PartitionError, match="region of robot 0 is disconnected"):
        Partition([0, 1, 0, 0, 0], 3).validate(path5)
    # robot 0 owns nothing, robot 1 is split in two
    with pytest.raises(PartitionError, match="robot 0 owns no vertices"):
        Partition([1, 2, 1, 1, 1], 3).validate(path5)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 12), n_robots=st.integers(1, 5))
def test_partition_validate_checks_each_region_as_is_connected_does(rng, n, n_robots):
    n, edges = random_off_lattice_graph(rng, n) if n > 1 else (1, [])
    g = WeightedGraph(n, edges)
    part = Partition([rng.randrange(n_robots) for _ in range(n)], n_robots)
    expected = None
    for i in range(n_robots):
        if part.region(i).size == 0:
            expected = f"robot {i} owns no vertices"
        elif not is_connected(g, part.region(i)):
            expected = f"region of robot {i} is disconnected"
        if expected:
            break
    if expected is None:
        part.validate(g)
    else:
        with pytest.raises(PartitionError, match=f"^{expected}$"):
            part.validate(g)


def test_partition_file_roundtrip(reference_splits):
    p = reference_splits["b"]
    text = format_partition(p)
    assert text.startswith("N=2\n")
    q = parse_partition(text, 10)
    assert q == p


def test_partition_file_errors():
    with pytest.raises(PartitionError):
        parse_partition("0 0\n", 1)  # missing header
    with pytest.raises(PartitionError):
        parse_partition("N=1\n0 0\n0 0\n", 1)  # double assignment
    with pytest.raises(PartitionError):
        parse_partition("N=2\n0 0\n", 2)  # unassigned vertex
    with pytest.raises(PartitionError):
        parse_partition("N=1\n5 0\n", 1)  # vertex out of range


# ---- costs and centroids ----


def test_h_one_path():
    g = path_graph(5)
    phi = PhiWeights.uniform(5)
    assert h_one(g, range(5), 0, phi) == 10.0
    assert h_one(g, range(5), 2, phi) == 6.0


def test_h_one_validation(grid2x5, phi10):
    with pytest.raises(PartitionError):
        h_one(grid2x5, [0, 1], 5, phi10)  # center outside region
    with pytest.raises(PartitionError):
        h_one(grid2x5, [0, 9], 0, phi10)  # disconnected region
    with pytest.raises(PartitionError):
        h_one(grid2x5, [], 0, phi10)


def test_h_one_phi_weighting():
    g = path_graph(3)
    phi = PhiWeights([5.0, 1.0, 1.0])
    assert h_one(g, range(3), 2, phi) == 5.0 * 2 + 1.0 * 1 + 0.0


def test_h_one_matches_oracle_random():
    rng = random.Random(23)
    for _ in range(25):
        n, edges = random_connected_graph(rng, rng.randint(2, 10))
        g = WeightedGraph(n, edges)
        phi_vals = random_phi(rng, n)
        phi = PhiWeights(phi_vals)
        h = rng.randrange(n)
        assert h_one(g, range(n), h, phi) == oracle_h_one(n, edges, range(n), h, phi_vals)


def test_centroid_path_and_ties():
    g5 = path_graph(5)
    assert centroid(g5, range(5), PhiWeights.uniform(5)) == 2
    g4 = path_graph(4)
    # vertices 1 and 2 tie at cost 4; lowest id wins
    assert centroid(g4, range(4), PhiWeights.uniform(4)) == 1
    assert centroid(g5, range(5), PhiWeights([10.0, 1.0, 1.0, 1.0, 1.0])) == 0


def test_centroid_matches_oracle_random():
    rng = random.Random(29)
    for _ in range(25):
        n, edges = random_connected_graph(rng, rng.randint(2, 10))
        g = WeightedGraph(n, edges)
        phi_vals = random_phi(rng, n)
        c, cost = centroid_and_cost(g, range(n), PhiWeights(phi_vals))
        oc, ocost = oracle_centroid(n, edges, range(n), phi_vals)
        assert (c, cost) == (oc, ocost)


def test_centroid_membership_property():
    # 20 graphs on the 0.25 lattice, then 20 off it, where only one pricing
    # expression keeps h_one at the centroid equal to the centroid cost
    rng = random.Random(31)
    for trial in range(40):
        if trial < 20:
            n, edges = random_connected_graph(rng, rng.randint(2, 9))
            phi = PhiWeights(random_phi(rng, n))
        else:
            n, edges = random_off_lattice_graph(rng, rng.randint(2, 9))
            phi = PhiWeights([off_lattice(rng) for _ in range(n)])
        g = WeightedGraph(n, edges)
        c, cost = centroid_and_cost(g, range(n), phi)
        assert 0 <= c < n
        assert h_one(g, range(n), c, phi) == cost
        for h in range(n):
            assert cost <= h_one(g, range(n), h, phi)


@pytest.mark.parametrize("region", [[-1, 8], [-2, -1, 7], [9, 10]])
def test_pricing_rejects_out_of_range_ids(grid2x5, phi10, region):
    # negative ids would wrap through numpy and scipy indexing
    with pytest.raises(ValueError):
        centroid_and_cost(grid2x5, region, phi10)
    with pytest.raises(ValueError):
        h_one(grid2x5, region, region[-1], phi10)


# ---- expected coverage cost ----


def test_h_exp_reference_partitions(grid2x5, phi10, reference_splits):
    assert abs(h_exp(grid2x5, reference_splits["a"], phi10) - 1.2) < 1e-9
    assert abs(h_exp(grid2x5, reference_splits["b"], phi10) - 1.1) < 1e-9
    assert abs(h_exp(grid2x5, reference_splits["c"], phi10) - 1.0) < 1e-9


def test_h_exp_scales_with_resolution(reference_splits):
    g = parse_grid("resolution=0.5\n.....\n.....\n")
    phi = PhiWeights.uniform(10)
    assert abs(h_exp(g, reference_splits["a"], phi) - 0.6) < 1e-12
    assert abs(h_exp(g, reference_splits["c"], phi) - 0.5) < 1e-12


def test_h_multicenter(grid2x5, phi10, reference_splits):
    p = reference_splits["a"]
    assert h_multicenter(grid2x5, [2, 7], p, phi10) == 1.2
    assert h_multicenter(grid2x5, [0, 5], p, phi10) == (10.0 + 10.0) / 10.0
    with pytest.raises(PartitionError):
        h_multicenter(grid2x5, [2], p, phi10)
    with pytest.raises(PartitionError):
        h_multicenter(grid2x5, [5, 7], p, phi10)  # center 5 not in region 0


def test_multicenter_inequalities_random():
    # moving to the centroid never increases cost; re-partitioning to the
    # centers' Voronoi split never increases cost
    rng = random.Random(37)
    for _ in range(15):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        n, edges = grid_edges(rows, cols)
        g = WeightedGraph(n, edges)
        phi = PhiWeights.uniform(n)
        n_robots = rng.randint(2, 3)
        gens = rng.sample(range(n), n_robots)
        p = voronoi_partition(g, gens)
        centers = [rng.choice(p.region(i).tolist()) for i in range(n_robots)]
        cost = h_multicenter(g, centers, p, phi)
        centroids = [centroid(g, p.region(i), PhiWeights.uniform(n)) for i in range(n_robots)]
        assert h_multicenter(g, centroids, p, phi) <= cost
        q = voronoi_partition(g, centers)
        if all(q.region(i).size for i in range(n_robots)):
            assert h_multicenter(g, centers, q, phi) <= cost


def test_relabeling_invariance(grid2x5, phi10, reference_splits):
    p = reference_splits["b"]
    swapped = partition_from_regions(10, [SPLIT_BLOCKS[1], SPLIT_BLOCKS[0]])
    assert h_exp(grid2x5, p, phi10) == h_exp(grid2x5, swapped, phi10)
    assert is_centroidal_voronoi(grid2x5, p, phi10) == is_centroidal_voronoi(
        grid2x5, swapped, phi10
    )


# ---- voronoi construction ----


def test_voronoi_3path_tie():
    g = path_graph(3)
    p = voronoi_partition(g, [0, 2])
    assert p.owner.tolist() == [0, 0, 1]
    p = voronoi_partition(g, [2, 0])
    assert p.owner.tolist() == [1, 0, 0]


def test_voronoi_regions_connected_where_float_sums_tie():
    # 0.05 + 1.0 and 0.05000000000000001 + 1.0 both round to 1.05, so vertex 2
    # ties between generators 4 and 0; its only neighbour, 1, is closer to 0
    g = WeightedGraph(
        5, [(0, 1, 0.05), (1, 2, 1.0), (0, 3, 1.0), (1, 4, 0.05000000000000001), (3, 4, 1.0)]
    )
    p = voronoi_partition(g, [3, 4, 0])
    p.validate(g)
    assert p.owner.tolist() == [2, 2, 2, 0, 1]


def test_voronoi_validation(grid2x5):
    with pytest.raises(PartitionError):
        voronoi_partition(grid2x5, [])
    with pytest.raises(PartitionError):
        voronoi_partition(grid2x5, [1, 1])
    with pytest.raises(PartitionError):
        voronoi_partition(grid2x5, [0, 99])


def test_voronoi_regions_valid_random():
    rng = random.Random(41)
    for _ in range(20):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        n, edges = grid_edges(rows, cols)
        g = WeightedGraph(n, edges)
        n_robots = rng.randint(1, min(5, n))
        gens = rng.sample(range(n), n_robots)
        p = voronoi_partition(g, gens)
        p.validate(g)
        for i, gen in enumerate(gens):
            assert p.owner[gen] == i


# ---- adjacency and predicates ----


def test_adjacency_edges(grid2x5, reference_splits):
    assert adjacency_edges(grid2x5, reference_splits["a"]) == frozenset({(0, 1)})
    g = parse_grid("...\n...\n...\n")
    rows = partition_from_regions(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert adjacency_edges(g, rows) == frozenset({(0, 1), (1, 2)})


def adjacency_edges_by_loop(graph, partition):
    pairs = set()
    for u, v, _ in graph.edges():
        a, b = int(partition.owner[u]), int(partition.owner[v])
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return frozenset(pairs)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 16))
def test_adjacency_edges_match_edge_loop(rng, n):
    n, edges = random_off_lattice_graph(rng, n) if n > 1 else (1, [])
    g = WeightedGraph(n, edges)
    # owners need not form connected regions here
    owner = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    p = Partition(owner, max(owner) + 1)
    pairs = adjacency_edges(g, p)
    assert pairs == adjacency_edges_by_loop(g, p)
    assert all(type(k) is int for pair in pairs for k in pair)


def test_is_centroidal_voronoi(grid2x5, phi10, reference_splits):
    for p in reference_splits.values():
        assert is_centroidal_voronoi(grid2x5, p, phi10)
    lopsided = partition_from_regions(10, [[0], [1, 2, 3, 4, 5, 6, 7, 8, 9]])
    assert not is_centroidal_voronoi(grid2x5, lopsided, phi10)


def test_is_pairwise_optimal(grid2x5, phi10, reference_splits):
    assert is_pairwise_optimal(grid2x5, reference_splits["c"], phi10)
    assert not is_pairwise_optimal(grid2x5, reference_splits["a"], phi10)
    assert not is_pairwise_optimal(grid2x5, reference_splits["b"], phi10)
