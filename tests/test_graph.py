import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from gossipcover import (
    DisconnectedEnvironmentError,
    EmptyEnvironmentError,
    GraphFormatError,
    UNREACHABLE,
    WeightedGraph,
    format_edge_list,
    load_environment,
    one_to_all,
    parse_edge_list,
    parse_grid,
)
from gossipcover.graph import _walk_back, region_distance_matrix

from util_oracle import (
    bfs_into,
    dijkstra_into,
    floyd_warshall,
    grid_edges,
    induced_distances,
    is_connected,
    oracle_component_count,
    oracle_connected,
    oracle_shortest_path,
    random_connected_graph,
    random_off_lattice_graph,
)


# ---- grid parsing ----


def test_grid_2x5_shape(grid2x5):
    assert grid2x5.n == 10
    assert grid2x5.edge_count == 13
    assert grid2x5.uniform_weights
    assert grid2x5.unit_weight == 1.0


def test_grid_resolution_header():
    g = parse_grid("resolution=0.5\n...\n")
    assert g.n == 3
    assert g.unit_weight == 0.5
    assert g.coords[0] == (0.25, 0.25)
    assert g.coords[2] == (1.25, 0.25)


def test_grid_ids_row_major_skip_obstacles():
    g = parse_grid(".#.\n...\n")
    # free cells get ids in scan order: (0,0)=0 (0,2)=1 (1,0)=2 (1,1)=3 (1,2)=4
    assert g.n == 5
    assert g.coords[1] == (2.5, 0.5)
    nbrs = sorted(v for v, _ in g.neighbors(3))
    assert nbrs == [2, 4]


def test_grid_errors():
    with pytest.raises(GraphFormatError):
        parse_grid("...\n..\n")
    with pytest.raises(GraphFormatError):
        parse_grid("..x\n")
    with pytest.raises(EmptyEnvironmentError):
        parse_grid("###\n")
    with pytest.raises(EmptyEnvironmentError):
        parse_grid("")
    with pytest.raises(GraphFormatError):
        parse_grid("resolution=zero\n...\n")
    with pytest.raises(GraphFormatError):
        parse_grid("resolution=-1\n...\n")
    with pytest.raises(DisconnectedEnvironmentError) as err:
        parse_grid(".#.\n###\n.#.\n")
    assert err.value.components == 4


# ---- edge-list parsing ----


def test_edge_list_roundtrip(grid2x5):
    text = format_edge_list(grid2x5)
    g = parse_edge_list(text)
    assert g.n == grid2x5.n
    assert sorted(g.edges()) == sorted(grid2x5.edges())


def test_edge_list_errors():
    with pytest.raises(EmptyEnvironmentError):
        parse_edge_list("# nothing here\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("three\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 1 1.0\n1 0 2.0\n")  # duplicate undirected edge
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 0 1.0\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 1 -3\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 2 1.0\n")
    with pytest.raises(DisconnectedEnvironmentError):
        parse_edge_list("3\n0 1 1.0\n")


def test_load_environment_dispatch(tmp_path):
    grid_file = tmp_path / "env.grid"
    grid_file.write_text("resolution=2.0\n..\n")
    g = load_environment(str(grid_file))
    assert g.n == 2 and g.unit_weight == 2.0

    edges_file = tmp_path / "env.edges"
    edges_file.write_text("# comment\n3\n0 1 1.5\n1 2 0.5\n")
    g = load_environment(str(edges_file))
    assert g.n == 3 and not g.uniform_weights


# ---- distances ----


def test_one_to_all_2x5(grid2x5):
    d = one_to_all(grid2x5, 0)
    assert d.tolist() == [0, 1, 2, 3, 4, 1, 2, 3, 4, 5]
    rows = one_to_all(grid2x5, [0, 9])
    assert rows.tolist() == [d.tolist(), d.tolist()[::-1]]


def test_one_to_all_region_restriction(grid2x5):
    # U-shaped region: going around the removed top row costs more
    region = np.array([0, 4, 5, 6, 7, 8, 9])
    d = region_distance_matrix(grid2x5, region)[0]
    assert d[1] == 6.0  # vertex 4; the full-graph distance is 4
    assert (d >= one_to_all(grid2x5, 0)[region]).all()


def test_one_to_all_unreachable_inside_region(grid2x5):
    d = region_distance_matrix(grid2x5, np.array([0, 9]))[0]
    assert d[1] == UNREACHABLE


def test_one_to_all_validation(grid2x5):
    for sources in (99, -1, [0, 10]):
        with pytest.raises(ValueError, match="out of range"):
            one_to_all(grid2x5, sources)


def test_bfs_dijkstra_agree_exactly():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 16)
        n, edges = random_connected_graph(rng, n, uniform=True)
        # deliberately include awkward uniform weights
        w = rng.choice([0.1, 0.3, 0.6, 1.0, 2.5])
        edges = [(u, v, w) for u, v, _ in edges]
        g = WeightedGraph(n, edges)
        assert g.uniform_weights
        hop_graph = WeightedGraph(n, [(u, v, 1.0) for u, v, _ in edges])
        src = rng.randrange(n)
        d_bfs = np.full(n, UNREACHABLE)
        d_dij = np.full(n, UNREACHABLE)
        bfs_into(g, None, src, d_bfs)
        dijkstra_into(hop_graph, None, src, d_dij)
        assert np.array_equal(d_bfs, d_dij)  # hop counts, whatever the weight


def test_distances_match_oracle():
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randint(2, 12)
        n, edges = random_connected_graph(rng, n)
        g = WeightedGraph(n, edges)
        ref = floyd_warshall(n, edges)
        src = rng.randrange(n)
        d = one_to_all(g, src) * (g.unit_weight or 1.0)
        for v in range(n):
            assert d[v] == ref[src][v]


def test_distance_symmetry(grid2x5):
    rng = random.Random(3)
    for _ in range(10):
        u, v = rng.randrange(10), rng.randrange(10)
        assert one_to_all(grid2x5, u)[v] == one_to_all(grid2x5, v)[u]


def test_hops_from():
    g = parse_grid("resolution=0.6\n.....\n.....\n")
    hops = one_to_all(g, 0)
    assert hops.tolist() == [0, 1, 2, 3, 4, 1, 2, 3, 4, 5]
    assert region_distance_matrix(g, np.array([0, 1, 2, 5]))[0].tolist() == [0, 1, 2, 1]


# 0.25-lattice weights (weighted or uniform) keep every path sum exact;
# 0.6 is a uniform weight off the lattice, where only hop counts are exact
EDGE_WEIGHTS = st.sampled_from(["lattice", "uniform-lattice", 0.6])


def _random_region_instance(rng, n, weight):
    n, edges = random_connected_graph(rng, n, uniform=weight != "lattice")
    if weight == 0.6:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    region = sorted(rng.sample(range(n), rng.randint(1, n)))
    return WeightedGraph(n, edges), edges, region, rng.choice(region)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 10), weight=EDGE_WEIGHTS)
def test_one_to_all_matches_induced_floyd_warshall(rng, n, weight):
    g, edges, region, src = _random_region_instance(rng, n, weight)
    dist = region_distance_matrix(g, np.array(region))[region.index(src)]
    meters = dist * (g.unit_weight or 1.0)
    ref = [induced_distances(n, edges, region)[src][v] for v in region]
    if weight == 0.6:
        hops = induced_distances(n, [(u, v, 1.0) for u, v, _ in edges], region)[src]
        assert dist.tolist() == [hops[v] for v in region]
        np.testing.assert_allclose(meters, ref, rtol=n * np.finfo(np.float64).eps)
    else:
        assert meters.tolist() == ref


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 10), weight=EDGE_WEIGHTS)
def test_shortest_path_stays_in_region_with_one_to_all_length(rng, n, weight):
    # a trip's path: the walk back along the region matrix row of its start
    g, _, region, src = _random_region_instance(rng, n, weight)
    at = {v: k for k, v in enumerate(region)}
    row = region_distance_matrix(g, np.array(region))[at[src]].tolist()
    to = rng.choice([v for v in region if row[at[v]] != UNREACHABLE])
    path = _walk_back(g, row, at, src, to)
    assert path == oracle_shortest_path(g, region, src, to)
    assert path[0] == src and path[-1] == to
    assert set(path) <= set(region)
    length = 0.0
    for a, b in zip(path, path[1:]):
        w = g.edge_weight(a, b)  # raises unless a and b are adjacent
        length += 1.0 if g.uniform_weights else w
    assert length == row[at[to]]


def test_region_distance_matrix(grid2x5):
    ids = np.array([0, 1, 5, 6])
    dmat = region_distance_matrix(grid2x5, ids)
    assert grid2x5.unit_weight == 1.0
    assert dmat[0].tolist() == [0, 1, 1, 2]

    g = parse_edge_list("3\n0 1 1.0\n1 2 2.0\n")
    dmat = region_distance_matrix(g, np.array([0, 1, 2]))
    assert g.unit_weight is None
    assert dmat[0].tolist() == [0.0, 1.0, 3.0]

    dmat = region_distance_matrix(grid2x5, np.array([0, 9]))
    assert math.isinf(dmat[0][1])


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 12), uniform=st.booleans())
def test_region_distance_matrix_bit_equal_to_undirected_search(rng, n, uniform):
    n, edges = random_off_lattice_graph(rng, n)
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    # the adjacency matrix holds both directions of every edge
    adjacency = g.csr()
    assert adjacency.nnz == 2 * len(edges)
    assert all(adjacency[u, v] == adjacency[v, u] == w for u, v, w in edges)
    region = np.array(sorted(rng.sample(range(n), rng.randint(1, n))))
    dmat = region_distance_matrix(g, region)
    tails, heads, weights = zip(*edges)
    upper = csr_matrix((weights, (tails, heads)), shape=(n, n))
    undirected = dijkstra(upper[region][:, region], directed=False, unweighted=g.uniform_weights)
    assert dmat.dtype == undirected.dtype and np.array_equal(dmat, undirected)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 12), uniform=st.booleans())
def test_region_distance_matrix_bit_equal_to_scipy_slice(rng, n, uniform):
    n, edges = random_off_lattice_graph(rng, n) if n > 1 else (1, [])
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    # single vertices, sorted regions and regions in any order
    region = np.array(rng.sample(range(n), rng.choice([1, rng.randint(1, n)])))
    for ids in (region, np.sort(region)):
        sliced = dijkstra(g.csr()[ids][:, ids], directed=True, unweighted=g.uniform_weights)
        dmat = region_distance_matrix(g, ids)
        assert dmat.dtype == sliced.dtype and np.array_equal(dmat, sliced)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 14), uniform=st.booleans())
def test_whole_graph_one_to_all_equals_python_search(rng, n, uniform):
    n, edges = random_off_lattice_graph(rng, n) if n > 1 else (1, [])
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    search = bfs_into if g.uniform_weights else dijkstra_into
    for src in range(n):
        expected = np.full(n, UNREACHABLE)
        search(g, None, src, expected)
        dist = one_to_all(g, src)
        assert dist.dtype == expected.dtype and np.array_equal(dist, expected)
    # one multi-source call gives the single-source rows bit for bit
    sources = rng.choices(range(n), k=rng.randint(1, 4))
    assert np.array_equal(one_to_all(g, sources), [one_to_all(g, s) for s in sources])
    with pytest.raises(ValueError, match="out of range"):
        one_to_all(g, n)
    # a random region, searched by the loop with the rest of the graph masked
    region = sorted(rng.sample(range(n), rng.randint(1, n)))
    dmat = region_distance_matrix(g, np.array(region))
    for k, src in enumerate(region):
        outside = bytearray([1]) * n
        for v in region:
            outside[v] = 0
        expected = np.full(n, UNREACHABLE)
        search(g, outside, src, expected)
        assert dmat.dtype == expected.dtype and np.array_equal(dmat[k], expected[region])


def test_edge_weight_lookup():
    g = parse_edge_list("3\n0 1 1.5\n2 1 0.25\n")
    assert g.edge_weight(0, 1) == g.edge_weight(1, 0) == 1.5
    assert g.edge_weight(1, 2) == g.edge_weight(2, 1) == 0.25
    with pytest.raises(KeyError, match="no edge between 0 and 2"):
        g.edge_weight(0, 2)



def test_edge_ends_follow_edges():
    g = parse_edge_list("4\n2 1 1.5\n0 3 0.25\n1 3 1.0\n")
    ends = g.edge_ends()
    assert ends.dtype == np.int64
    assert ends.tolist() == [[1, 0, 1], [2, 3, 3]]
    assert g.edge_ends() is ends
    assert parse_grid(".\n").edge_ends().shape == (2, 0)

# ---- shortest paths ----


def test_shortest_path_lowest_id_tie():
    g = parse_grid("..\n..\n")
    assert oracle_shortest_path(g, None, 0, 3) == [0, 1, 3]
    assert _walk_back(g, one_to_all(g, 0).tolist(), range(g.n), 0, 3) == [0, 1, 3]


def test_shortest_path_properties(grid2x5):
    path = oracle_shortest_path(grid2x5, None, 0, 9)
    assert path[0] == 0 and path[-1] == 9 and len(path) == 6
    for a, b in zip(path, path[1:]):
        assert any(v == b for v, _ in grid2x5.neighbors(a))
    assert oracle_shortest_path(grid2x5, None, 4, 4) == [4]
    region = [0, 5, 6, 7, 8, 9, 4]
    path = oracle_shortest_path(grid2x5, region, 0, 4)
    assert path == [0, 5, 6, 7, 8, 9, 4]
    with pytest.raises(ValueError):
        oracle_shortest_path(grid2x5, [0, 9], 0, 9)
    with pytest.raises(ValueError):
        oracle_shortest_path(grid2x5, [0, 1], 0, 9)


# ---- connectivity and neighborhoods ----


def test_is_connected(grid2x5):
    assert is_connected(grid2x5, [0, 1, 2])
    assert is_connected(grid2x5, [4])
    assert not is_connected(grid2x5, [0, 2])
    assert not is_connected(grid2x5, [])
    with pytest.raises(ValueError):
        is_connected(grid2x5, [0, 99])


def test_neighborhood_strict_radius(grid2x5):
    assert grid2x5.neighborhood(0, 2.5) == frozenset({0, 1, 2, 5, 6})
    assert grid2x5.neighborhood(0, 2.0) == frozenset({0, 1, 5})
    assert grid2x5.neighborhood(0, 0.5) == frozenset({0})
    # cached object comes back identical
    assert grid2x5.neighborhood(0, 2.5) is grid2x5.neighborhood(0, 2.5)


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 12), k=st.integers(0, 12))
def test_is_connected_matches_oracle(rng, n, k):
    n, edges = random_connected_graph(rng, n, extra_edge_prob=0.1)
    g = WeightedGraph(n, edges)
    subset = rng.sample(range(n), min(k, n))
    expected = oracle_connected(n, edges, subset)
    assert is_connected(g, subset) == expected
    assert is_connected(g, np.array(subset, dtype=np.int64)) == expected
    if subset:
        # the region search that pricing checks connectivity with
        dmat = region_distance_matrix(g, np.array(sorted(subset)))
        assert bool(np.isfinite(dmat).all()) == expected


def _added(w, times):
    total = 0.0
    for _ in range(times):
        total += w
    return total


@settings(max_examples=200, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 14),
    shape=st.sampled_from(["off-lattice", "uniform", "grid"]),
)
def test_neighborhood_is_strict_on_accumulated_meters(rng, n, shape):
    if shape == "off-lattice":
        n, edges = random_off_lattice_graph(rng, n)
    elif shape == "uniform":
        n, edges = random_connected_graph(rng, n, extra_edge_prob=0.05, uniform=True)
    else:
        n, edges = grid_edges(rng.randint(1, 3), rng.randint(4, 10))
    if shape != "off-lattice":
        w = rng.choice([0.6, 0.1, 0.7])
        edges = [(u, v, w) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    v = rng.randrange(n)
    dist = one_to_all(g, v)
    if g.uniform_weights:
        w = g.unit_weight
        # a vertex h hops away sits at w added h times, which can differ
        # from h * w in the last bit (0.6 six times is 3.6, 6 * 0.6 is not)
        meters = np.array([_added(w, int(h)) for h in dist])
        radii = [_added(w, k) for k in range(1, n)] + [k * w for k in range(1, n)]
    else:
        meters = dist
        radii = dist.tolist()
    radii.append(rng.uniform(0.05, float(meters.max()) + 1.0))
    for r in radii:
        if r > 0:
            assert g.neighborhood(v, r) == frozenset(np.flatnonzero(meters < r).tolist())


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 12))
def test_constructor_counts_components_like_oracle(rng, n):
    n, edges = random_connected_graph(rng, n)
    kept = [e for e in edges if rng.random() < 0.6]
    comps = oracle_component_count(n, kept)
    if comps == 1:
        assert WeightedGraph(n, kept).n == n
        return
    with pytest.raises(DisconnectedEnvironmentError) as info:
        WeightedGraph(n, kept)
    assert info.value.components == comps


# ---- constructor validation ----


def test_constructor_rejects_disconnected():
    with pytest.raises(DisconnectedEnvironmentError):
        WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, [(0, 1, math.inf)])
    with pytest.raises(EmptyEnvironmentError):
        WeightedGraph(0, [])


def test_single_vertex_graph():
    g = WeightedGraph(1, [])
    assert g.n == 1 and g.edge_count == 0
    assert not g.uniform_weights  # no edges, no uniform unit
    assert one_to_all(g, 0)[0] == 0.0
