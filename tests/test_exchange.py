import dataclasses
import itertools
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gossipcover import (
    ExchangeBudget,
    ExchangeResult,
    Partition,
    PartitionError,
    PhiWeights,
    WeightedGraph,
    adjacency_edges,
    assign_sides,
    centroid,
    centroid_and_cost,
    gossip_lloyd_exchange,
    h_exp,
    is_pairwise_optimal,
    optimal_two_partition,
    pairwise_exchange,
    parse_grid,
    random_start,
)
from gossipcover import exchange, graph
from gossipcover.graph import (
    DisconnectedEnvironmentError,
    UNREACHED_HOPS,
    EmptyEnvironmentError,
    region_distance_matrix,
)
from gossipcover.partition import price_region

from conftest import SPLIT_ROWS, SPLIT_ZIGZAG, partition_from_regions
from util_oracle import (
    is_connected,
    off_lattice,
    oracle_centroid,
    oracle_split,
    oracle_two_center,
    random_connected_graph,
    random_off_lattice_graph,
    random_phi,
    random_two_regions,
)


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])


# ---- input validation ----


def test_budget_validation():
    with pytest.raises(ValueError):
        ExchangeBudget(max_pairs=0)
    with pytest.raises(ValueError):
        ExchangeBudget(resume_cursor=-1)


def test_region_validation(grid2x5, phi10):
    with pytest.raises(PartitionError):
        optimal_two_partition(grid2x5, [], [1], phi10)
    with pytest.raises(PartitionError):
        optimal_two_partition(grid2x5, [0, 1], [1, 2], phi10)  # overlap
    with pytest.raises(PartitionError):
        optimal_two_partition(grid2x5, [0, 9], [1], phi10)  # disconnected
    with pytest.raises(PartitionError):
        optimal_two_partition(grid2x5, [0, 77], [1], phi10)
    # a resumed scan without priced= checks its regions the same way
    resumed = ExchangeBudget(resume_centers=(0, 1), resume_cursor=1)
    for region_a, region_b in ([], [1]), ([0, 77], [1]), ([0, 9], [1]), ([0, 1], [1, 2]):
        with pytest.raises(PartitionError):
            optimal_two_partition(grid2x5, region_a, region_b, phi10, resumed)
    with pytest.raises(ValueError):
        optimal_two_partition(
            grid2x5, [0], [1], phi10, ExchangeBudget(resume_cursor=99)
        )
    with pytest.raises(ValueError):
        optimal_two_partition(
            grid2x5, [0], [1], phi10, ExchangeBudget(resume_centers=(0, 9), resume_cursor=1)
        )
    # one center for both sides would leave side_b empty
    grid2x4 = parse_grid("....\n....\n")
    with pytest.raises(ValueError):
        optimal_two_partition(
            grid2x4,
            [0, 1, 4, 5],
            [2, 3, 6, 7],
            PhiWeights.uniform(8),
            ExchangeBudget(max_pairs=1, resume_cursor=3, resume_centers=(2, 2)),
        )


# ---- reference exchanges on the 2x5 grid ----


def test_exchange_from_rows(grid2x5, phi10):
    result = optimal_two_partition(grid2x5, SPLIT_ROWS[0], SPLIT_ROWS[1], phi10)
    assert result.improved
    assert result.side_a.tolist() == [0, 1, 2, 5, 6]
    assert result.side_b.tolist() == [3, 4, 7, 8, 9]
    assert (result.center_a, result.center_b) == (1, 8)
    assert result.cost == 10.0
    assert result.completed
    assert result.pairs_evaluated == 10 * 9
    assert result.cursor == 90


def test_exchange_fixed_point(grid2x5, phi10):
    result = optimal_two_partition(grid2x5, SPLIT_ZIGZAG[0], SPLIT_ZIGZAG[1], phi10)
    assert not result.improved
    assert result.side_a.tolist() == list(SPLIT_ZIGZAG[0])
    assert result.side_b.tolist() == list(SPLIT_ZIGZAG[1])
    assert result.cost == 10.0
    assert result.completed


def test_exchange_path_already_optimal():
    # {0} | {1,2,3} prices at 0 + 2 = the two-center minimum, so the
    # strict-improvement rule leaves it alone
    g = path_graph(4)
    phi = PhiWeights.uniform(4)
    result = optimal_two_partition(g, [0], [1, 2, 3], phi)
    assert not result.improved
    assert result.cost == 2.0
    assert result.side_a.tolist() == [0]


def test_exchange_non_adjacent_regions(grid2x5, phi10):
    result = optimal_two_partition(grid2x5, [0, 1], [3, 4], phi10)
    assert not result.improved
    assert result.side_a.tolist() == [0, 1]
    assert result.side_b.tolist() == [3, 4]


def test_exchange_uneven_path():
    # {0,1,2,3,4} | {5} on a 6-path: balancing strictly helps
    g = path_graph(6)
    phi = PhiWeights.uniform(6)
    result = optimal_two_partition(g, [0, 1, 2, 3, 4], [5], phi)
    assert result.improved
    assert result.side_a.tolist() == [0, 1, 2]
    assert result.side_b.tolist() == [3, 4, 5]
    assert result.cost == 2.0 + 2.0


# ---- anytime budget ----


def test_budget_chunks_match_unlimited(grid2x5, phi10):
    full = optimal_two_partition(grid2x5, SPLIT_ROWS[0], SPLIT_ROWS[1], phi10)
    for chunk in (1, 7, 89, 90):
        sides = (np.array(SPLIT_ROWS[0]), np.array(SPLIT_ROWS[1]))
        budget = ExchangeBudget(max_pairs=chunk)
        total_evaluated = 0
        while True:
            result = optimal_two_partition(grid2x5, sides[0], sides[1], phi10, budget)
            total_evaluated += result.pairs_evaluated
            if result.completed:
                break
            sides = (result.side_a, result.side_b)
            budget = result.next_budget(chunk)
        assert total_evaluated == 90
        assert result.side_a.tolist() == full.side_a.tolist()
        assert result.side_b.tolist() == full.side_b.tolist()
        assert (result.center_a, result.center_b) == (full.center_a, full.center_b)
        assert result.cost == full.cost
        assert result.improved == full.improved


def test_budget_truncation_is_anytime(grid2x5, phi10):
    # a truncated scan still returns a valid, no-worse configuration
    inc_cost = (
        centroid_and_cost(grid2x5, SPLIT_ROWS[0], phi10)[1]
        + centroid_and_cost(grid2x5, SPLIT_ROWS[1], phi10)[1]
    )
    result = optimal_two_partition(
        grid2x5, SPLIT_ROWS[0], SPLIT_ROWS[1], phi10, ExchangeBudget(max_pairs=5)
    )
    assert not result.completed
    assert result.cursor == 5
    assert result.pairs_evaluated == 5
    assert result.cost <= inc_cost
    assert is_connected(grid2x5, result.side_a.tolist())
    assert is_connected(grid2x5, result.side_b.tolist())


def test_budget_chaining_random_instances():
    # 20 instances on the 0.25 lattice, then 20 off it, where a resumed
    # incumbent priced by any other expression than the scan's row product
    # can differ in the last bit and steer the rest of the chain
    rng = random.Random(53)
    for trial in range(40):
        n = rng.randint(4, 10)
        if trial < 20:
            n, edges = random_connected_graph(rng, n)
            phi = PhiWeights(random_phi(rng, n))
        else:
            n, edges = random_off_lattice_graph(rng, n)
            phi = PhiWeights([off_lattice(rng) for _ in range(n)])
        g = WeightedGraph(n, edges)
        region_a, region_b = random_two_regions(rng, n, edges)
        full = optimal_two_partition(g, region_a, region_b, phi)
        chunk = rng.randint(1, 6)
        sides = (np.array(region_a), np.array(region_b))
        budget = ExchangeBudget(max_pairs=chunk)
        while True:
            result = optimal_two_partition(g, sides[0], sides[1], phi, budget)
            if result.completed:
                break
            sides = (result.side_a, result.side_b)
            budget = result.next_budget(chunk)
        assert result.side_a.tolist() == full.side_a.tolist()
        assert result.side_b.tolist() == full.side_b.tolist()
        assert (result.center_a, result.center_b) == (full.center_a, full.center_b)
        assert result.cost == full.cost


# ---- oracle equivalence ----


def test_matches_brute_force_random():
    rng = random.Random(59)
    for trial in range(40):
        n = rng.randint(4, 10)
        uniform = rng.random() < 0.4
        n, edges = random_connected_graph(rng, n, uniform=uniform)
        g = WeightedGraph(n, edges)
        phi_vals = random_phi(rng, n)
        phi = PhiWeights(phi_vals)
        region_a, region_b = random_two_regions(rng, n, edges)
        result = optimal_two_partition(g, region_a, region_b, phi)

        best, pair = oracle_two_center(n, edges, range(n), phi_vals)
        _, cost_a = oracle_centroid(n, edges, region_a, phi_vals)
        _, cost_b = oracle_centroid(n, edges, region_b, phi_vals)
        inc = cost_a + cost_b
        assert result.cost == min(inc, best)
        assert result.improved == (best < inc)
        if result.improved:
            assert (result.center_a, result.center_b) == pair
            side_a, side_b = oracle_split(n, edges, range(n), *pair)
            assert result.side_a.tolist() == side_a
            assert result.side_b.tolist() == side_b


def test_output_sides_always_valid():
    rng = random.Random(61)
    for trial in range(30):
        n = rng.randint(4, 12)
        n, edges = random_connected_graph(rng, n)
        g = WeightedGraph(n, edges)
        phi = PhiWeights(random_phi(rng, n))
        region_a, region_b = random_two_regions(rng, n, edges)
        result = optimal_two_partition(g, region_a, region_b, phi)
        union = sorted(set(region_a) | set(region_b))
        merged = sorted(result.side_a.tolist() + result.side_b.tolist())
        assert merged == union
        assert result.side_a.size and result.side_b.size
        assert is_connected(g, result.side_a.tolist())
        assert is_connected(g, result.side_b.tolist())
        assert result.center_a in set(result.side_a.tolist())
        assert result.center_b in set(result.side_b.tolist())


def test_rerun_on_result_is_fixed_point():
    rng = random.Random(67)
    for trial in range(20):
        n = rng.randint(4, 10)
        n, edges = random_connected_graph(rng, n)
        g = WeightedGraph(n, edges)
        phi = PhiWeights(random_phi(rng, n))
        region_a, region_b = random_two_regions(rng, n, edges)
        first = optimal_two_partition(g, region_a, region_b, phi)
        second = optimal_two_partition(g, first.side_a, first.side_b, phi)
        assert not second.improved
        assert second.cost == first.cost


# ---- side assignment ----


def test_assign_sides(grid2x5):
    # centers from the zigzag split: a-side center 1, b-side center 8
    assert assign_sides(grid2x5, 1, 8, 2, 7)  # natural match
    assert not assign_sides(grid2x5, 1, 8, 8, 1)  # crossed robots swap
    assert assign_sides(grid2x5, 1, 8, 2, 6)  # tie: i keeps the a-side


def test_pairwise_exchange_identity_mapping(grid2x5, phi10, reference_splits):
    p = reference_splits["a"]
    new_p, result, _ = pairwise_exchange(grid2x5, p, 0, 1, phi10)
    assert result.improved
    assert new_p.region(0).tolist() == [0, 1, 2, 5, 6]
    assert new_p.region(1).tolist() == [3, 4, 7, 8, 9]
    new_p.validate(grid2x5)


def test_pairwise_exchange_position_matching(grid2x5, phi10, reference_splits):
    p = reference_splits["a"]
    # robot 0 sits right, robot 1 sits left: swapping sides is cheaper
    new_p, result, _ = pairwise_exchange(grid2x5, p, 0, 1, phi10, positions=(4, 5))
    assert result.improved
    assert new_p.region(0).tolist() == [3, 4, 7, 8, 9]
    assert new_p.region(1).tolist() == [0, 1, 2, 5, 6]


def test_pairwise_exchange_robot_order_irrelevant(grid2x5, phi10, reference_splits):
    p = reference_splits["a"]
    ij, _, _ = pairwise_exchange(grid2x5, p, 0, 1, phi10, positions=(2, 7))
    ji, _, _ = pairwise_exchange(grid2x5, p, 1, 0, phi10, positions=(7, 2))
    assert ij == ji


def test_pairwise_exchange_no_change(grid2x5, phi10, reference_splits):
    p = reference_splits["c"]
    new_p, result, _ = pairwise_exchange(grid2x5, p, 0, 1, phi10)
    assert not result.improved
    assert new_p is p
    # the caller's Territories come back as they are
    priced = tuple(price_region(grid2x5, p.region(k), phi10) for k in (1, 0))
    new_p, _, after = pairwise_exchange(grid2x5, p, 1, 0, phi10, priced=priced)
    assert new_p is p
    assert after[0] is priced[0] and after[1] is priced[1]


def test_pairwise_exchange_validation(grid2x5, phi10, reference_splits):
    with pytest.raises(PartitionError):
        pairwise_exchange(grid2x5, reference_splits["a"], 0, 0, phi10)


def test_exchange_strictly_lowers_h_exp():
    rng = random.Random(71)
    from util_oracle import grid_edges

    for trial in range(15):
        rows, cols = rng.randint(2, 4), rng.randint(3, 5)
        n, edges = grid_edges(rows, cols)
        g = WeightedGraph(n, edges)
        phi = PhiWeights.uniform(n)
        gens = rng.sample(range(n), 2)
        p = Partition(
            np.argmin(
                np.stack(
                    [
                        np.asarray([abs(v // cols - gg // cols) + abs(v % cols - gg % cols) for v in range(n)])
                        for gg in gens
                    ]
                ),
                axis=0,
            ).astype(np.int32),
            2,
        )
        p.validate(g)
        before = h_exp(g, p, phi)
        new_p, result, _ = pairwise_exchange(g, p, 0, 1, phi)
        after = h_exp(g, new_p, phi)
        if result.improved:
            assert after < before
            assert not np.array_equal(new_p.owner, p.owner)
        else:
            assert after == before


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 10), swap=st.booleans())
def test_rule_off_lattice_strict_and_settled(rng, n, swap):
    n, edges = random_off_lattice_graph(rng, n)
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    p = partition_from_regions(n, random_two_regions(rng, n, edges))
    # one application leaves a pair the rule no longer changes
    assert is_pairwise_optimal(g, pairwise_exchange(g, p, 0, 1, phi)[0], phi)

    i, j = (1, 0) if swap else (0, 1)
    before = tuple(centroid_and_cost(g, p.region(k), phi)[1] for k in (i, j))
    positions = (rng.choice(p.region(i).tolist()), rng.choice(p.region(j).tolist()))
    new_p, _, after = pairwise_exchange(g, p, i, j, phi, positions=positions)
    if new_p is p:
        return
    for k, territory in zip((i, j), after):
        fresh = price_region(g, new_p.region(k), phi)
        assert np.array_equal(territory.ids, fresh.ids)
        assert (territory.centroid, territory.cost) == (fresh.centroid, fresh.cost)
        assert np.array_equal(territory.dists, fresh.dists)
    meters = tuple((t.centroid, t.cost * (g.unit_weight or 1.0)) for t in after)
    assert sum(cost for _, cost in meters) < sum(before)
    assert meters == tuple(centroid_and_cost(g, new_p.region(k), phi) for k in (i, j))


def random_instance(rng, n, on_lattice):
    if on_lattice:
        n, edges = random_connected_graph(rng, n)
        return n, edges, PhiWeights(random_phi(rng, n))
    n, edges = random_off_lattice_graph(rng, n)
    return n, edges, PhiWeights([off_lattice(rng) for _ in range(n)])


def assert_same_result(got, want):
    for f in dataclasses.fields(ExchangeResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


@settings(max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 10),
    on_lattice=st.booleans(),
    chunk=st.sampled_from([None, 1, 5]),
)
def test_scan_from_priced_incumbent_equals_fresh_scan(rng, n, on_lattice, chunk):
    n, edges, phi = random_instance(rng, n, on_lattice)
    g = WeightedGraph(n, edges)
    sides = tuple(np.unique(region) for region in random_two_regions(rng, n, edges))
    budget = ExchangeBudget(max_pairs=chunk)
    # the rule hands the scan the cached prices in region order, whichever robot is i
    p = partition_from_regions(n, sides)
    fresh = optimal_two_partition(g, sides[0], sides[1], phi, budget)
    for i, j in ((0, 1), (1, 0)):
        priced = tuple(price_region(g, p.region(k), phi) for k in (i, j))
        assert_same_result(pairwise_exchange(g, p, i, j, phi, budget, priced=priced)[1], fresh)
    while True:
        # the incumbent a caller caches for the regions it passes in
        priced = tuple(price_region(g, side, phi) for side in sides)
        fresh = optimal_two_partition(g, sides[0], sides[1], phi, budget)
        cached = optimal_two_partition(g, sides[0], sides[1], phi, budget, priced=priced)
        assert_same_result(cached, fresh)
        if fresh.completed:
            break
        sides = (fresh.side_a, fresh.side_b)
        budget = fresh.next_budget(chunk)


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(4, 10),
    on_lattice=st.booleans(),
    chunk=st.sampled_from([None, 1, 5]),
)
def test_rules_leave_non_adjacent_regions_unchanged(rng, n, on_lattice, chunk):
    n, edges, phi = random_instance(rng, n, on_lattice)
    g = WeightedGraph(n, edges)
    k = rng.randint(3, min(5, n))
    _, p = random_start(g, k, rng.randrange(1000))
    touching = adjacency_edges(g, p)
    pairs = itertools.permutations(range(k), 2)
    apart = [(i, j) for i, j in pairs if (min(i, j), max(i, j)) not in touching]
    assume(apart)
    for i, j in apart:
        positions = (rng.choice(p.region(i).tolist()), rng.choice(p.region(j).tolist()))
        budget = ExchangeBudget(max_pairs=chunk)
        assert pairwise_exchange(g, p, i, j, phi, budget, positions=positions)[0] is p
        centers = (centroid(g, p.region(i), phi), centroid(g, p.region(j), phi))
        assert gossip_lloyd_exchange(g, p, i, j, phi, centers) is p


# ---- the integer block scan against the float64 row scan ----


def random_integer_grid(rng):
    """A connected obstacle grid of 2-9 by 2-9 cells, phi drawn from {1, 2, 3, 7}."""
    while True:
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        text = "\n".join(
            "".join("." if rng.random() < 0.8 else "#" for _ in range(cols)) for _ in range(rows)
        )
        try:
            g = parse_grid(text + "\n")
        except (EmptyEnvironmentError, DisconnectedEnvironmentError):
            continue
        if g.n >= 2:
            return g, PhiWeights([rng.choice([1, 2, 3, 7]) for _ in range(g.n)])


def scan_and_chain(g, regions, phi, cap):
    """The unbudgeted scan, then every chunk of a chain capped at cap pairs."""
    results = [optimal_two_partition(g, *regions, phi)]
    sides, budget = regions, ExchangeBudget(max_pairs=cap)
    while True:
        results.append(optimal_two_partition(g, *sides, phi, budget))
        if results[-1].completed:
            return results
        sides = (results[-1].side_a, results[-1].side_b)
        budget = results[-1].next_budget(cap)


def oracle_on_union(g, union, phi):
    """oracle_two_center on the union relabelled 0..m-1, in vertex ids."""
    index = {v: k for k, v in enumerate(union)}
    edges = [(index[u], index[v], w) for u, v, w in g.edges() if u in index and v in index]
    best, pair = oracle_two_center(len(union), edges, range(len(union)), phi.values[union].tolist())
    return best, (union[pair[0]], union[pair[1]])


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    cap=st.integers(1, 7),
    flat=st.sampled_from([None, 1, 2, 7]),
)
def test_integer_scan_equals_float64_rows(rng, cap, flat):
    # flat=c puts phi = c on every vertex, as the bundled workloads do
    g, phi = random_integer_grid(rng)
    if flat is not None:
        phi = PhiWeights([flat] * g.n)
    _, p = random_start(g, max(2, g.n // 12), rng.randrange(1000))
    i, j = rng.choice(sorted(adjacency_edges(g, p)))
    regions = (p.region(i), p.region(j))
    with mock.patch.object(exchange, "_scan_blocks", wraps=exchange._scan_blocks) as blocks:
        integer = scan_and_chain(g, regions, phi, cap)
    assert blocks.call_count == len(integer)
    with mock.patch.object(exchange, "_scan_blocks", exchange._scan_rows):
        rows = scan_and_chain(g, regions, phi, cap)
    assert len(integer) == len(rows)
    for got, want in zip(integer, rows):
        assert_same_result(got, want)
    full = integer[0]
    if full.improved:
        union = np.union1d(*regions).tolist()
        best, pair = oracle_on_union(g, union, phi)
        assert (full.center_a, full.center_b) == pair
        assert full.cost == best


@pytest.mark.parametrize("dmax", [254, 255, 256])
@pytest.mark.parametrize("flat", [True, False])
def test_integer_scan_at_the_uint8_bound(dmax, flat):
    # a path 0 .. dmax - 1 with two leaves on its end: both leaves are dmax hops
    # from vertex 0, so the leaves' pair has a block minimum of dmax, held in
    # uint8 up to 255 and in uint16 from 256
    edges = [(i, i + 1, 1.0) for i in range(dmax - 1)]
    g = WeightedGraph(dmax + 2, edges + [(dmax - 1, dmax, 1.0), (dmax - 1, dmax + 1, 1.0)])
    rng = random.Random(dmax)
    phi = PhiWeights([1 if flat else rng.choice([1, 2, 3, 7]) for _ in range(g.n)])
    regions = (np.arange(dmax // 3), np.arange(dmax // 3, g.n))
    with mock.patch.object(exchange, "_scan_blocks", wraps=exchange._scan_blocks) as blocks:
        integer = scan_and_chain(g, regions, phi, 9000)
    assert blocks.call_count == len(integer)
    dmat = integer[0].union_dists
    assert dmat.dtype == (np.uint8 if dmax < 256 else np.uint16) and dmat.max() == dmax
    with mock.patch.object(exchange, "_scan_blocks", exchange._scan_rows):
        rows = scan_and_chain(g, regions, phi, 9000)
    assert len(integer) == len(rows)
    for got, want in zip(integer, rows):
        assert_same_result(got, want)
    # the segment holding only the leaves' pair (dmax, dmax + 1)
    m, a = g.n, dmax
    want = float(np.minimum(dmat[a], dmat[a + 1]).astype(np.float64) @ phi.values)
    assert exchange._scan_blocks(dmat, phi.values, a * m, (a + 1) * (m - 1), np.inf) == (
        want,
        (a, a + 1),
    )


@pytest.mark.parametrize(
    "budget",
    [
        None,
        ExchangeBudget(max_pairs=5),
        ExchangeBudget(resume_centers=(0, 1)),
        # only the pair (1, 0): both centers in one region, priced at inf
        ExchangeBudget(max_pairs=1, resume_cursor=3, resume_centers=(0, 1)),
    ],
)
def test_regions_apart_scan_their_searched_union(budget):
    # the regions {0, 1} and {3, 4} of a 5-path share no edge; the union is so
    # small that UNREACHED_HOPS * sum(phi) < 2**24, so a sentinel hop count that
    # reached the integer scan would price the pairs across finitely
    g = path_graph(5)
    phi = PhiWeights.uniform(5)
    regions = ([0, 1], [3, 4])
    assert UNREACHED_HOPS * 4 < 2**24
    got = optimal_two_partition(g, *regions, phi, budget)

    def searched(graph, ta, tb):
        return region_distance_matrix(graph, np.union1d(ta.ids, tb.ids))

    with mock.patch.object(exchange, "_union_hops", searched):
        want = optimal_two_partition(g, *regions, phi, budget)
    assert_same_result(got, want)
    assert np.isinf(got.union_dists[0, 2])
    if budget is not None and budget.resume_cursor == 3:
        assert got.cost == np.inf


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), row_end=st.booleans())
def test_block_scan_prices_its_segment(rng, row_end):
    # on any segment, also one no scan reached in order, the block scan returns
    # the first cheapest pair a < b inside [cursor, end); row_end ends the
    # segment at the first pair b > a of a row, where only (a, a) is left of it
    g, phi = random_integer_grid(rng)
    m = g.n
    dmat = region_distance_matrix(g, np.arange(m))
    cursor = rng.randrange(m * (m - 1))
    end = rng.randint(cursor + 1, m * (m - 1))
    if row_end:
        end = min(m * (m - 1), (cursor // (m - 1) + 1) * m)
    costs = np.minimum(dmat[:, None, :], dmat[None, :, :]) @ phi.values
    pairs = [divmod(pos, m - 1) for pos in range(cursor, end)]
    pairs = [(a, off + (off >= a)) for a, off in pairs]
    want = min(((float(costs[a, b]), (a, b)) for a, b in pairs if a < b), default=(np.inf, None))
    assert exchange._scan_blocks(dmat, phi.values, cursor, end, np.inf) == want


def test_block_scan_never_pairs_a_center_with_itself():
    # the segment (0, 3), (0, 4), (1, 0) of a path: its block also holds the
    # entry (1, 1), a lone center at the heavy vertex 1 that undercuts both pairs
    dmat = region_distance_matrix(path_graph(5), np.arange(5))
    phi = np.array([1.0, 100.0, 100.0, 1.0, 1.0])
    assert exchange._scan_blocks(dmat, phi, 2, 5, np.inf) == (201.0, (0, 3))


@pytest.mark.parametrize(
    "phi_values, integer",
    [
        # dmax * sum(phi) = 2 * (2**23 - 1): just below 2**24, the float32 block scan
        ([2796204, 2796201, 2796202], True),
        # dmax * sum(phi) = 2**24: at the bound, the float64 row scan
        ([2796205, 2796201, 2796202], False),
        # past the bound: float32 rounds 2**24 + 1 down onto 2**24, so the earlier
        # pair (0, 1) would tie the true minimum (0, 2)
        ([2**24 + 3, 2**24, 2**24 + 1], False),
    ],
)
def test_integer_bound_edge(phi_values, integer):
    g = path_graph(3)
    phi = PhiWeights(phi_values)
    # the incumbent (1, 2) costs phi[0]; the scan then meets (0, 1) at phi[2]
    # and (0, 2) at phi[1], the minimum
    budget = ExchangeBudget(resume_centers=(1, 2))
    with mock.patch.object(exchange, "_scan_blocks", wraps=exchange._scan_blocks) as blocks:
        result = optimal_two_partition(g, [0], [1, 2], phi, budget)
    assert blocks.called == integer
    best, pair = oracle_on_union(g, [0, 1, 2], phi)
    assert (result.center_a, result.center_b) == pair == (0, 2)
    assert result.cost == best == phi_values[1]
    edges = list(g.edges())
    assert (result.side_a.tolist(), result.side_b.tolist()) == oracle_split(3, edges, range(3), *pair)
    # float32 prices stay exact up to the bound; past it the block scan would take (0, 1)
    dmat = region_distance_matrix(g, np.arange(3))
    _, blocks_pair = exchange._scan_blocks(dmat, phi.values, 0, 6, float(phi_values[0]))
    assert blocks_pair == ((0, 2) if max(phi_values) < 2**24 else (0, 1))


# ---- the union matrix composed from the two Territory matrices ----


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(["adjacent", "apart", "single"]),
    swap=st.booleans(),
)
def test_union_hops_equal_a_fresh_search(rng, kind, swap):
    g, phi = random_integer_grid(rng)
    _, p = random_start(g, max(2, g.n // 8), rng.randrange(1000))
    touching = adjacency_edges(g, p)
    if kind == "adjacent":
        regions = [p.region(k) for k in rng.choice(sorted(touching))]
    elif kind == "apart":
        apart = [pair for pair in itertools.combinations(range(p.n_robots), 2) if pair not in touching]
        assume(apart)
        regions = [p.region(k) for k in rng.choice(apart)]
    else:
        # a lone vertex against another robot's region, next to it or not
        j = rng.randrange(p.n_robots)
        lone = rng.choice(np.flatnonzero(p.owner != j).tolist())
        regions = [np.array([lone]), p.region(j)]
    if swap:
        regions.reverse()
    ta, tb = (price_region(g, region, phi) for region in regions)
    union = np.union1d(ta.ids, tb.ids)
    got = exchange._union_hops(g, ta, tb)
    want = region_distance_matrix(g, union)
    want[np.isinf(want)] = UNREACHED_HOPS
    assert got.dtype == np.min_scalar_type(int(want.max())) and np.array_equal(got, want)


def test_union_hops_take_a_detour_through_the_other_region():
    # 3x3 grid, ids row-major: a is the left column, top row and right column,
    # b the middle column's lower two cells; inside a, (2,0) to (2,2) is 6 hops
    g = parse_grid("...\n...\n...\n")
    phi = PhiWeights.uniform(9)
    ta = price_region(g, np.array([0, 1, 2, 3, 5, 6, 8]), phi)
    tb = price_region(g, np.array([4, 7]), phi)
    assert ta.dists[5, 6] == 6
    union = np.arange(9)
    got = exchange._union_hops(g, ta, tb)
    assert got[6, 8] == got[8, 6] == 2
    assert np.array_equal(got, region_distance_matrix(g, union))


def test_union_matrix_searched_only_on_weighted_graphs(grid2x5, phi10):
    rng = random.Random(5)
    n, edges = random_off_lattice_graph(rng, 8)
    weighted = WeightedGraph(n, edges)
    for g, phi, regions, searched in (
        (grid2x5, phi10, ([0, 1, 2, 5, 6], [3, 4, 7, 8, 9]), False),
        (weighted, PhiWeights.uniform(n), random_two_regions(rng, n, edges), True),
    ):
        priced = tuple(price_region(g, np.unique(region), phi) for region in regions)
        union = np.union1d(*regions)
        with mock.patch.object(
            exchange, "region_distance_matrix", wraps=region_distance_matrix
        ) as search:
            optimal_two_partition(g, *regions, phi)
            optimal_two_partition(g, *regions, phi, priced=priced)
            pairwise_exchange(g, partition_from_regions(g.n, regions), 0, 1, phi)
        assert search.call_count == (3 if searched else 0)
        for call in search.call_args_list:
            assert np.array_equal(call.args[1], union)


# ---- sides priced from a seed matrix the meeting already holds ----


def assert_same_territory(got, want):
    assert got.ids.dtype == want.ids.dtype and np.array_equal(got.ids, want.ids)
    assert type(got.centroid) is int and got.centroid == want.centroid
    assert np.float64(got.cost).tobytes() == np.float64(want.cost).tobytes()
    assert got.dists.dtype == want.dists.dtype and np.array_equal(got.dists, want.dists)


def priced_both_ways(g, ids, phi, seed):
    """price_region with and without the seed: the same Territory or the same error."""
    try:
        want = price_region(g, ids, phi)
    except PartitionError as error:
        with pytest.raises(PartitionError, match=str(error)):
            price_region(g, ids, phi, seed)
        return
    assert_same_territory(price_region(g, ids, phi, seed), want)


def grown_into(g, ids, other, count):
    """Up to count vertices of other, taken breadth-first from ids: each one
    is next to ids or to a vertex taken before it."""
    pool, taken = set(other.tolist()), []
    queue = deque(ids.tolist())
    while queue and len(taken) < count:
        for v, _ in g.neighbors(queue.popleft()):
            if v in pool and len(taken) < count:
                pool.remove(v)
                taken.append(v)
                queue.append(v)
    return np.array(sorted(taken), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(["lloyd", "boundary", "union", "shortened", "single"]),
    integral=st.booleans(),
)
def test_seeded_pricing_equals_a_fresh_search(rng, kind, integral):
    g, phi = random_integer_grid(rng)
    if not integral:
        phi = PhiWeights([off_lattice(rng) for _ in range(g.n)])
    _, p = random_start(g, max(2, g.n // 8), rng.randrange(1000))
    i, j = rng.choice(sorted(adjacency_edges(g, p)))
    old, other = price_region(g, p.region(i), phi), p.region(j)
    seed = (old.ids, old.dists)
    if kind == "lloyd":
        # robot i's side of a Lloyd split of the union at random centers
        centers = rng.sample(np.union1d(old.ids, other).tolist(), 2)
        sides = [gossip_lloyd_exchange(g, p, i, j, phi, centers).region(i)]
    elif kind == "boundary":
        # a few vertices given away, and vertices of j taken breadth-first,
        # some of them two or more hops from what robot i keeps
        lost = rng.sample(old.ids.tolist(), rng.randrange(min(3, old.ids.size)))
        gained = grown_into(g, old.ids, other, rng.randint(1, other.size))
        sides = [np.setdiff1d(np.union1d(old.ids, gained), lost)]
    elif kind == "union":
        # both sides of a split of the union by the scan's side rule
        union = np.union1d(old.ids, other)
        seed = (union, exchange._union_hops(g, old, price_region(g, other, phi)))
        a, b = rng.sample(range(union.size), 2)
        mask = seed[1][a] <= seed[1][b]
        sides = [union[mask], union[~mask]]
    elif kind == "shortened":
        # robot i loses a vertex w inside a shortest x-y path, so the seed's
        # x-y entry may be too small for the new region (or w was a cut vertex)
        hops = old.dists.astype(np.int64)
        far = np.argwhere(hops >= 2)
        if far.size:
            x, y = far[rng.randrange(len(far))]
            inner = np.flatnonzero(hops[x] + hops[:, y] == hops[x, y])
            w = rng.choice([k for k in inner.tolist() if k not in (x, y)])
        else:
            w = rng.randrange(old.ids.size)
        sides = [np.delete(old.ids, w)] if old.ids.size > 1 else [old.ids]
    else:
        # single vertices, one shared with the seed and one not
        sides = [old.ids[rng.randrange(old.ids.size)], other[rng.randrange(other.size)]]
        sides = [np.array([v], dtype=np.int64) for v in sides]
    for side in sides:
        priced_both_ways(g, side, phi, seed)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), unit=st.sampled_from([1.0, 0.6]))
def test_seeded_pricing_on_a_long_path(rng, unit):
    # hop counts above 255: uint16 matrices, and sides that gain tens of
    # vertices at either end
    n = rng.randint(300, 340)
    g = path_graph(n, unit)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    lo, hi = sorted(rng.sample(range(n + 1), 2))
    old = price_region(g, np.arange(lo, hi), phi)
    new_lo = min(max(0, lo + rng.randint(-40, 40)), n - 1)
    new_hi = max(min(n, hi + rng.randint(-40, 40)), new_lo + 1)
    ids = np.arange(new_lo, new_hi)
    priced_both_ways(g, ids, phi, (old.ids, old.dists))
    if ids.size > 2:
        # a hole splits the path
        priced_both_ways(g, np.delete(ids, rng.randrange(1, ids.size - 1)), phi, (old.ids, old.dists))


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_regions_that_only_gain_are_priced_without_a_search(rng):
    # the filled rows and the pass through the gained vertices are exact
    # when the seed is the hop matrix of the part that stays
    g, phi = random_integer_grid(rng)
    _, p = random_start(g, max(2, g.n // 8), rng.randrange(1000))
    i, j = rng.choice(sorted(adjacency_edges(g, p)))
    old = price_region(g, p.region(i), phi)
    gained = grown_into(g, old.ids, p.region(j), rng.randint(1, graph._FILL_LIMIT))
    ids = np.union1d(old.ids, gained)
    with mock.patch.object(graph, "_csgraph_dijkstra", wraps=graph._csgraph_dijkstra) as search:
        got = price_region(g, ids, phi, (old.ids, old.dists))
    assert not search.called
    assert_same_territory(got, price_region(g, ids, phi))


def test_seeded_pricing_rejects_a_disconnected_region():
    # 3x3 grid, ids row-major; the ring's top middle cell joins its two columns
    g = parse_grid("...\n...\n...\n")
    phi = PhiWeights.uniform(9)
    ring = price_region(g, np.array([0, 1, 2, 3, 5, 6, 8]), phi)
    whole = price_region(g, np.arange(9), phi)
    for seed in ((ring.ids, ring.dists), (whole.ids, whole.dists)):
        for ids in ([0, 2, 3, 5, 6, 8], [0, 3, 6, 8], [0, 3, 6, 5]):
            with pytest.raises(PartitionError, match="disconnected"):
                price_region(g, np.array(ids, dtype=np.int64), phi, seed)


def test_seed_matrix_is_only_a_hint():
    # off uniform weights the seed is ignored; on them a wrong seed still
    # prices the region exactly, here all zeros, too small everywhere
    rng = random.Random(11)
    n, edges = random_off_lattice_graph(rng, 9)
    grid = parse_grid("....\n.#..\n....\n")
    for g in (WeightedGraph(n, edges), grid):
        phi = PhiWeights([off_lattice(rng) for _ in range(g.n)])
        ids = np.arange(g.n)
        zeros = (ids, np.zeros((g.n, g.n), dtype=np.uint8))
        assert_same_territory(price_region(g, ids, phi, zeros), price_region(g, ids, phi))
