import dataclasses
import itertools
import random

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
    random_start,
)
from gossipcover.graph import is_connected
from gossipcover.partition import price_region

from conftest import SPLIT_ROWS, SPLIT_ZIGZAG, partition_from_regions
from util_oracle import (
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
