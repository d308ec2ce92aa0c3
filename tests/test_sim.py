import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPLIT_ZIGZAG, partition_from_regions
from util_oracle import (
    ReferenceMotion,
    off_lattice,
    oracle_shortest_path,
    random_connected_graph,
    random_off_lattice_graph,
)
import gossipcover.exchange as exchange_module
import gossipcover.graph as graph_module
import gossipcover.partition as partition_module
import gossipcover.sim as sim
from gossipcover import (
    GOSSIP_COVERAGE,
    GOSSIP_LLOYD,
    OPEN_BOUNDARY,
    UNIFORM_REGION,
    PartitionError,
    PhiWeights,
    SimConfig,
    WeightedGraph,
    World,
    adjacency_edges,
    centroid,
    centroid_and_cost,
    gossip_lloyd_exchange,
    h_exp,
    h_multicenter,
    h_one,
    is_centroidal_voronoi,
    is_gossip_lloyd_fixed_point,
    is_pairwise_optimal,
    pairwise_exchange,
    parse_grid,
    random_start,
    run,
    step,
    voronoi_partition,
)
from gossipcover.graph import _walk_back, one_to_all, region_distance_matrix
from gossipcover.partition import price_region
from gossipcover.sim import (
    MEETING_NOCHANGE,
    ARRIVAL,
    MOVING,
    PLAN_STEPS,
    RELOCATING,
    WAITING,
    _apply_meeting,
    destination_candidates,
)

PATH5 = parse_grid(".....\n")

# dyadic parameters keep every kinematic quantity exact in binary
FAST = dict(speed=0.5, r_comm=1.5, tau=1.0, dt=0.5)


def quiet_config(**overrides):
    base = dict(FAST, lambda_comm=1e-300, convergence_window=2.0)
    base.update(overrides)
    return SimConfig(**base)


# ---- destination sampling: a trip draws from destination_candidates ----


def test_sample_destination_singleton_both_modes(grid2x5):
    for mode in (UNIFORM_REGION, OPEN_BOUNDARY):
        assert destination_candidates(grid2x5, [4], mode) == [4]


def test_sample_destination_uniform_covers_region(grid2x5):
    region = [0, 1, 5, 6]
    assert destination_candidates(grid2x5, region, UNIFORM_REGION) == region


def test_sample_destination_boundary_cells(grid2x5):
    # region {0,1,5,6}: only 1 and 6 touch vertices owned by the other robot
    assert destination_candidates(grid2x5, [0, 1, 5, 6], OPEN_BOUNDARY) == [1, 6]


def test_sample_destination_boundary_fallback_whole_graph(grid2x5):
    region = list(range(10))
    assert destination_candidates(grid2x5, region, OPEN_BOUNDARY) == region


def test_sample_destination_errors(grid2x5):
    with pytest.raises(PartitionError):
        destination_candidates(grid2x5, [], UNIFORM_REGION)
    with pytest.raises(ValueError):
        destination_candidates(grid2x5, [0], "diagonal")


# ---- config validation ----

BAD_CONFIGS = [
    dict(speed=0.0),
    dict(tau=-1.0),
    dict(dt=0.0),
    dict(dt=2.0, tau=1.0),
    dict(r_comm=1.0),
    dict(r_comm=0.5),
    dict(destination_mode="diagonal"),
    dict(exchange_budget=0),
    dict(convergence_window=-1.0),
    dict(max_time=0.0),
    dict(lambda_comm=0.0),
]


@pytest.mark.parametrize("overrides", BAD_CONFIGS)
def test_config_validation_rejects(grid2x5, overrides):
    params = dict(FAST)
    params.update(overrides)
    with pytest.raises(ValueError):
        SimConfig(**params).validate(grid2x5)


def test_world_rejects_bad_inputs(grid2x5, phi10, reference_splits):
    part = reference_splits["a"]
    config = SimConfig(**FAST)
    with pytest.raises(ValueError):
        World(grid2x5, part, phi10, config, algorithm="simulated-annealing")
    with pytest.raises(PartitionError):
        World(grid2x5, part, PhiWeights.uniform(9), config)
    with pytest.raises(PartitionError):
        World(grid2x5, part, phi10, config, initial_positions=[2])
    with pytest.raises(PartitionError):
        # vertex 7 belongs to robot 1, not robot 0
        World(grid2x5, part, phi10, config, initial_positions=[7, 2])
    priced = [price_region(grid2x5, region, phi10) for region in part.regions()]
    for wrong in (priced[::-1], priced[:1]):
        with pytest.raises(PartitionError):
            World(grid2x5, part, phi10, config, priced=wrong)


# ---- kinematics ----


def one_robot_world(**overrides):
    part = partition_from_regions(PATH5.n, [range(5)])
    config = quiet_config(**overrides)
    return World(PATH5, part, PhiWeights.uniform(5), config, initial_positions=[0])


def start_trip(world, path):
    # begin robot 0's trip through the simulator's own trip start
    robot = world.robots[0]
    sim._start_trip(world, robot, path, MOVING)
    return robot


def test_straight_path_arrival_step_count_exact():
    # L=4, v=0.5, dt=0.5: 4/(0.5*0.5) = 16 steps exactly
    world = one_robot_world(tau=100.0)
    robot = start_trip(world, [1, 2, 3, 4])
    assert world._arrivals[0] == [4, 8, 12, 16]
    for k in range(1, 17):
        step(world)
        if k < 16:
            assert robot.mode == MOVING
            assert robot.current_vertex == k // 4
    assert robot.mode == WAITING
    assert robot.current_vertex == 4
    assert robot.path == []
    # nothing carries over from the trip: the wait of tau/dt steps starts at 16
    assert world._due[0] == 16 + 200


def test_straight_path_arrival_step_count_ceil():
    # L=4, v=0.5, dt=0.6: ceil(4/0.3) = 14 steps, leftover motion discarded
    world = one_robot_world(tau=100.0, dt=0.6)
    robot = start_trip(world, [1, 2, 3, 4])
    steps = 0
    while robot.mode == MOVING:
        step(world)
        steps += 1
        assert steps < 50
    assert steps == math.ceil(4.0 / (0.5 * 0.6))
    assert robot.current_vertex == 4


def test_mid_edge_progress_stays_below_weight():
    # a quarter of the unit edge per step: the robot stays on its tail
    # vertex for three steps and reaches the head on the fourth
    world = one_robot_world(tau=100.0)
    robot = start_trip(world, [1])
    assert world._arrivals[0] == [4]
    for _ in range(3):
        step(world)
        assert (robot.current_vertex, robot.path, robot.mode) == (0, [1], MOVING)
    step(world)
    assert (robot.current_vertex, robot.path, robot.mode) == (1, [], WAITING)


def test_waiting_robot_departs_after_tau():
    world = one_robot_world(tau=1.0)
    robot = world.robots[0]
    assert robot.mode == WAITING
    step(world)
    assert robot.mode == WAITING
    step(world)
    # wait expired: either sampled itself (waits again) or departed
    assert robot.mode in (WAITING, MOVING)
    if robot.mode == MOVING:
        assert robot.path


def test_robot_stays_inside_region_while_wandering(grid2x5, phi10, reference_splits):
    world = World(grid2x5, reference_splits["c"], phi10, quiet_config())
    members = [set(map(int, world.partition.region(k))) for k in range(2)]
    for _ in range(400):
        step(world)
        for robot in world.robots:
            assert robot.current_vertex in members[robot.id]
            if robot.mode == WAITING:
                assert robot.path == []
            for v in robot.path:
                assert v in members[robot.id]


# ---- meeting eligibility and firing ----


def test_fire_probability_matches_poisson_thinning(grid2x5, phi10, reference_splits):
    config = SimConfig(speed=0.4, r_comm=2.5, lambda_comm=0.3, tau=3.5, dt=0.1)
    world = World(grid2x5, reference_splits["a"], phi10, config)
    assert world._fire_prob == 1.0 - math.exp(-0.3 * 0.1)
    assert world._fire_prob == pytest.approx(0.02955, abs=5e-6)


def test_eligible_pairs_same_vertex_and_strict_range(phi10):
    part = partition_from_regions(PATH5.n, [[0, 1, 2], [3, 4]])
    config = SimConfig(speed=0.5, r_comm=2.0, lambda_comm=0.3, tau=1.0, dt=0.5)
    world = World(PATH5, part, PhiWeights.uniform(5), config, initial_positions=[0, 3])
    b = world.robots[1]
    assert world._pairs == []  # d(0,3)=3
    b.current_vertex = 2
    sim._retest_pairs(world, [1])
    assert world._pairs == []  # d=2 equals r_comm: excluded
    b.current_vertex = 1
    sim._retest_pairs(world, [1])
    assert world._pairs == [(0, 1)]
    b.current_vertex = 0
    sim._retest_pairs(world, [1])
    assert world._pairs == [(0, 1)]  # co-located counts


def test_zero_intensity_never_meets(grid2x5, phi10, reference_splits):
    world = World(grid2x5, reference_splits["a"], phi10, quiet_config())
    assert world._fire_prob == 0.0
    for _ in range(300):
        step(world)
    assert world.meeting_count == 0
    assert world.exchange_count == 0


# ---- full runs ----


def fig2a_config(**overrides):
    base = dict(FAST, lambda_comm=0.5, seed=3, convergence_window=5.0, max_time=5000.0)
    base.update(overrides)
    return SimConfig(**base)


def test_run_rows_split_reaches_optimal_cost(grid2x5, phi10, reference_splits):
    trace = run(grid2x5, reference_splits["a"], phi10, fig2a_config())
    assert trace.converged
    assert trace.final_cost == 1.0
    regions = {frozenset(map(int, trace.final_partition.region(k))) for k in range(2)}
    assert regions == {frozenset(r) for r in SPLIT_ZIGZAG}
    assert is_pairwise_optimal(grid2x5, trace.final_partition, phi10)
    assert trace.initial_cost == 1.2


def test_run_trace_costs_monotone_and_consistent(grid2x5, phi10, reference_splits):
    trace = run(grid2x5, reference_splits["a"], phi10, fig2a_config())
    exchange_events = [e for e in trace.events if e.kind == "EXCHANGE"]
    assert len(exchange_events) == trace.exchange_count >= 1
    last = trace.initial_cost
    for event in trace.events:
        assert event.h_exp_after <= last or event.kind != "EXCHANGE"
        if event.kind == "EXCHANGE":
            assert event.h_exp_after < last
            last = event.h_exp_after
    assert exchange_events[-1].h_exp_after == trace.final_cost
    # reported cost agrees with an independent recomputation
    assert trace.final_cost == h_exp(grid2x5, trace.final_partition, phi10)
    assert trace.meetings_to_equilibrium <= trace.meeting_count
    assert trace.exchange_count <= trace.meeting_count


def test_run_budget_one_still_converges(grid2x5, phi10, reference_splits):
    trace = run(grid2x5, reference_splits["a"], phi10, fig2a_config(exchange_budget=1))
    assert trace.converged
    assert trace.final_cost == 1.0


def test_run_boundary_destination_mode(grid2x5, phi10, reference_splits):
    config = fig2a_config(destination_mode=OPEN_BOUNDARY)
    trace = run(grid2x5, reference_splits["a"], phi10, config)
    assert trace.converged
    assert trace.final_cost == 1.0


def test_run_single_robot_immediate(grid2x5, phi10):
    part = partition_from_regions(10, [range(10)])
    trace = run(grid2x5, part, phi10, fig2a_config())
    assert trace.converged
    assert trace.duration == 0.0
    assert trace.events == []
    assert trace.exchange_count == trace.meeting_count == 0
    assert trace.final_cost == trace.initial_cost
    assert trace.final_cost == h_one(grid2x5, range(10), 2, phi10) / phi10.total


def test_run_record_motion_toggle(grid2x5, phi10, reference_splits):
    noisy = run(grid2x5, reference_splits["a"], phi10, fig2a_config())
    quiet = run(
        grid2x5, reference_splits["a"], phi10, fig2a_config(), record_motion=False
    )
    assert any(e.kind in ("ARRIVAL", "DEPARTURE") for e in noisy.events)
    assert all(e.kind in ("EXCHANGE", "MEETING_NOCHANGE") for e in quiet.events)
    kept = [e for e in noisy.events if e.kind in ("EXCHANGE", "MEETING_NOCHANGE")]
    assert kept == quiet.events


def test_run_deterministic_given_seed(grid2x5, phi10, reference_splits):
    first = run(grid2x5, reference_splits["a"], phi10, fig2a_config(seed=11))
    second = run(grid2x5, reference_splits["a"], phi10, fig2a_config(seed=11))
    assert first.events == second.events
    assert np.array_equal(first.final_partition.owner, second.final_partition.owner)
    assert first.meeting_count == second.meeting_count
    assert first.duration == second.duration
    # a campaign hands every run the Territories of its start
    priced = [price_region(grid2x5, r, phi10) for r in reference_splits["a"].regions()]
    third = run(grid2x5, reference_splits["a"], phi10, fig2a_config(seed=11), priced=priced)
    assert third.events == first.events and third.final_cost == first.final_cost
    other = run(grid2x5, reference_splits["a"], phi10, fig2a_config(seed=12))
    assert other.duration != first.duration or other.events != first.events


def test_run_gossip_lloyd_reaches_its_own_fixed_point(grid2x5, phi10, reference_splits):
    trace = run(
        grid2x5, reference_splits["a"], phi10, fig2a_config(), algorithm=GOSSIP_LLOYD
    )
    assert trace.converged
    # row split is already a gossip-Lloyd fixed point, but not pairwise-optimal
    assert trace.final_cost == 1.2
    assert trace.exchange_count == 0
    assert not is_pairwise_optimal(grid2x5, trace.final_partition, phi10)


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 10),
    budget=st.sampled_from([None, 1, 5]),
)
def test_run_off_lattice_converges_to_pairwise_optimal(rng, n, budget):
    n, edges = random_off_lattice_graph(rng, n)
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    # every pair stays in range, so meetings keep coming
    r_comm = sum(w for _, _, w in edges) + 1.0
    config = fig2a_config(
        r_comm=r_comm, exchange_budget=budget, seed=rng.randrange(1000), max_time=2000.0
    )
    trace = run(g, part, phi, config, record_motion=False)
    assert trace.converged
    assert is_pairwise_optimal(g, trace.final_partition, phi)


@settings(max_examples=30, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n_robots=st.integers(8, 12),
    algorithm=st.sampled_from([GOSSIP_COVERAGE, GOSSIP_LLOYD]),
)
def test_reported_costs_equal_h_exp(rng, n_robots, algorithm):
    # from 8 costs up numpy no longer sums in sequence, so a second way of
    # summing would differ from h_exp in the last bit
    n, edges = random_off_lattice_graph(rng, rng.randint(n_robots, 20))
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, n_robots, rng.randrange(1000))
    r_comm = sum(w for _, _, w in edges) + 1.0
    config = fig2a_config(r_comm=r_comm, seed=rng.randrange(1000), max_time=50.0)
    assert World(g, part, phi, config).current_cost() == h_exp(g, part, phi)
    trace = run(g, part, phi, config, algorithm=algorithm, record_motion=False)
    assert trace.final_cost == h_exp(g, trace.final_partition, phi)
    for p in (part, trace.final_partition):
        centroids = [centroid(g, region, phi) for region in p.regions()]
        assert h_multicenter(g, centroids, p, phi) == h_exp(g, p, phi)


def rule_leaves_pair(world, i, j):
    graph, part, phi = world.graph, world.partition, world.phi
    if world.algorithm == GOSSIP_LLOYD:
        centers = (centroid(graph, part.region(i), phi), centroid(graph, part.region(j), phi))
        return gossip_lloyd_exchange(graph, part, i, j, phi, centers) is part
    return pairwise_exchange(graph, part, i, j, phi)[0] is part


@settings(max_examples=40, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 10),
    algorithm=st.sampled_from([GOSSIP_COVERAGE, GOSSIP_LLOYD]),
    budget=st.sampled_from([None, 1]),
    mode=st.sampled_from([UNIFORM_REGION, OPEN_BOUNDARY]),
)
def test_world_cache_matches_regions_after_every_step(rng, n, algorithm, budget, mode):
    n, edges = random_off_lattice_graph(rng, n)
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    r_comm = sum(w for _, _, w in edges) + 1.0
    config = fig2a_config(
        r_comm=r_comm, exchange_budget=budget, seed=rng.randrange(1000), destination_mode=mode
    )
    world = World(g, part, phi, config, algorithm=algorithm, record_motion=False)
    for _ in range(60):
        step(world)
        regions = world.partition.regions()
        for territory, region in zip(world._territories, regions):
            fresh = price_region(g, region, phi)
            assert np.array_equal(territory.ids, region)
            assert (territory.centroid, territory.cost) == (fresh.centroid, fresh.cost)
        meters = [(t.centroid, t.cost * (g.unit_weight or 1.0)) for t in world._territories]
        assert meters == [centroid_and_cost(g, region, phi) for region in regions]
        assert world._destinations == [
            destination_candidates(g, region, mode) for region in regions
        ]
        for (i, j), state in world._pair_state.items():
            if state is None:
                assert rule_leaves_pair(world, i, j)
        bare = (
            is_gossip_lloyd_fixed_point(g, world.partition, phi)
            if algorithm == GOSSIP_LLOYD
            else is_pairwise_optimal(g, world.partition, phi)
        )
        assert sim._settled(world) == bare
        costs = np.array([cost for _, cost in meters])
        assert world.current_cost() == float(costs.sum() / phi.total)


def pairs_from_all_balls(world):
    at = [robot.current_vertex for robot in world.robots]
    balls = [world.graph.neighborhood(v, world.config.r_comm) for v in at]
    return [(i, j) for i in range(len(at)) for j in range(i + 1, len(at)) if at[j] in balls[i]]


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 10),
    algorithm=st.sampled_from([GOSSIP_COVERAGE, GOSSIP_LLOYD]),
    mode=st.sampled_from([UNIFORM_REGION, OPEN_BOUNDARY]),
    uniform=st.booleans(),
)
def test_step_caches_match_fresh_searches(rng, n, algorithm, mode, uniform):
    n, edges = random_off_lattice_graph(rng, n)
    if uniform:
        # hop-count matrices, which the record keeps as small integers
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    config = fig2a_config(
        r_comm=g.max_edge_weight + rng.uniform(0.01, 3.0),
        seed=rng.randrange(1000),
        destination_mode=mode,
    )
    world = World(g, part, phi, config, algorithm=algorithm, record_motion=False)
    trips = []
    choose = sim._choose_destination

    def recorded(world, robot):
        start = robot.current_vertex
        choose(world, robot)
        if robot.mode == MOVING:
            trips.append((start, [start] + robot.path, world.partition.region(robot.id)))

    sim._choose_destination = recorded
    try:
        for _ in range(60):
            step(world)
            assert world._pairs == pairs_from_all_balls(world)
            for territory, region in zip(world._territories, world.partition.regions()):
                assert np.array_equal(territory.ids, region)
                assert np.array_equal(territory.dists, region_distance_matrix(g, region))
                if uniform:
                    assert territory.dists.dtype.kind == "u"
            for start, path, region in trips:
                assert path == oracle_shortest_path(g, region, start, path[-1])
            trips.clear()
    finally:
        sim._choose_destination = choose


def reference_step(world, motion):
    """One step of world with the step-by-step motion loop, a pair list
    computed afresh and every pair's clock drawn before any meeting
    applies; trips and waits that a meeting starts go to motion through the
    patched trip and wait starts."""
    world.time += world.config.dt

    def arrived(robot):
        sim._record(world, ARRIVAL, robot.id, None, motion=True)
        if robot.mode == RELOCATING:
            sim._choose_destination(world, robot)
        else:
            motion.start_wait(robot)

    choose = lambda robot: sim._choose_destination(world, robot)
    motion.step(world.robots, world.graph.edge_weight, choose, arrived)
    world._pairs = pairs_from_all_balls(world)
    fired = [p for p in world._pairs if world.rng.random() < world._fire_prob]
    met = set()
    for i, j in fired:
        if i not in met and j not in met:
            met.update((i, j))
            sim._apply_meeting(world, i, j)


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 10),
    algorithm=st.sampled_from([GOSSIP_COVERAGE, GOSSIP_LLOYD]),
    mode=st.sampled_from([UNIFORM_REGION, OPEN_BOUNDARY]),
    budget=st.sampled_from([None, 1]),
    uniform=st.booleans(),
    # meters per step below and above the edge weights (0.05 to 3, or 0.6)
    reach=st.sampled_from([0.04, 0.5, 3.5]),
    # 0.3 and 0.7 do not divide tau
    timing=st.sampled_from([(1.0, 0.3), (2.5, 0.7), (1.0, 0.5)]),
    plan_steps=st.sampled_from([PLAN_STEPS, 1, 3]),
)
def test_scheduled_motion_equals_step_by_step_reference(
    rng, n, algorithm, mode, budget, uniform, reach, timing, plan_steps
):
    n, edges = random_off_lattice_graph(rng, n)
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    tau, dt = timing
    config = SimConfig(
        speed=reach / dt, r_comm=g.max_edge_weight + rng.uniform(0.01, 3.0), lambda_comm=0.5,
        tau=tau, dt=dt, destination_mode=mode, exchange_budget=budget, seed=rng.randrange(1000),
    )
    real = (sim.PLAN_STEPS, sim._start_trip, sim._start_wait)
    # a small PLAN_STEPS makes waits and trips resume their recurrence
    sim.PLAN_STEPS = plan_steps
    try:
        scheduled = World(g, part, phi, config, algorithm=algorithm)
        reference = World(g, part, phi, config, algorithm=algorithm)
        motion = ReferenceMotion(3, config.speed, tau, dt)
        sim._start_trip = lambda world, robot, path, mode: (
            motion.start_trip(robot, path, mode)
            if world is reference
            else real[1](world, robot, path, mode)
        )
        sim._start_wait = lambda world, robot: (
            motion.start_wait(robot) if world is reference else real[2](world, robot)
        )
        for _ in range(80):
            step(scheduled)
            reference_step(reference, motion)
            assert [(r.current_vertex, r.mode, r.path) for r in scheduled.robots] == [
                (r.current_vertex, r.mode, r.path) for r in reference.robots
            ]
            assert scheduled._pairs == pairs_from_all_balls(scheduled) == reference._pairs
            assert scheduled.events == reference.events
            assert scheduled.rng.getstate() == reference.rng.getstate()
    finally:
        sim.PLAN_STEPS, sim._start_trip, sim._start_wait = real


def test_crawling_robot_and_endless_wait_plan_a_bounded_number_of_steps_at_a_time():
    # 1e-300 m per step never crosses the edge, and 1e300 - 0.5 rounds back
    # to 1e300, so neither recurrence ends; each stops every PLAN_STEPS steps
    # and resumes when that step comes
    world = one_robot_world(speed=2e-300, tau=100.0)
    robot = start_trip(world, [1])
    assert world._arrivals[0] == [] and world._due[0] == PLAN_STEPS
    world._step = PLAN_STEPS - 1
    step(world)
    assert (robot.current_vertex, robot.path, robot.mode) == (0, [1], MOVING)
    assert world._due[0] == 2 * PLAN_STEPS
    world = one_robot_world(tau=1e300)
    assert world._due[0] == PLAN_STEPS
    world._step = PLAN_STEPS - 1
    step(world)
    assert (world.robots[0].mode, world._due[0]) == (WAITING, 2 * PLAN_STEPS)


def cross_edge(budget, w, per_step):
    """The trip recurrence over one edge of weight w, from progress 0.0 with
    budget left in the step: the steps it takes and the budget left after."""
    steps, progress = 0, 0.0
    while budget < w - progress or budget == 0.0:
        progress += budget
        steps, budget = steps + 1, per_step
    return steps, budget - (w - progress)


@settings(max_examples=40, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 10),
    uniform=st.booleans(),
    reach=st.sampled_from([0.04, 0.5, 3.5]),
    dt=st.sampled_from([0.3, 0.5, 0.7]),
    plan_steps=st.sampled_from([PLAN_STEPS, 1, 3]),
)
def test_every_crossing_memo_entry_equals_a_fresh_recurrence(
    rng, n, uniform, reach, dt, plan_steps
):
    n, edges = random_off_lattice_graph(rng, n)
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    config = SimConfig(
        speed=reach / dt, r_comm=g.max_edge_weight + rng.uniform(0.01, 3.0), lambda_comm=0.5,
        tau=1.0, dt=dt, seed=rng.randrange(1000),
    )
    algorithm = rng.choice([GOSSIP_COVERAGE, GOSSIP_LLOYD])
    real = sim.PLAN_STEPS
    # a small PLAN_STEPS pauses crossings mid-edge
    sim.PLAN_STEPS = plan_steps
    try:
        world = World(g, part, phi, config, algorithm=algorithm)
        for _ in range(200):
            step(world)
    finally:
        sim.PLAN_STEPS = real
    if plan_steps == PLAN_STEPS and any(event.kind == "DEPARTURE" for event in world.events):
        assert world._crossings
    for (budget, w), known in world._crossings.items():
        assert known == cross_edge(budget, w, world._budget)


def test_crossing_paused_by_plan_steps_is_never_stored(monkeypatch):
    # a quarter of the unit edge per step: each crossing takes four steps,
    # one more than a pass of the recurrence may look ahead
    monkeypatch.setattr(sim, "PLAN_STEPS", 3)
    world = one_robot_world(tau=100.0)
    robot = start_trip(world, [1, 2])
    assert (world._arrivals[0], world._crossings) == ([], {})
    for _ in range(8):
        step(world)
    assert (robot.current_vertex, world._crossings) == (2, {})
    # a pass of five steps keeps the first crossing; the second is known,
    # but would end past the pass, so the recurrence stops at the pass end
    monkeypatch.setattr(sim, "PLAN_STEPS", 5)
    begin = world._step
    start_trip(world, [3, 4])
    assert world._arrivals[0] == [begin + 4]
    assert world._resume[0] == (begin + 5, 0.0, 0.25)
    assert world._crossings == {(0.0, 1.0): (4, 0.0)}
    for _ in range(8):
        step(world)
    assert (robot.current_vertex, world._crossings) == (4, {(0.0, 1.0): (4, 0.0)})
    # planned in one pass, both crossings are read back
    monkeypatch.setattr(sim, "PLAN_STEPS", PLAN_STEPS)
    begin = world._step
    start_trip(world, [3, 2])
    assert world._arrivals[0] == [begin + 4, begin + 8]


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 14),
    n_robots=st.integers(2, 6),
)
def test_regions_touch_matches_adjacency_edges(rng, n, n_robots):
    n, edges = random_off_lattice_graph(rng, n)
    g = WeightedGraph(n, edges)
    _, part = random_start(g, min(n_robots, n), rng.randrange(1000))
    world = World(g, part, PhiWeights.uniform(n), quiet_config(r_comm=g.max_edge_weight + 1.0))
    touching = adjacency_edges(g, part)
    for i in range(part.n_robots):
        for j in range(part.n_robots):
            if i != j:
                assert sim._regions_touch(world, i, j) == ((min(i, j), max(i, j)) in touching)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(4, 14), uniform=st.booleans())
def test_lloyd_move_that_keeps_both_centroids_closes_its_pair(rng, n, uniform):
    n, edges = random_off_lattice_graph(rng, n)
    if uniform:
        edges = [(u, v, 0.6) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    phi = PhiWeights([off_lattice(rng) for _ in range(n)])
    _, part = random_start(g, 3, rng.randrange(1000))
    r_comm = sum(w for _, _, w in edges) + 1.0
    config = fig2a_config(r_comm=r_comm, seed=rng.randrange(1000))
    world = World(g, part, phi, config, algorithm=GOSSIP_LLOYD, record_motion=False)
    for _ in range(200):
        before = [territory.centroid for territory in world._territories]
        seen = len(world.events)
        step(world)
        for event in world.events[seen:]:
            if event.kind != "EXCHANGE":
                continue
            # a robot meets at most once per step, so no later adoption in
            # the step reopened or dropped the pair
            i, j = event.robot_i, event.robot_j
            centers = (world._territories[i].centroid, world._territories[j].centroid)
            closed = centers == (before[i], before[j])
            assert (world._pair_state[(i, j)] is None) == closed
            if closed:
                assert gossip_lloyd_exchange(g, world.partition, i, j, phi, centers) is (
                    world.partition
                )


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 12), k=st.integers(1, 12))
def test_boundary_candidates_are_region_vertices_with_an_outside_neighbour(rng, n, k):
    n, edges = random_off_lattice_graph(rng, n) if n > 1 else (1, [])
    g = WeightedGraph(n, edges)
    region = rng.sample(range(n), min(k, n))  # any order: the result keeps it
    members = set(region)
    boundary = [v for v in region if any(u not in members for u, _ in g.neighbors(v))]
    assert destination_candidates(g, region, OPEN_BOUNDARY) == (boundary or region)
    assert destination_candidates(g, np.array(region), UNIFORM_REGION) == region


@pytest.mark.parametrize(
    "algorithm, rule",
    [(GOSSIP_LLOYD, "gossip_lloyd_exchange"), (GOSSIP_COVERAGE, "pairwise_exchange")],
)
def test_unchanged_pair_skipped_until_an_exchange_reopens_it(monkeypatch, algorithm, rule):
    calls = []
    original = getattr(sim, rule)

    def counted(graph, partition, i, j, *args, **kwargs):
        calls.append((i, j))
        return original(graph, partition, i, j, *args, **kwargs)

    monkeypatch.setattr(sim, rule, counted)
    # (0, 1) is already settled; (1, 2) moves vertex 4 to robot 1
    part = partition_from_regions(9, [[0, 1], [2, 3], [4, 5, 6, 7, 8]])
    path9 = parse_grid(".........\n")
    world = World(path9, part, PhiWeights.uniform(9), quiet_config(), algorithm=algorithm)
    _apply_meeting(world, 0, 1)
    _apply_meeting(world, 0, 1)
    assert calls == [(0, 1)]
    assert world.meeting_count == 2
    assert [e.kind for e in world.events] == [MEETING_NOCHANGE, MEETING_NOCHANGE]
    _apply_meeting(world, 1, 2)
    assert world.exchange_count == 1
    assert 4 in world.partition.region(1)
    _apply_meeting(world, 0, 1)
    assert calls == [(0, 1), (1, 2), (0, 1)]


@pytest.mark.parametrize(
    "algorithm, budget, kept",
    [
        (GOSSIP_COVERAGE, None, True),
        # a budgeted chain can adopt partway where the check's full scan does not
        (GOSSIP_COVERAGE, 1, False),
        (GOSSIP_LLOYD, None, True),
        (GOSSIP_LLOYD, 1, True),
    ],
)
def test_settled_keeps_the_verdicts_it_reaches(monkeypatch, algorithm, budget, kept):
    # the check leaves (0, 1) unchanged, then stops at (1, 2), which moves
    part = partition_from_regions(9, [[0, 1], [2, 3], [4, 5, 6, 7, 8]])
    path9 = parse_grid(".........\n")
    config = quiet_config(exchange_budget=budget)
    world = World(path9, part, PhiWeights.uniform(9), config, algorithm=algorithm)
    assert not sim._settled(world)
    assert world._pair_state == ({(0, 1): None} if kept else {})
    calls = []
    rule = "gossip_lloyd_exchange" if algorithm == GOSSIP_LLOYD else "pairwise_exchange"
    original = getattr(sim, rule)

    def counted(graph, partition, i, j, *args, **kwargs):
        calls.append((i, j))
        return original(graph, partition, i, j, *args, **kwargs)

    monkeypatch.setattr(sim, rule, counted)
    _apply_meeting(world, 0, 1)
    assert calls == ([] if kept else [(0, 1)])
    assert world.meeting_count == 1
    assert [e.kind for e in world.events] == [MEETING_NOCHANGE]


@pytest.mark.parametrize("algorithm", [GOSSIP_COVERAGE, GOSSIP_LLOYD])
def test_out_of_contact_meeting_calls_no_rule(monkeypatch, algorithm):
    calls = []
    for rule in ("gossip_lloyd_exchange", "pairwise_exchange"):
        monkeypatch.setattr(sim, rule, lambda *args, **kwargs: calls.append(args[2:4]))
    # robots 0 and 2 are in radio range, but robot 1's region lies between theirs
    part = partition_from_regions(9, [[0, 1], [2, 3], [4, 5, 6, 7, 8]])
    path9 = parse_grid(".........\n")
    world = World(
        path9, part, PhiWeights.uniform(9), quiet_config(r_comm=20.0), algorithm=algorithm
    )
    assert (0, 2) in world._pairs
    _apply_meeting(world, 0, 2)
    assert calls == []
    assert world.meeting_count == 1
    assert world.exchange_count == 0
    assert [(e.kind, e.robot_i, e.robot_j) for e in world.events] == [(MEETING_NOCHANGE, 0, 2)]
    assert world._pair_state[(0, 2)] is None
    assert world.partition == part


def test_run_obstacle_grid_converges_and_improves():
    graph = parse_grid(
        "............\n"
        "..##....##..\n"
        "..##....##..\n"
        "............\n"
        "....####....\n"
        "....####....\n"
        "............\n"
        "............\n"
        ".##......##.\n"
        ".##......##.\n"
        "............\n"
        "............\n"
    )
    phi = PhiWeights.uniform(graph.n)
    rng = random.Random(9)
    seeds = rng.sample(range(graph.n), 4)
    part = voronoi_partition(graph, seeds)
    config = SimConfig(
        speed=0.5,
        r_comm=2.5,
        lambda_comm=0.5,
        tau=1.0,
        dt=0.5,
        seed=9,
        convergence_window=5.0,
        max_time=20000.0,
    )
    trace = run(graph, part, phi, config, initial_positions=seeds)
    assert trace.converged
    assert trace.final_cost < trace.initial_cost
    assert is_pairwise_optimal(graph, trace.final_partition, phi)
    assert is_centroidal_voronoi(graph, trace.final_partition, phi)
    trace.final_partition.validate(graph)


# ---- exchange side effects on motion ----


def meeting_world(positions):
    grid = parse_grid(".....\n.....\n")
    part = partition_from_regions(10, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    config = SimConfig(
        speed=0.5, r_comm=2.5, lambda_comm=1e6, tau=1.0, dt=0.5, convergence_window=2.0
    )
    return World(grid, part, PhiWeights.uniform(10), config, initial_positions=positions)


def test_exchange_relocates_robot_that_gave_away_its_vertex():
    # robot 0 waits on vertex 3, which the optimal exchange hands to robot 1
    world = meeting_world([3, 7])
    step(world)
    assert world.exchange_count == 1
    robot = world.robots[0]
    assert robot.current_vertex == 3
    assert robot.mode == RELOCATING
    assert robot.path == [2]
    region0 = set(map(int, world.partition.region(0)))
    assert region0 == {0, 1, 2, 5, 6}
    assert robot.path[-1] in region0
    # four quarter-steps cross the unit edge; arrival resumes the protocol
    for _ in range(4):
        step(world)
    assert robot.current_vertex == 2
    assert robot.mode in (WAITING, MOVING)


def test_exchange_resamples_robot_whose_path_left_its_region():
    world = meeting_world([2, 7])
    robot = start_trip(world, [3, 4])
    step(world)
    assert world.exchange_count == 1
    region0 = set(map(int, world.partition.region(0)))
    assert region0 == {0, 1, 2, 5, 6}
    # snapped back to the tail vertex with a destination inside the new region
    assert robot.current_vertex == 2
    assert robot.mode in (WAITING, MOVING)
    if robot.mode == MOVING:
        # the quarter edge walked before the exchange is dropped: the new
        # trip's first unit edge takes four more steps
        assert world._arrivals[0][0] == world._step + 4
    for v in robot.path:
        assert v in region0


def relocation_by_reference(graph, source, region):
    """The whole-graph relocation path: source's one_to_all row, the first
    of the nearest region vertices in id order, the walk back over range(n)."""
    row = one_to_all(graph, source).tolist()
    target = min(sorted(region), key=row.__getitem__)
    return _walk_back(graph, row, range(graph.n), source, target)


def relocate(world, k, v):
    """Put robot k on vertex v, outside its region, repair it, and return
    the relocation path from v."""
    robot = world.robots[k]
    robot.current_vertex = v
    sim._repair_robot(world, robot)
    assert robot.mode == RELOCATING
    return [v] + robot.path


def test_relocation_goes_to_the_lower_of_two_equally_near_members():
    # robot 0 owns {0, 1, 7} of the 8-cycle; from vertex 4, three hops out,
    # members 1 and 7 are equally near
    g = WeightedGraph(8, [(v, (v + 1) % 8, 0.5) for v in range(8)])
    part = partition_from_regions(8, [[0, 1, 7], [2, 3, 4, 5, 6]])
    world = World(g, part, PhiWeights.uniform(8), quiet_config())
    assert relocate(world, 0, 4) == [4, 3, 2, 1] == relocation_by_reference(g, 4, [0, 1, 7])


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(3, 16),
    n_robots=st.integers(2, 4),
    # sparse graphs put vertices several hops outside a region
    extra=st.sampled_from([0.0, 0.1, 0.3]),
    uniform=st.booleans(),
)
def test_relocation_equals_whole_graph_search(rng, n, n_robots, extra, uniform):
    n, edges = random_connected_graph(rng, n, extra_edge_prob=extra, uniform=True)
    if not uniform:
        edges = [(u, v, off_lattice(rng)) for u, v, _ in edges]
    g = WeightedGraph(n, edges)
    _, part = random_start(g, min(n_robots, n), rng.randrange(1000))
    config = quiet_config(r_comm=g.max_edge_weight + 1.0)
    world = World(g, part, PhiWeights.uniform(n), config)
    for k in range(part.n_robots):
        region = part.region(k).tolist()
        paths = {
            v: relocation_by_reference(g, v, region) for v in range(n) if part.owner[v] != k
        }
        if not paths:
            continue
        farthest = max(paths, key=lambda v: len(paths[v]))
        for v in (farthest, rng.choice(sorted(paths))):
            assert relocate(world, k, v) == paths[v]


def test_repeated_meetings_after_optimum_change_nothing():
    world = meeting_world([3, 7])
    for _ in range(40):
        step(world)
    assert world.exchange_count == 1
    assert world.meeting_count > 1
    assert world.current_cost() == 1.0


# ---- region matrices ----


@pytest.mark.parametrize("algorithm", [GOSSIP_COVERAGE, GOSSIP_LLOYD])
def test_run_searches_region_matrices_only_for_the_start(monkeypatch, algorithm):
    # an adopted exchange prices its regions from the matrices the meeting
    # holds: the scan's union matrix, or the robots' old Territories
    graph = parse_grid(
        "..........\n"
        "..##..##..\n"
        "..........\n"
        "....##....\n"
        "..........\n"
        "..##..##..\n"
        "..........\n"
    )
    searched = []

    def counted(graph, ids):
        searched.append(len(ids))
        return region_distance_matrix(graph, ids)

    for module in (graph_module, partition_module, exchange_module):
        monkeypatch.setattr(module, "region_distance_matrix", counted)
    phi = PhiWeights.uniform(graph.n)
    start = voronoi_partition(graph, random.Random(3).sample(range(graph.n), 5))
    config = SimConfig(
        speed=0.5, r_comm=2.5, lambda_comm=0.5, tau=1.0, dt=0.5, seed=4, convergence_window=5.0
    )
    trace = run(graph, start, phi, config, algorithm=algorithm)
    assert trace.converged and trace.exchange_count > 0
    assert searched == [len(region) for region in start.regions()]
