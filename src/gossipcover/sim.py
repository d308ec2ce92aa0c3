"""Discrete-time multi-robot coverage simulator.

Robots wander their own territories with a random-destination-and-wait
protocol: sample a destination in the owned region, travel there along
the region's shortest path at constant speed, wait tau, repeat. While
two robots sit within communication range of each other, a Poisson
clock (thinned per step to firing probability 1 - exp(-lambda*dt))
triggers a pairwise territory exchange. Time advances in fixed dt
steps: each step first handles the motion events due in it (arrivals at
path vertices and ends of waits), then draws the clock of every pair in
range, in row-major order, before it resolves at most one meeting per
robot, in the first of its pairs that fired. Exchanges take zero
simulated time; a robot whose vertex is traded away walks back to its
territory, along a shortest path through the whole graph to the nearest
vertex of its region (the lowest id among equally near ones), before
resuming the protocol. On uniform-weight graphs that search goes out one
hop level at a time and stops at the first level that holds a region
vertex.

Motion runs on an exact event schedule. A wait lasts the number of steps
in which tau, less dt per step, stays positive; it is counted once per
World. When a trip starts, the per-step motion recurrence (each step
brings speed * dt meters, spent edge by edge; what is left at the end of
the trip is dropped) runs once over its whole path and keeps the step at
which each vertex is reached; an edge crossing from progress 0.0 depends
only on the budget left and the weight, so the first one of each kind is
kept and read back. A step then touches only the robots with an event
due, in robot index order, so the random draws keep their order; the
floating-point operations are those of a step-by-step walk, in the same
order, only done earlier. One pass of either recurrence looks at most
PLAN_STEPS steps ahead; a longer wait or trip resumes its recurrence
when that step comes, so a crawling robot or a very long wait costs no
more than stepping it would.

Each robot's record is its region's Territory (sorted ids, centroid,
cost, and the region distance matrix that priced it), its vertices'
positions in the ids, and its destination candidates. One helper writes
it, at the start and for the two robots of an adopted exchange, from the
Territories the rule built to price the new regions. On uniform-weight
graphs only the start searches region matrices from scratch: a new
region is priced from a matrix the meeting already holds
(partition.price_region's seed). The pairwise rule seeds both sides with
the scan's union matrix, and a Lloyd move seeds each robot's new region
with the matrix of its old Territory. Meetings, convergence checks,
trips and repairs read their regions from the record: the exchange scan
takes its incumbent from the cache and, on uniform-weight graphs,
composes the union's distance matrix from the two cached ones, and a
trip walks back along the cached matrix row of the robot's vertex
instead of searching its region. A meeting of a pair that the rule
already left unchanged at the same regions, at a meeting or in a
convergence check, or whose regions share no graph edge (neither rule
can move a vertex there), is counted but not evaluated; the convergence
check skips the former. The set of in-range pairs changes only by
retesting the pairs of the robots that reached a vertex in the step; its
row-major list is rebuilt only when one of those pairs entered or left
range, and a step with no pair in range skips the meeting pass.

Everything is driven by one seeded random.Random stream, so a run is a
pure function of (graph, partition, phi, config).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exchange import ExchangeBudget, pairwise_exchange
from .graph import WeightedGraph, _path_to_nearest, _walk_back
from .lloyd import gossip_lloyd_exchange, is_gossip_lloyd_fixed_point
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    Territory,
    expected_cost,
    is_pairwise_optimal,
    price_region,
)

MOVING = "MOVING"
WAITING = "WAITING"
RELOCATING = "RELOCATING"

UNIFORM_REGION = "uniform"
OPEN_BOUNDARY = "boundary"

EXCHANGE = "EXCHANGE"
MEETING_NOCHANGE = "MEETING_NOCHANGE"
ARRIVAL = "ARRIVAL"
DEPARTURE = "DEPARTURE"

GOSSIP_COVERAGE = "gossip-coverage"
GOSSIP_LLOYD = "gossip-lloyd"

# the most steps one pass of the wait or trip recurrence runs ahead
PLAN_STEPS = 1 << 16

@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run; defaults fit small lab-scale maps."""

    speed: float = 0.4
    r_comm: float = 2.5
    lambda_comm: float = 0.3
    tau: float = 3.5
    dt: float = 0.1
    destination_mode: str = UNIFORM_REGION
    exchange_budget: Optional[int] = None
    seed: int = 0
    max_time: float = 50000.0
    convergence_window: float = 30.0

    def validate(self, graph: WeightedGraph) -> None:
        for name in (
            "speed", "r_comm", "lambda_comm", "tau", "dt", "max_time", "convergence_window"
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("speed", "lambda_comm", "tau", "dt", "max_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.dt > self.tau:
            raise ValueError("dt must not exceed tau")
        if self.r_comm <= graph.max_edge_weight:
            raise ValueError("r_comm must exceed the largest edge weight")
        if self.destination_mode not in (UNIFORM_REGION, OPEN_BOUNDARY):
            raise ValueError(f"unknown destination mode {self.destination_mode!r}")
        if self.exchange_budget is not None and self.exchange_budget < 1:
            raise ValueError("exchange_budget must be positive or None")
        if self.convergence_window < 0:
            raise ValueError("convergence_window must be nonnegative")


@dataclass
class RobotState:
    id: int
    current_vertex: int
    path: list[int] = field(default_factory=list)
    mode: str = WAITING


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    robot_i: int
    robot_j: Optional[int]
    h_exp_after: float


@dataclass
class SimTrace:
    """Everything observable about one run.

    exchange_count counts meetings that moved at least one vertex;
    meeting_count counts every application of the exchange rule;
    meetings_to_equilibrium counts meetings up to the last exchange.
    """

    events: list[TraceEvent]
    final_partition: Partition
    exchange_count: int
    meeting_count: int
    meetings_to_equilibrium: int
    converged: bool
    seed: int
    initial_cost: float
    final_cost: float
    duration: float


def destination_candidates(graph: WeightedGraph, region, mode: str) -> list[int]:
    """The vertices a destination is drawn from, uniformly.

    uniform: the region. boundary: region vertices adjacent to a vertex
    outside the region, falling back to the whole region when that open
    boundary is empty (single-robot case).
    """
    ids = np.asarray(region if isinstance(region, np.ndarray) else list(region), dtype=np.int64)
    if ids.size == 0:
        raise PartitionError("cannot sample a destination from an empty region")
    if mode == OPEN_BOUNDARY:
        outside = np.ones(graph.n)
        outside[ids] = 0.0
        # edge weights are positive: a row sum over outside neighbours is
        # positive exactly when the vertex has one
        boundary = ids[(graph.csr() @ outside)[ids] > 0.0]
        if boundary.size:
            return boundary.tolist()
    elif mode != UNIFORM_REGION:
        raise ValueError(f"unknown destination mode {mode!r}")
    return ids.tolist()


def sample_destination(rng: random.Random, graph: WeightedGraph, region, mode: str) -> int:
    """Pick a destination vertex from a region (see destination_candidates)."""
    candidates = destination_candidates(graph, region, mode)
    return candidates[rng.randrange(len(candidates))]


class World:
    """Mutable simulator state for one seeded run; advance with step().
    priced, the start regions' Territories, spares pricing them again."""

    def __init__(
        self,
        graph: WeightedGraph,
        partition: Partition,
        phi: PhiWeights,
        config: SimConfig,
        algorithm: str = GOSSIP_COVERAGE,
        initial_positions: Optional[Sequence[int]] = None,
        record_motion: bool = True,
        priced: Optional[Sequence[Territory]] = None,
    ):
        config.validate(graph)
        partition.validate(graph)
        if len(phi) != graph.n:
            raise PartitionError("phi length does not match the vertex count")
        if algorithm not in (GOSSIP_COVERAGE, GOSSIP_LLOYD):
            raise ValueError(f"unknown meeting algorithm {algorithm!r}")
        self.graph = graph
        self.partition = partition.copy()
        self.phi = phi
        self.config = config
        self.algorithm = algorithm
        self.record_motion = record_motion
        self.rng = random.Random(config.seed)
        self.time = 0.0
        self.events: list[TraceEvent] = []
        self.exchange_count = 0
        self.meeting_count = 0
        self.meetings_at_last_exchange = 0
        self.last_change_time = 0.0
        self.converged = False
        self._checked_since_change = False
        self._fire_prob = 1.0 - math.exp(-config.lambda_comm * config.dt)

        n_robots = self.partition.n_robots
        # per robot: its region's Territory, each region vertex's position in
        # its ids and its destination candidates, written only by _write_record
        self._territories: list[Optional[Territory]] = [None] * n_robots
        self._positions: list[dict[int, int]] = [{}] * n_robots
        self._destinations: list[list[int]] = [[]] * n_robots
        regions = self.partition.regions()
        if priced is None:
            priced = [price_region(graph, r, phi) for r in regions]
        elif [t.ids.tolist() for t in priced] != [r.tolist() for r in regions]:
            raise PartitionError("priced Territories do not match the partition")
        _write_record(self, range(n_robots), priced)
        # (i, j) -> budget resuming the pair's scan, or None once the rule
        # has left the pair unchanged or the two regions were found apart;
        # an adoption drops the pairs it touches
        self._pair_state: dict[tuple[int, int], Optional[ExchangeBudget]] = {}

        if initial_positions is None:
            starts = [territory.centroid for territory in self._territories]
        else:
            starts = [int(p) for p in initial_positions]
            if len(starts) != n_robots:
                raise PartitionError("need one initial position per robot")
            for k, v in enumerate(starts):
                if not (0 <= v < graph.n) or int(self.partition.owner[v]) != k:
                    raise PartitionError(f"robot {k} starts outside its region")
        self.robots = [RobotState(id=k, current_vertex=v) for k, v in enumerate(starts)]

        # the motion schedule: steps taken, and per robot the step of its
        # next event, the step at which each vertex of its path is reached
        # and where its recurrence stopped short, if it did: (step, budget,
        # progress) on a trip, (step, remaining) in a wait
        self._step = 0
        self._budget = config.speed * config.dt
        self._wait = _count_down(config.tau, config.dt)
        # (budget, weight) -> (steps, budget after) of crossings from progress 0.0
        self._crossings: dict[tuple[float, float], tuple[int, float]] = {}
        self._due = [0] * n_robots
        self._arrivals: list[list[int]] = [[] for _ in range(n_robots)]
        self._resume: list[Optional[tuple]] = [None] * n_robots
        # step -> robots with an event due then; an entry whose step is no
        # longer the robot's _due was left by an old schedule
        self._agenda: dict[int, list[int]] = {}
        for robot in self.robots:
            _start_wait(self, robot)
        # per robot: the vertices in range of its vertex, and whether each
        # other robot is in range; the in-range pairs in row-major order
        self._balls: list[frozenset[int]] = [frozenset()] * n_robots
        self._near = [[False] * n_robots for _ in range(n_robots)]
        self._pairs: list[tuple[int, int]] = []
        _retest_pairs(self, range(n_robots))

    def current_cost(self) -> float:
        return self._h_now


def _write_record(world: World, robots: Sequence[int], territories: Sequence[Territory]) -> None:
    """Give each robot its Territory and destination candidates, then
    re-sum the expected cost: the one writer of the per-robot record."""
    for k, territory in zip(robots, territories):
        world._territories[k] = territory
        world._positions[k] = {v: at for at, v in enumerate(territory.ids.tolist())}
        world._destinations[k] = destination_candidates(
            world.graph, territory.ids, world.config.destination_mode
        )
    # meters per robot are the floats centroid_and_cost gives
    unit = world.graph.unit_weight or 1.0
    world._h_now = expected_cost([t.cost * unit for t in world._territories], world.phi)


def _record(world: World, kind: str, i: int, j: Optional[int], motion: bool = False) -> None:
    if motion and not world.record_motion:
        return
    world.events.append(TraceEvent(world.time, kind, i, j, world._h_now))


def _schedule(world: World, k: int, due: int) -> None:
    world._due[k] = due
    world._agenda.setdefault(due, []).append(k)


def _count_down(remaining: float, dt: float) -> tuple[int, float]:
    """Steps until remaining, less dt per step, is no longer positive, and
    what is left; at most PLAN_STEPS steps."""
    steps = 0
    while remaining > 0.0 and steps < PLAN_STEPS:
        remaining -= dt
        steps += 1
    return steps, remaining


def _start_wait(world: World, robot: RobotState) -> None:
    robot.mode = WAITING
    robot.path = []
    world._arrivals[robot.id] = []
    _wait_on(world, robot.id, world._wait)


def _wait_on(world: World, k: int, counted: tuple[int, float]) -> None:
    steps, remaining = counted
    end = world._step + steps
    world._resume[k] = None if remaining <= 0.0 else (end, remaining)
    _schedule(world, k, end)


def _start_trip(world: World, robot: RobotState, path: list[int], mode: str) -> None:
    """Send robot along path (the vertices after its own) from this step."""
    robot.path = path
    robot.mode = mode
    world._arrivals[robot.id] = []
    world._resume[robot.id] = (world._step, 0.0, 0.0)
    _plan_trip(world, robot)


def _plan_trip(world: World, robot: RobotState) -> None:
    """Run the motion recurrence on from where robot's plan stopped: each
    step brings a budget of speed * dt meters, spent edge by edge until the
    path ends or the budget runs out mid-edge. Keep the step at which each
    vertex is reached, and schedule the robot's next event."""
    k, per_step, crossings = robot.id, world._budget, world._crossings
    weight = world.graph.edge_weight
    arrivals = world._arrivals[k]
    step, budget, progress = world._resume[k]
    stop = step + PLAN_STEPS
    u = robot.current_vertex
    for v in robot.path:
        w = weight(u, v)
        # a crossing from progress 0.0 depends only on (budget, w): the
        # first one that ends within this pass is kept and read back later
        key = (budget, w) if progress == 0.0 else None
        known = crossings.get(key)
        if known is not None and step + known[0] <= stop:
            step, budget = step + known[0], known[1]
        else:
            start, need = step, w - progress
            # an edge is crossed only with budget to spend, so a progress
            # that rounded up to w waits for the next step
            while budget < need or budget == 0.0:
                # adding a spent (zero) budget leaves the progress as it is
                progress += budget
                if step == stop:
                    world._resume[k] = (step, 0.0, progress)
                    _schedule(world, k, arrivals[0] if arrivals else step)
                    return
                step += 1
                budget = per_step
                need = w - progress
            budget -= need
            progress = 0.0
            if key is not None:
                crossings[key] = (step - start, budget)
        arrivals.append(step)
        u = v
    world._resume[k] = None
    _schedule(world, k, arrivals[0])


def _choose_destination(world: World, robot: RobotState) -> None:
    candidates = world._destinations[robot.id]
    dest = candidates[world.rng.randrange(len(candidates))]
    if dest == robot.current_vertex:
        _start_wait(world, robot)
        return
    # the cached matrix row of the robot's vertex is its one_to_all row in
    # the region, so the walk gives the path shortest_path would
    positions = world._positions[robot.id]
    row = world._territories[robot.id].dists[positions[robot.current_vertex]].tolist()
    path = _walk_back(world.graph, row, positions, robot.current_vertex, dest)
    _start_trip(world, robot, path[1:], MOVING)
    _record(world, DEPARTURE, robot.id, None, motion=True)


def _handle_event(world: World, robot: RobotState) -> bool:
    """Apply robot's event due at this step; True when it changed vertex."""
    k = robot.id
    if robot.mode == WAITING:
        resume = world._resume[k]
        if resume is None:
            _choose_destination(world, robot)
        else:
            _wait_on(world, k, _count_down(resume[1], world.config.dt))
        return False
    arrivals = world._arrivals[k]
    reached = bisect_right(arrivals, world._step)
    if reached:
        robot.current_vertex = robot.path[reached - 1]
        del robot.path[:reached], arrivals[:reached]
    if not robot.path:
        _record(world, ARRIVAL, k, None, motion=True)
        if robot.mode == RELOCATING:
            _choose_destination(world, robot)
        else:
            _start_wait(world, robot)
    elif arrivals:
        _schedule(world, k, arrivals[0])
    else:
        _plan_trip(world, robot)
    return reached > 0


def eligible_pairs(world: World) -> list[tuple[int, int]]:
    """Robot pairs i < j within strict communication range of each other,
    in row-major order; range is tested from the lower-indexed robot."""
    graph, r = world.graph, world.config.r_comm
    at = [robot.current_vertex for robot in world.robots]
    pairs = []
    for i in range(len(at) - 1):
        ball = graph.neighborhood(at[i], r)
        pairs.extend((i, j) for j in range(i + 1, len(at)) if at[j] in ball)
    return pairs


def _retest_pairs(world: World, moved: Sequence[int]) -> None:
    """Bring the in-range pairs up to date after the robots in moved
    changed vertex; only their pairs can have entered or left range."""
    robots, balls, near = world.robots, world._balls, world._near
    neighborhood, r_comm = world.graph.neighborhood, world.config.r_comm
    changed = False
    for k in moved:
        v = robots[k].current_vertex
        ball = balls[k] = neighborhood(v, r_comm)
        # each pair is tested from its lower-indexed robot's ball
        after = [r.current_vertex in ball for r in robots[k + 1 :]]
        row = [v in b for b in balls[:k]] + [False] + after
        if row != near[k]:
            near[k] = row
            for i, inside in enumerate(row):
                near[i][k] = inside
            changed = True
    if changed:
        n = len(robots)
        world._pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n) if near[i][j]]


def _repair_robot(world: World, robot: RobotState) -> None:
    """Restore protocol invariants for a robot after its region changed."""
    members = world._positions[robot.id]
    if robot.current_vertex not in members:
        path = _path_to_nearest(world.graph, robot.current_vertex, members)
        _start_trip(world, robot, path[1:], RELOCATING)
        return
    if robot.mode == WAITING:
        return
    if robot.mode == MOVING and robot.path and all(v in members for v in robot.path):
        return
    _choose_destination(world, robot)


def _regions_touch(world: World, i: int, j: int) -> bool:
    """True when the regions of robots i and j share a graph edge."""
    nbrs = world.graph.neighbor_table()[world._territories[i].ids]
    # the table pads its rows with n, which is no vertex and has no owner
    return bool((world.partition.owner[nbrs[nbrs < world.graph.n]] == j).any())


def _apply_meeting(world: World, i: int, j: int) -> None:
    """Apply the meeting algorithm's rule to robots i < j."""
    world.meeting_count += 1
    cap = world.config.exchange_budget
    budget = world._pair_state.get((i, j), ExchangeBudget(max_pairs=cap))
    if budget is None or not _regions_touch(world, i, j):
        # regions that share no edge keep their vertices under either rule
        world._pair_state[(i, j)] = None
        _record(world, MEETING_NOCHANGE, i, j)
        return
    graph, partition, phi = world.graph, world.partition, world.phi
    priced = (world._territories[i], world._territories[j])
    if world.algorithm == GOSSIP_LLOYD:
        centers = (priced[0].centroid, priced[1].centroid)
        new_partition = gossip_lloyd_exchange(graph, partition, i, j, phi, centers)
        if new_partition is partition:
            state = None
        else:
            priced = [
                price_region(graph, new_partition.region(k), phi, (old.ids, old.dists))
                for k, old in zip((i, j), priced)
            ]
            # the split depends only on (union, centers): kept centers end the pair
            state = None if (priced[0].centroid, priced[1].centroid) == centers else budget
    else:
        positions = (world.robots[i].current_vertex, world.robots[j].current_vertex)
        new_partition, result, priced = pairwise_exchange(
            graph, partition, i, j, phi, budget, positions=positions, priced=priced
        )
        state = None if result.completed else result.next_budget(cap)
    if new_partition is partition:
        world._pair_state[(i, j)] = state
        _record(world, MEETING_NOCHANGE, i, j)
        return
    world.partition = new_partition
    _write_record(world, (i, j), priced)
    world._pair_state = {
        pair: kept for pair, kept in world._pair_state.items() if i not in pair and j not in pair
    }
    world._pair_state[(i, j)] = state
    world.exchange_count += 1
    world.meetings_at_last_exchange = world.meeting_count
    world.last_change_time = world.time
    world._checked_since_change = False
    _record(world, EXCHANGE, i, j)
    _repair_robot(world, world.robots[i])
    _repair_robot(world, world.robots[j])


def step(world: World) -> World:
    """Advance the world one config.dt step: the motion events due, then
    meetings. Every in-range pair draws its clock in row-major order before
    any meeting applies; a robot meets at most once, in its first pair
    that fired."""
    world.time += world.config.dt
    now = world._step = world._step + 1
    due = world._agenda.pop(now, None)
    if due:
        due.sort()
        scheduled, robots = world._due, world.robots
        moved = [k for k in due if scheduled[k] == now and _handle_event(world, robots[k])]
        if moved:
            _retest_pairs(world, moved)
    pairs = world._pairs
    if not pairs:
        return world
    draw, prob = world.rng.random, world._fire_prob
    for first, pair in enumerate(pairs):
        if draw() < prob:
            break
    else:
        return world
    fired = [pair] + [p for p in pairs[first + 1 :] if draw() < prob]
    consumed: set[int] = set()
    for i, j in fired:
        if i in consumed or j in consumed:
            continue
        consumed.add(i)
        consumed.add(j)
        _apply_meeting(world, i, j)
    return world


def _settled(world: World) -> bool:
    """The algorithm's fixed-point predicate, from the cached Territories
    and without asking the pairs the rule already left unchanged.

    The pairs the check finds unchanged are recorded as done, so later
    meetings and checks do not ask the rule again at the same regions;
    gossip-coverage under an exchange budget records none, since a chain
    of budgeted scans can adopt a split that the check's full scan
    rejects.
    """
    done = {pair for pair, state in world._pair_state.items() if state is None}
    lloyd = world.algorithm == GOSSIP_LLOYD
    fixed = is_gossip_lloyd_fixed_point if lloyd else is_pairwise_optimal
    settled = fixed(world.graph, world.partition, world.phi, world._territories, done)
    if lloyd or world.config.exchange_budget is None:
        world._pair_state.update(dict.fromkeys(done))
    return settled


def run(
    graph: WeightedGraph,
    initial_partition: Partition,
    phi: PhiWeights,
    config: SimConfig,
    algorithm: str = GOSSIP_COVERAGE,
    initial_positions: Optional[Sequence[int]] = None,
    record_motion: bool = True,
    priced: Optional[Sequence[Territory]] = None,
) -> SimTrace:
    """Simulate until convergence or max_time.

    Convergence means the partition has not changed for
    convergence_window seconds and the algorithm's own fixed-point
    predicate holds (pairwise optimality, or the Lloyd exchange fixed
    point). Robots start waiting at initial_positions (default: their
    region centroids). priced is World's.
    """
    world = World(
        graph,
        initial_partition,
        phi,
        config,
        algorithm=algorithm,
        initial_positions=initial_positions,
        record_motion=record_motion,
        priced=priced,
    )
    initial_cost = world.current_cost()
    # a lone robot has no pair to exchange with
    world.converged = world.partition.n_robots == 1
    max_time, window = config.max_time, config.convergence_window
    while not world.converged and world.time < max_time:
        step(world)
        if not world._checked_since_change and world.time - world.last_change_time >= window:
            world._checked_since_change = True
            if _settled(world):
                world.converged = True
                break
    return SimTrace(
        events=world.events,
        final_partition=world.partition,
        exchange_count=world.exchange_count,
        meeting_count=world.meeting_count,
        meetings_to_equilibrium=world.meetings_at_last_exchange,
        converged=world.converged,
        seed=config.seed,
        initial_cost=initial_cost,
        final_cost=world.current_cost(),
        duration=world.time,
    )
