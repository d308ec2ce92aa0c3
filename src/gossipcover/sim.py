"""Discrete-time multi-robot coverage simulator.

Robots wander their own territories with a random-destination-and-wait
protocol: sample a destination in the owned region, travel there along
the region's shortest path at constant speed, wait tau, repeat. While
two robots sit within communication range of each other, a Poisson
clock (thinned per step to firing probability 1 - exp(-lambda*dt))
triggers a pairwise territory exchange. Time advances in fixed dt
steps: each step first moves every robot through a whole step of its
current phase, then resolves at most one meeting per robot. Exchanges
take zero simulated time; a robot whose vertex is traded away walks the
full graph back to its territory before resuming the protocol.

Each robot's record is its region's Territory (sorted ids, centroid,
cost, and the region distance matrix that priced it) plus its
destination candidates. One helper writes it, at the start and for the
two robots of an adopted exchange, from the Territories the rule built
to price the new regions. Meetings, convergence checks, trips and
repairs read their regions from it: the exchange scan takes its
incumbent from the cache and builds only the union's distance matrix,
and a trip walks back along the cached matrix row of the robot's
vertex instead of searching its region. A meeting of a pair that the
rule already left unchanged at the same regions, or whose regions share
no graph edge (neither rule can move a vertex there), is counted but
not evaluated; the convergence check skips the former. The in-range pair list is
rebuilt only in steps after which some robot stands on another vertex.

Everything is driven by one seeded random.Random stream, so a run is a
pure function of (graph, partition, phi, config).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exchange import ExchangeBudget, pairwise_exchange
from .graph import UNREACHABLE, WeightedGraph, _walk_back, one_to_all
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
    edge_progress: float = 0.0
    mode: str = WAITING
    wait_remaining: float = 0.0


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
    """Mutable simulator state for one seeded run; advance with step()."""

    def __init__(
        self,
        graph: WeightedGraph,
        partition: Partition,
        phi: PhiWeights,
        config: SimConfig,
        algorithm: str = GOSSIP_COVERAGE,
        initial_positions: Optional[Sequence[int]] = None,
        record_motion: bool = True,
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
        # per robot: the Territory of its current region and its
        # destination candidates, written only by _write_record
        self._territories: list[Optional[Territory]] = [None] * n_robots
        self._destinations: list[list[int]] = [[]] * n_robots
        regions = self.partition.regions()
        _write_record(self, range(n_robots), [price_region(graph, r, phi) for r in regions])
        edges = [(u, v) for u, v, _ in graph.edges()]
        self._edge_ends = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        # (i, j) -> budget resuming the pair's scan, or None once the rule
        # has left the pair unchanged or the two regions were found apart;
        # an adoption drops the pairs it touches
        self._pair_state: dict[tuple[int, int], Optional[ExchangeBudget]] = {}
        # eligible_pairs' last list and the robot vertices it was built at
        self._pairs_at: tuple[int, ...] = ()
        self._pairs: list[tuple[int, int]] = []

        if initial_positions is None:
            starts = [territory.centroid for territory in self._territories]
        else:
            starts = [int(p) for p in initial_positions]
            if len(starts) != n_robots:
                raise PartitionError("need one initial position per robot")
            for k, v in enumerate(starts):
                if not (0 <= v < graph.n) or int(self.partition.owner[v]) != k:
                    raise PartitionError(f"robot {k} starts outside its region")
        self.robots = [
            RobotState(id=k, current_vertex=v, mode=WAITING, wait_remaining=config.tau)
            for k, v in enumerate(starts)
        ]

    def current_cost(self) -> float:
        return self._h_now


def _write_record(world: World, robots: Sequence[int], territories: Sequence[Territory]) -> None:
    """Give each robot its Territory and destination candidates, then
    re-sum the expected cost: the one writer of the per-robot record."""
    for k, territory in zip(robots, territories):
        world._territories[k] = territory
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


def _choose_destination(world: World, robot: RobotState) -> None:
    candidates = world._destinations[robot.id]
    dest = candidates[world.rng.randrange(len(candidates))]
    robot.edge_progress = 0.0
    if dest == robot.current_vertex:
        robot.path = []
        robot.mode = WAITING
        robot.wait_remaining = world.config.tau
        return
    # the cached matrix row of the robot's vertex is its one_to_all row in
    # the region, so the walk gives the path shortest_path would
    territory = world._territories[robot.id]
    dist = np.full(world.graph.n, UNREACHABLE)
    dist[territory.ids] = territory.dists[np.searchsorted(territory.ids, robot.current_vertex)]
    robot.path = _walk_back(world.graph, dist, robot.current_vertex, dest)[1:]
    robot.mode = MOVING
    _record(world, DEPARTURE, robot.id, None, motion=True)


def _advance(world: World, robot: RobotState, dt: float) -> None:
    budget = world.config.speed * dt
    graph = world.graph
    while budget > 0.0 and robot.path:
        w = graph.edge_weight(robot.current_vertex, robot.path[0])
        need = w - robot.edge_progress
        if budget >= need:
            robot.current_vertex = robot.path.pop(0)
            robot.edge_progress = 0.0
            budget -= need
        else:
            robot.edge_progress += budget
            budget = 0.0
    if robot.path:
        return
    was_relocating = robot.mode == RELOCATING
    robot.edge_progress = 0.0
    _record(world, ARRIVAL, robot.id, None, motion=True)
    if was_relocating:
        _choose_destination(world, robot)
    else:
        robot.mode = WAITING
        robot.wait_remaining = world.config.tau


def eligible_pairs(world: World) -> list[tuple[int, int]]:
    """Robot pairs i < j within strict communication range of each other,
    in row-major order; range is tested from the lower-indexed robot.

    The list is kept with the robot vertices it was built at and
    rebuilt only when one of them changed; callers must not modify it.
    """
    at = tuple([robot.current_vertex for robot in world.robots])
    if at != world._pairs_at:
        graph, r = world.graph, world.config.r_comm
        pairs = []
        for i in range(len(at) - 1):
            ball = graph.neighborhood(at[i], r)
            for j in range(i + 1, len(at)):
                if at[j] in ball:
                    pairs.append((i, j))
        world._pairs_at, world._pairs = at, pairs
    return world._pairs


def _repair_robot(world: World, robot: RobotState) -> None:
    """Restore protocol invariants for a robot after its region changed."""
    region = world._territories[robot.id].ids
    members = set(region.tolist())
    if robot.current_vertex not in members:
        dist = one_to_all(world.graph, None, robot.current_vertex)
        target = int(region[np.argmin(dist[region])])
        robot.path = _walk_back(world.graph, dist, robot.current_vertex, target)[1:]
        robot.edge_progress = 0.0
        robot.mode = RELOCATING
        return
    if robot.mode == WAITING:
        return
    if robot.mode == MOVING and robot.path and all(v in members for v in robot.path):
        return
    _choose_destination(world, robot)


def _regions_touch(world: World, i: int, j: int) -> bool:
    """True when the regions of robots i and j share a graph edge."""
    tails, heads = world.partition.owner[world._edge_ends]
    return bool(np.any(((tails == i) & (heads == j)) | ((tails == j) & (heads == i))))


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
            priced = [price_region(graph, new_partition.region(k), phi) for k in (i, j)]
            state = budget  # a Lloyd move leaves the pair open
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


def _resolve_meetings(world: World) -> None:
    pairs = eligible_pairs(world)
    fired = [p for p in pairs if world.rng.random() < world._fire_prob]
    consumed: set[int] = set()
    for i, j in fired:
        if i in consumed or j in consumed:
            continue
        consumed.add(i)
        consumed.add(j)
        _apply_meeting(world, i, j)


def step(world: World) -> World:
    """Advance the world one config.dt step: whole-step motion, then meetings."""
    dt = world.config.dt
    world.time += dt
    for robot in world.robots:
        if robot.mode == WAITING:
            robot.wait_remaining -= dt
            if robot.wait_remaining <= 0.0:
                _choose_destination(world, robot)
        else:
            _advance(world, robot, dt)
    _resolve_meetings(world)
    return world


def _settled(world: World) -> bool:
    """The algorithm's fixed-point predicate, from the cached Territories
    and without asking the pairs the rule already left unchanged."""
    done = {pair for pair, state in world._pair_state.items() if state is None}
    fixed = is_gossip_lloyd_fixed_point if world.algorithm == GOSSIP_LLOYD else is_pairwise_optimal
    return fixed(world.graph, world.partition, world.phi, world._territories, done)


def run(
    graph: WeightedGraph,
    initial_partition: Partition,
    phi: PhiWeights,
    config: SimConfig,
    algorithm: str = GOSSIP_COVERAGE,
    initial_positions: Optional[Sequence[int]] = None,
    record_motion: bool = True,
) -> SimTrace:
    """Simulate until convergence or max_time.

    Convergence means the partition has not changed for
    convergence_window seconds and the algorithm's own fixed-point
    predicate holds (pairwise optimality, or the Lloyd exchange fixed
    point). Robots start waiting at initial_positions (default: their
    region centroids).
    """
    world = World(
        graph,
        initial_partition,
        phi,
        config,
        algorithm=algorithm,
        initial_positions=initial_positions,
        record_motion=record_motion,
    )
    initial_cost = world.current_cost()
    # a lone robot has no pair to exchange with
    world.converged = world.partition.n_robots == 1
    while not world.converged and world.time < config.max_time:
        step(world)
        if (
            not world._checked_since_change
            and world.time - world.last_change_time >= config.convergence_window
        ):
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
