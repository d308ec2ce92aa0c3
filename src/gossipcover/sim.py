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
from .graph import WeightedGraph, one_to_all, shortest_path
from .lloyd import gossip_lloyd_exchange, is_gossip_lloyd_fixed_point
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    centroid,
    centroid_and_cost,
    is_pairwise_optimal,
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


def sample_destination(rng: random.Random, graph: WeightedGraph, region, mode: str) -> int:
    """Pick a destination vertex from a region.

    uniform: uniform over the region. boundary: uniform over region
    vertices adjacent to a vertex outside the region, falling back to
    uniform when that open boundary is empty (single-robot case).
    """
    ids = [int(v) for v in region]
    if not ids:
        raise PartitionError("cannot sample a destination from an empty region")
    if mode == OPEN_BOUNDARY:
        members = set(ids)
        boundary = [
            v for v in ids if any(nbr not in members for nbr, _ in graph.neighbors(v))
        ]
        if boundary:
            return boundary[rng.randrange(len(boundary))]
    elif mode != UNIFORM_REGION:
        raise ValueError(f"unknown destination mode {mode!r}")
    return ids[rng.randrange(len(ids))]


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
        self._versions = [0] * n_robots
        # (versions, budget resuming the scan, or None once it completed)
        self._pair_state: dict[tuple[int, int], tuple] = {}
        self._centroid_costs = np.empty(n_robots, dtype=np.float64)
        for k in range(n_robots):
            _, cost = centroid_and_cost(graph, self.partition.region(k), phi)
            self._centroid_costs[k] = cost
        self._h_now = float(self._centroid_costs.sum() / phi.total)

        if initial_positions is None:
            starts = [
                centroid(graph, self.partition.region(k), phi) for k in range(n_robots)
            ]
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


def _record(world: World, kind: str, i: int, j: Optional[int], motion: bool = False) -> None:
    if motion and not world.record_motion:
        return
    world.events.append(TraceEvent(world.time, kind, i, j, world._h_now))


def _choose_destination(world: World, robot: RobotState) -> None:
    ids = world.partition.region(robot.id)
    dest = sample_destination(world.rng, world.graph, ids, world.config.destination_mode)
    robot.edge_progress = 0.0
    if dest == robot.current_vertex:
        robot.path = []
        robot.mode = WAITING
        robot.wait_remaining = world.config.tau
        return
    robot.path = shortest_path(world.graph, ids, robot.current_vertex, dest)[1:]
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
    """Robot pairs within strict communication range of each other."""
    graph, r, robots = world.graph, world.config.r_comm, world.robots
    out = []
    for i in range(len(robots)):
        ball = graph.neighborhood(robots[i].current_vertex, r)
        for j in range(i + 1, len(robots)):
            if robots[j].current_vertex in ball:
                out.append((i, j))
    return out


def _repair_robot(world: World, robot: RobotState) -> None:
    """Restore protocol invariants for a robot after its region changed."""
    region = world.partition.region(robot.id)
    members = set(int(v) for v in region)
    if robot.current_vertex not in members:
        dist = one_to_all(world.graph, None, robot.current_vertex)
        target = int(region[np.argmin(dist[region])])
        robot.path = shortest_path(world.graph, None, robot.current_vertex, target)[1:]
        robot.edge_progress = 0.0
        robot.mode = RELOCATING
        return
    if robot.mode == WAITING:
        return
    if robot.mode == MOVING and robot.path and all(v in members for v in robot.path):
        return
    _choose_destination(world, robot)


def _adopt(world: World, partition: Partition, i: int, j: int, costs: Sequence[float]) -> None:
    world.partition = partition
    for k, cost in zip((i, j), costs):
        world._versions[k] += 1
        world._centroid_costs[k] = cost
    world._h_now = float(world._centroid_costs.sum() / world.phi.total)


def _apply_gossip_lloyd(world: World, i: int, j: int) -> bool:
    new_partition = gossip_lloyd_exchange(world.graph, world.partition, i, j, world.phi)
    if new_partition is world.partition:
        return False
    costs = [
        centroid_and_cost(world.graph, new_partition.region(k), world.phi)[1] for k in (i, j)
    ]
    _adopt(world, new_partition, i, j, costs)
    return True


def _apply_gossip_coverage(world: World, i: int, j: int) -> bool:
    """Resume or start the pair's scan; a completed scan at unchanged
    versions is not repeated."""
    cap = world.config.exchange_budget
    state = world._pair_state.get((i, j))
    if state is not None and state[0] == (world._versions[i], world._versions[j]):
        budget = state[1]
        if budget is None:
            return False
    else:
        budget = ExchangeBudget(max_pairs=cap)
    new_partition, result, costs = pairwise_exchange(
        world.graph,
        world.partition,
        i,
        j,
        world.phi,
        budget,
        positions=(world.robots[i].current_vertex, world.robots[j].current_vertex),
        costs=(world._centroid_costs[i], world._centroid_costs[j]),
    )
    changed = new_partition is not world.partition
    if changed:
        _adopt(world, new_partition, i, j, costs)
    world._pair_state[(i, j)] = (
        (world._versions[i], world._versions[j]),
        None if result.completed else result.next_budget(cap),
    )
    return changed


def _apply_meeting(world: World, i: int, j: int) -> None:
    world.meeting_count += 1
    if world.algorithm == GOSSIP_LLOYD:
        changed = _apply_gossip_lloyd(world, i, j)
    else:
        changed = _apply_gossip_coverage(world, i, j)
    if changed:
        world.exchange_count += 1
        world.meetings_at_last_exchange = world.meeting_count
        world.last_change_time = world.time
        world._checked_since_change = False
        _record(world, EXCHANGE, i, j)
        _repair_robot(world, world.robots[i])
        _repair_robot(world, world.robots[j])
    else:
        _record(world, MEETING_NOCHANGE, i, j)


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
    if world.partition.n_robots == 1:
        return SimTrace(
            events=[],
            final_partition=world.partition,
            exchange_count=0,
            meeting_count=0,
            meetings_to_equilibrium=0,
            converged=True,
            seed=config.seed,
            initial_cost=initial_cost,
            final_cost=initial_cost,
            duration=0.0,
        )
    if algorithm == GOSSIP_LLOYD:
        def settled() -> bool:
            return is_gossip_lloyd_fixed_point(world.graph, world.partition, world.phi)
    else:
        def settled() -> bool:
            return is_pairwise_optimal(world.graph, world.partition, world.phi)
    while world.time < config.max_time:
        step(world)
        if (
            not world._checked_since_change
            and world.time - world.last_change_time >= config.convergence_window
        ):
            world._checked_since_change = True
            if settled():
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
