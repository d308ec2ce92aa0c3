"""Monte Carlo experiment engine and artifact writers.

A campaign replays one initial condition under many independent meeting
sequences (seeds base_seed + run index), collects per-run outcomes, and
bins final costs into a fixed-width histogram. Writers emit plain CSV
and key=value text so identical specs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional, TextIO

from .graph import WeightedGraph, load_environment
from .lloyd import decentralized_lloyd_fixed_point
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    centroid,
    format_partition,
    h_exp,
    is_centroidal_voronoi,
    is_pairwise_optimal,
    load_partition,
    load_phi,
    price_region,
    voronoi_partition,
)
from .sim import GOSSIP_COVERAGE, GOSSIP_LLOYD, SimConfig, SimTrace, run

DECENTRALIZED_LLOYD = "decentralized-lloyd"
ALGORITHMS = (GOSSIP_COVERAGE, GOSSIP_LLOYD, DECENTRALIZED_LLOYD)


class CampaignError(RuntimeError):
    """A run violated a partition or fixed-point invariant."""


def chernoff_samples(epsilon: float, eta: float) -> int:
    """Smallest sample count K with K >= log(2/eta) / (2 epsilon^2).

    Uses the base-10 logarithm, which reproduces the published sizing
    (epsilon=0.1, eta=0.01 -> 116 samples).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    return math.ceil(math.log10(2.0 / eta) / (2.0 * epsilon * epsilon))


def random_start(graph: WeightedGraph, n_robots: int, seed: int) -> tuple[list[int], Partition]:
    """Distinct start vertices sampled uniformly, plus their Voronoi partition."""
    if n_robots < 1 or n_robots > graph.n:
        raise PartitionError(f"cannot place {n_robots} robots on {graph.n} vertices")
    rng = random.Random(seed)
    positions = rng.sample(range(graph.n), n_robots)
    return positions, voronoi_partition(graph, positions)


@dataclass(frozen=True)
class CampaignSpec:
    """Plain description of a campaign; paths are resolved by run_campaign."""

    environment: str
    n_robots: int
    algorithm: str = GOSSIP_COVERAGE
    samples: int = 0
    epsilon: Optional[float] = None
    eta: Optional[float] = None
    base_seed: int = 0
    partition_file: Optional[str] = None
    partition_seed: int = 0
    phi_file: Optional[str] = None
    histogram_bin_width: float = 0.10
    histogram_origin: float = 2.17
    sim: SimConfig = field(default_factory=SimConfig)

    def resolved_samples(self) -> int:
        if self.epsilon is not None or self.eta is not None:
            if self.epsilon is None or self.eta is None:
                raise ValueError("epsilon and eta must be given together")
            bound = chernoff_samples(self.epsilon, self.eta)
            if self.samples > 0 and self.samples < bound:
                raise ValueError(
                    f"samples={self.samples} is below the required bound {bound}"
                )
            return self.samples if self.samples > 0 else bound
        if self.samples < 1:
            raise ValueError("specify samples or an (epsilon, eta) pair")
        return self.samples

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("histogram_bin_width", "histogram_origin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.histogram_bin_width <= 0:
            raise ValueError("histogram_bin_width must be positive")
        self.resolved_samples()


@dataclass(frozen=True)
class RunRecord:
    index: int
    seed: int
    initial_cost: float
    final_cost: float
    exchanges: int
    meetings: int
    meetings_to_equilibrium: int
    converged: bool
    duration: float


@dataclass
class CampaignReport:
    spec: CampaignSpec
    samples: int
    runs: list[RunRecord]
    mean_final_cost: float
    best_final_cost: float
    lowest_bin_fraction: float
    mean_exchanges: float
    mean_meetings: float
    mean_meetings_to_equilibrium: float
    converged_fraction: float


def histogram_bins(
    costs: list[float], origin: float, width: float
) -> list[tuple[float, float, int]]:
    """Fixed-width bins [origin + k*width, origin + (k+1)*width) covering
    every cost; returns (bin_start, bin_end, count) rows for occupied bins
    and the empty bins between them."""
    if width <= 0:
        raise ValueError("bin width must be positive")
    if not costs:
        return []
    indices = [math.floor((c - origin) / width) for c in costs]
    lo, hi = min(indices), max(indices)
    counts = {k: 0 for k in range(lo, hi + 1)}
    for k in indices:
        counts[k] += 1
    return [
        (origin + k * width, origin + (k + 1) * width, counts[k])
        for k in range(lo, hi + 1)
    ]


def lowest_bin_fraction(
    costs: list[float], origin: float, width: float, reference: Optional[list[float]] = None
) -> float:
    """Fraction of costs landing in the lowest occupied bin.

    With reference costs given, the target bin is the lowest bin occupied
    by the combined cost sets (the bin holding the best known outcome).
    """
    if not costs:
        return 0.0
    pool = list(costs) + list(reference or [])
    best_bin = min(math.floor((c - origin) / width) for c in pool)
    return sum(1 for c in costs if math.floor((c - origin) / width) == best_bin) / len(costs)


def _load_start(
    graph: WeightedGraph, spec: CampaignSpec
) -> tuple[Optional[list[int]], Partition]:
    if spec.partition_file is not None:
        partition = load_partition(graph, spec.partition_file)
        if partition.n_robots != spec.n_robots:
            raise PartitionError(
                f"partition file has {partition.n_robots} robots, expected {spec.n_robots}"
            )
        return None, partition
    return random_start(graph, spec.n_robots, spec.partition_seed)


def _check_final(graph: WeightedGraph, phi: PhiWeights, spec: CampaignSpec, trace: SimTrace) -> None:
    try:
        trace.final_partition.validate(graph)
    except PartitionError as exc:
        raise CampaignError(f"run with seed {trace.seed} ended invalid: {exc}") from exc
    if not trace.converged:
        return
    if spec.algorithm == GOSSIP_COVERAGE:
        if not is_pairwise_optimal(graph, trace.final_partition, phi):
            raise CampaignError(
                f"run with seed {trace.seed} converged but is not pairwise-optimal"
            )
    elif spec.algorithm == GOSSIP_LLOYD:
        if not is_centroidal_voronoi(graph, trace.final_partition, phi):
            raise CampaignError(
                f"run with seed {trace.seed} converged but is not centroidal Voronoi"
            )


def run_decentralized_lloyd(
    graph: WeightedGraph,
    partition: Partition,
    phi: PhiWeights,
    positions: Optional[list[int]],
    seed: int,
) -> tuple[SimTrace, list[float]]:
    """Iterate decentralized Lloyd rounds from the start to their fixed point.

    Robots start at positions (default: their region centroids). The
    trace counts each round as one exchange, one meeting and one second
    of duration; the list holds h_exp after each round.
    """
    if positions is None:
        positions = [
            centroid(graph, partition.region(k), phi) for k in range(partition.n_robots)
        ]
    initial_cost = h_exp(graph, partition, phi)
    _, final_part, costs = decentralized_lloyd_fixed_point(graph, positions, phi)
    if not is_centroidal_voronoi(graph, final_part, phi):
        raise CampaignError("Lloyd fixed point is not centroidal Voronoi")
    trace = SimTrace(
        events=[],
        final_partition=final_part,
        exchange_count=len(costs),
        meeting_count=len(costs),
        meetings_to_equilibrium=len(costs),
        converged=True,
        seed=seed,
        initial_cost=initial_cost,
        final_cost=costs[-1],
        duration=float(len(costs)),
    )
    return trace, costs


def _run_record(index: int, trace: SimTrace) -> RunRecord:
    return RunRecord(
        index=index,
        seed=trace.seed,
        initial_cost=trace.initial_cost,
        final_cost=trace.final_cost,
        exchanges=trace.exchange_count,
        meetings=trace.meeting_count,
        meetings_to_equilibrium=trace.meetings_to_equilibrium,
        converged=trace.converged,
        duration=trace.duration,
    )


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Run the campaign and aggregate per-run outcomes."""
    spec.validate()
    samples = spec.resolved_samples()
    graph = load_environment(spec.environment)
    phi = load_phi(graph, spec.phi_file)
    positions, partition = _load_start(graph, spec)

    if spec.algorithm == DECENTRALIZED_LLOYD:
        # the decentralized rounds are deterministic given the start, so every
        # sample repeats the same trajectory (kept for report shape parity)
        trace, _ = run_decentralized_lloyd(graph, partition, phi, positions, spec.base_seed)
        records = [
            replace(_run_record(k, trace), seed=spec.base_seed + k) for k in range(samples)
        ]
    else:
        # every run starts from the same regions: price them once
        priced = [price_region(graph, r, phi) for r in partition.regions()]
        records = []
        for k in range(samples):
            config = replace(spec.sim, seed=spec.base_seed + k)
            trace = run(
                graph,
                partition,
                phi,
                config,
                algorithm=spec.algorithm,
                initial_positions=positions,
                record_motion=False,
                priced=priced,
            )
            _check_final(graph, phi, spec, trace)
            records.append(_run_record(k, trace))

    costs = [r.final_cost for r in records]
    return CampaignReport(
        spec=spec,
        samples=samples,
        runs=records,
        mean_final_cost=sum(costs) / len(costs),
        best_final_cost=min(costs),
        lowest_bin_fraction=lowest_bin_fraction(
            costs, spec.histogram_origin, spec.histogram_bin_width
        ),
        mean_exchanges=sum(r.exchanges for r in records) / len(records),
        mean_meetings=sum(r.meetings for r in records) / len(records),
        mean_meetings_to_equilibrium=sum(r.meetings_to_equilibrium for r in records)
        / len(records),
        converged_fraction=sum(1 for r in records if r.converged) / len(records),
    )


# ---- artifact writers ----


def write_trace_csv(trace: SimTrace, fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(["time", "kind", "robot_i", "robot_j", "h_exp"])
    for ev in trace.events:
        writer.writerow(
            [
                repr(ev.time),
                ev.kind,
                ev.robot_i,
                "" if ev.robot_j is None else ev.robot_j,
                repr(ev.h_exp_after),
            ]
        )


def write_run_summary(trace: SimTrace, fp: TextIO) -> None:
    fp.write(f"exchanges={trace.exchange_count}\n")
    fp.write(f"meetings={trace.meeting_count}\n")
    fp.write(f"meetings_to_equilibrium={trace.meetings_to_equilibrium}\n")
    fp.write(f"converged={'yes' if trace.converged else 'no'}\n")
    fp.write(f"initial_cost={trace.initial_cost!r}\n")
    fp.write(f"final_cost={trace.final_cost!r}\n")
    fp.write(f"wall_time={trace.duration!r}\n")
    fp.write(f"seed={trace.seed}\n")


def write_final_partition(trace: SimTrace, fp: TextIO) -> None:
    fp.write(format_partition(trace.final_partition))


def write_campaign_csv(report: CampaignReport, fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(
        [
            "run",
            "seed",
            "initial_cost",
            "final_cost",
            "exchanges",
            "meetings",
            "meetings_to_equilibrium",
            "converged",
            "duration",
        ]
    )
    for r in report.runs:
        writer.writerow(
            [
                r.index,
                r.seed,
                repr(r.initial_cost),
                repr(r.final_cost),
                r.exchanges,
                r.meetings,
                r.meetings_to_equilibrium,
                "yes" if r.converged else "no",
                repr(r.duration),
            ]
        )


def write_histogram_csv(report: CampaignReport, fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(["bin_start", "bin_end", "count"])
    rows = histogram_bins(
        [r.final_cost for r in report.runs],
        report.spec.histogram_origin,
        report.spec.histogram_bin_width,
    )
    for start, end, count in rows:
        writer.writerow([repr(start), repr(end), count])


def write_campaign_summary(report: CampaignReport, fp: TextIO) -> None:
    spec = report.spec
    fp.write(f"environment={spec.environment}\n")
    fp.write(f"algorithm={spec.algorithm}\n")
    fp.write(f"n_robots={spec.n_robots}\n")
    fp.write(f"runs={report.samples}\n")
    fp.write(f"base_seed={spec.base_seed}\n")
    fp.write(f"mean_final_cost={report.mean_final_cost!r}\n")
    fp.write(f"best_final_cost={report.best_final_cost!r}\n")
    fp.write(f"lowest_bin_fraction={report.lowest_bin_fraction!r}\n")
    fp.write(f"mean_exchanges={report.mean_exchanges!r}\n")
    fp.write(f"mean_meetings={report.mean_meetings!r}\n")
    fp.write(f"mean_meetings_to_equilibrium={report.mean_meetings_to_equilibrium!r}\n")
    fp.write(f"converged_fraction={report.converged_fraction!r}\n")
    fp.write(f"bin_width={spec.histogram_bin_width!r}\n")
    fp.write(f"bin_origin={spec.histogram_origin!r}\n")
