"""Acceptance gate: nine checks covering reference costs, oracle
equivalence, anytime chaining, convergence properties, strict inclusion
of the equilibrium sets, distributional dominance, determinism, and
optimizer work scaling. Each check prints one PASS/FAIL line directly
on the terminal so the verdicts stay visible under output capture.
"""

import io
import random
import time
from dataclasses import replace
from statistics import fmean

import numpy as np
import pytest

import conftest
from conftest import SPLIT_ROWS, SPLIT_BLOCKS, SPLIT_ZIGZAG, GRID_2X5, partition_from_regions
from gossipcover import (
    GOSSIP_COVERAGE,
    GOSSIP_LLOYD,
    OPEN_BOUNDARY,
    CampaignSpec,
    DisconnectedEnvironmentError,
    EmptyEnvironmentError,
    ExchangeBudget,
    PartitionError,
    PhiWeights,
    SimConfig,
    WeightedGraph,
    World,
    chernoff_samples,
    format_partition,
    h_exp,
    is_centroidal_voronoi,
    is_pairwise_optimal,
    load_environment,
    lowest_bin_fraction,
    optimal_two_partition,
    parse_grid,
    random_start,
    run,
    run_campaign,
    step,
    voronoi_partition,
    write_campaign_csv,
    write_campaign_summary,
    write_final_partition,
    write_histogram_csv,
    write_run_summary,
    write_trace_csv,
)
from gossipcover.cli import resolve_environment
from util_oracle import is_connected, oracle_two_center, random_connected_graph, random_phi


def conclude(number: int, title: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    conftest.record_verdict(f"CRITERION {number}: {status}  {title}{suffix}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(autouse=True)
def _verdict_guard(request):
    # a criterion that dies before reaching its verdict still gets a line
    before = len(conftest.VERDICTS)
    yield
    if len(conftest.VERDICTS) == before:
        number = request.node.name.split("_")[2]
        conftest.record_verdict(f"CRITERION {number}: FAIL  aborted before verdict")


def test_criterion_1_reference_costs_and_predicates():
    started = time.perf_counter()
    failures = []
    graph = parse_grid(GRID_2X5)
    phi = PhiWeights.uniform(10)
    cases = {"a": (SPLIT_ROWS, 1.2), "b": (SPLIT_BLOCKS, 1.1), "c": (SPLIT_ZIGZAG, 1.0)}
    for name, (regions, expected) in cases.items():
        part = partition_from_regions(10, regions)
        cost = h_exp(graph, part, phi)
        if abs(cost - expected) > 1e-9:
            failures.append(f"H_exp({name}) = {cost!r}, expected {expected}")
        if not is_centroidal_voronoi(graph, part, phi):
            failures.append(f"partition {name} should be centroidal Voronoi")
        optimal = is_pairwise_optimal(graph, part, phi)
        if optimal != (name == "c"):
            failures.append(f"pairwise-optimal({name}) = {optimal}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    conclude(1, "reference 2x5 costs 1.2/1.1/1.0 and predicates", failures, f"{elapsed:.2f}s")


def test_criterion_2_sample_size_formula():
    failures = []
    got = chernoff_samples(0.1, 0.01)
    if got != 116:
        failures.append(f"chernoff_samples(0.1, 0.01) = {got}, expected 116")
    conclude(2, "sample sizing for epsilon=0.1, eta=0.01 gives 116", failures)


def test_criterion_3_two_partition_matches_brute_force():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2024)
    instances = 200
    for k in range(instances):
        n, edges = random_connected_graph(rng, rng.randint(4, 12), uniform=False)
        graph = WeightedGraph(n, edges)
        phi_values = random_phi(rng, n)
        phi = PhiWeights(phi_values)
        part = voronoi_partition(graph, rng.sample(range(n), 2))
        result = optimal_two_partition(graph, part.region(0), part.region(1), phi)
        expected_cost, _ = oracle_two_center(n, edges, list(range(n)), phi_values)
        if result.cost != expected_cost:
            failures.append(f"instance {k}: cost {result.cost!r} != {expected_cost!r}")
        for side in (result.side_a, result.side_b):
            if side.size == 0 or not is_connected(graph, side.tolist()):
                failures.append(f"instance {k}: disconnected output side")
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    conclude(
        3,
        f"two-partition equals brute force on {instances} weighted instances",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_anytime_chaining_bit_equality():
    failures = []
    rng = random.Random(404)
    instances = 50
    for k in range(instances):
        n, edges = random_connected_graph(rng, rng.randint(4, 11), uniform=k % 2 == 0)
        graph = WeightedGraph(n, edges)
        phi = PhiWeights(random_phi(rng, n))
        part = voronoi_partition(graph, rng.sample(range(n), 2))
        full = optimal_two_partition(graph, part.region(0), part.region(1), phi)
        sides = (part.region(0), part.region(1))
        budget = ExchangeBudget(max_pairs=1)
        while True:
            result = optimal_two_partition(graph, sides[0], sides[1], phi, budget)
            if result.completed:
                break
            sides = (result.side_a, result.side_b)
            budget = result.next_budget(1)
        same = (
            np.array_equal(result.side_a, full.side_a)
            and np.array_equal(result.side_b, full.side_b)
            and (result.center_a, result.center_b) == (full.center_a, full.center_b)
            and result.cost == full.cost
            and result.improved == full.improved
        )
        if not same:
            failures.append(f"instance {k}: budget-1 chain diverged from full scan")
            break
    conclude(4, f"budget-1 chains match unlimited scans on {instances} instances", failures)


def random_obstacle_grid(rng: random.Random) -> WeightedGraph:
    while True:
        rows = [
            "".join("#" if rng.random() < 0.2 else "." for _ in range(8)) for _ in range(8)
        ]
        try:
            graph = parse_grid("\n".join(rows) + "\n")
        except (EmptyEnvironmentError, DisconnectedEnvironmentError):
            continue
        if graph.n >= 24:
            return graph


def test_criterion_5_convergence_property_suite():
    started = time.perf_counter()
    failures = []
    rng = random.Random(1105)
    runs = 50
    for k in range(runs):
        graph = random_obstacle_grid(rng)
        n_robots = 2 + k % 4
        positions, part = random_start(graph, n_robots, seed=1000 + k)
        phi = PhiWeights.uniform(graph.n)
        config = SimConfig(
            speed=0.5,
            r_comm=2.5,
            lambda_comm=0.5,
            tau=1.0,
            dt=0.5,
            seed=k,
            convergence_window=5.0,
            max_time=20000.0,
        )
        trace = run(graph, part, phi, config, initial_positions=positions)
        if not trace.converged:
            failures.append(f"run {k} did not terminate before max_time")
            continue
        last = trace.initial_cost
        for event in trace.events:
            if event.h_exp_after > last:
                failures.append(f"run {k}: cost increased at t={event.time}")
                break
            if event.kind == "EXCHANGE":
                if not event.h_exp_after < last:
                    failures.append(f"run {k}: exchange without strict decrease")
                    break
                last = event.h_exp_after
        final = trace.final_partition
        try:
            final.validate(graph)
        except PartitionError as exc:
            failures.append(f"run {k}: invalid final partition: {exc}")
        if not is_pairwise_optimal(graph, final, phi):
            failures.append(f"run {k}: final partition not pairwise-optimal")
        if not is_centroidal_voronoi(graph, final, phi):
            failures.append(f"run {k}: final partition not centroidal Voronoi")
        # deterministic replay validates the partition at every ownership change
        world = World(
            graph, part, phi, config, initial_positions=positions, record_motion=False
        )
        seen = 0
        while world.time < trace.duration:
            step(world)
            if world.exchange_count > seen:
                seen = world.exchange_count
                try:
                    world.partition.validate(graph)
                except PartitionError as exc:
                    failures.append(f"run {k}: invalid partition mid-run: {exc}")
                    break
        if seen != trace.exchange_count:
            failures.append(f"run {k}: replay saw {seen} exchanges, trace {trace.exchange_count}")
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, limit 300s")
    conclude(
        5,
        f"{runs} seeded runs on random obstacle grids converge cleanly",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_6_strict_inclusion_of_equilibria():
    started = time.perf_counter()
    failures = []
    graph = parse_grid(GRID_2X5)
    phi = PhiWeights.uniform(10)
    pairwise_optimal = set()
    centroidal = set()
    # canonical labeling: side A owns vertex 0, so each split counts once
    for mask in range(1, 1 << 10, 2):
        side_a = [v for v in range(10) if mask >> v & 1]
        side_b = [v for v in range(10) if not mask >> v & 1]
        if not side_b:
            continue
        if not is_connected(graph, side_a) or not is_connected(graph, side_b):
            continue
        part = partition_from_regions(10, [side_a, side_b])
        key = frozenset(side_a)
        if is_pairwise_optimal(graph, part, phi):
            pairwise_optimal.add(key)
        if is_centroidal_voronoi(graph, part, phi):
            centroidal.add(key)
    if not pairwise_optimal:
        failures.append("no pairwise-optimal split found")
    if not pairwise_optimal <= centroidal:
        failures.append("pairwise-optimal split missing from the centroidal set")
    if not pairwise_optimal < centroidal:
        failures.append("inclusion is not strict")
    for name, regions in (("a", SPLIT_ROWS), ("b", SPLIT_BLOCKS)):
        key = frozenset(regions[0])
        if key not in centroidal - pairwise_optimal:
            failures.append(f"witness {name} should be centroidal but not pairwise-optimal")
    if frozenset(SPLIT_ZIGZAG[0]) not in pairwise_optimal:
        failures.append("witness c should be pairwise-optimal")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, limit 10s")
    conclude(
        6,
        f"{len(pairwise_optimal)} pairwise-optimal splits strictly inside "
        f"{len(centroidal)} centroidal splits",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_distributional_dominance(tmp_path):
    started = time.perf_counter()
    failures = []
    env = resolve_environment("lab-like")
    graph = load_environment(env)
    start = voronoi_partition(graph, list(range(9)))
    start_file = tmp_path / "start.partition"
    start_file.write_text(format_partition(start))
    sim = SimConfig(
        speed=0.4,
        r_comm=2.5,
        lambda_comm=0.3,
        tau=3.5,
        dt=0.1,
        destination_mode=OPEN_BOUNDARY,
        max_time=30000.0,
        convergence_window=25.0,
    )
    costs = {}
    for algorithm in (GOSSIP_COVERAGE, GOSSIP_LLOYD):
        spec = CampaignSpec(
            environment=env,
            n_robots=9,
            algorithm=algorithm,
            samples=116,
            base_seed=0,
            partition_file=str(start_file),
            sim=sim,
        )
        report = run_campaign(spec)
        if report.converged_fraction != 1.0:
            failures.append(f"{algorithm}: only {report.converged_fraction:.0%} converged")
        costs[algorithm] = [r.final_cost for r in report.runs]
    coverage, lloyd = costs[GOSSIP_COVERAGE], costs[GOSSIP_LLOYD]
    mean_coverage, mean_lloyd = fmean(coverage), fmean(lloyd)
    if not mean_coverage < mean_lloyd:
        failures.append(f"mean {mean_coverage:.4f} not below {mean_lloyd:.4f}")
    frac_coverage = lowest_bin_fraction(coverage, 2.17, 0.10, reference=lloyd)
    frac_lloyd = lowest_bin_fraction(lloyd, 2.17, 0.10, reference=coverage)
    if not frac_coverage > frac_lloyd:
        failures.append(
            f"lowest-bin rate {frac_coverage:.3f} not above {frac_lloyd:.3f}"
        )
    elapsed = time.perf_counter() - started
    if elapsed >= 900.0:
        failures.append(f"took {elapsed:.0f}s, limit 900s")
    conclude(
        7,
        "116-run coverage campaign beats the Lloyd campaign on lab-like",
        failures,
        f"means {mean_coverage:.3f} vs {mean_lloyd:.3f}; "
        f"lowest-bin {frac_coverage:.2f} vs {frac_lloyd:.2f}; {elapsed:.0f}s",
    )


def run_artifacts(graph, part, phi, config, **kwargs) -> str:
    trace = run(graph, part, phi, config, **kwargs)
    out = io.StringIO()
    write_trace_csv(trace, out)
    write_run_summary(trace, out)
    write_final_partition(trace, out)
    return out.getvalue()


def campaign_artifacts(spec) -> str:
    report = run_campaign(spec)
    out = io.StringIO()
    write_campaign_csv(report, out)
    write_histogram_csv(report, out)
    write_campaign_summary(report, out)
    return out.getvalue()


def test_criterion_8_byte_identical_determinism(tmp_path):
    failures = []
    grid = parse_grid(GRID_2X5)
    phi = PhiWeights.uniform(10)
    part = partition_from_regions(10, SPLIT_ROWS)
    config = SimConfig(
        speed=0.5, r_comm=1.5, lambda_comm=0.5, tau=1.0, dt=0.5, seed=3,
        convergence_window=5.0, max_time=5000.0,
    )
    if run_artifacts(grid, part, phi, config) != run_artifacts(grid, part, phi, config):
        failures.append("repeated 2x5 run artifacts differ")

    obstacle = load_environment(resolve_environment("square-obstacles-12x12"))
    positions, obstacle_part = random_start(obstacle, 3, seed=2)
    obstacle_phi = PhiWeights.uniform(obstacle.n)
    obstacle_config = replace(config, r_comm=1.5, seed=8)
    first = run_artifacts(
        obstacle, obstacle_part, obstacle_phi, obstacle_config, initial_positions=positions
    )
    second = run_artifacts(
        obstacle, obstacle_part, obstacle_phi, obstacle_config, initial_positions=positions
    )
    if first != second:
        failures.append("repeated obstacle-grid run artifacts differ")

    env_file = tmp_path / "grid.grid"
    env_file.write_text(GRID_2X5)
    spec = CampaignSpec(
        environment=str(env_file),
        n_robots=2,
        samples=6,
        partition_seed=1,
        histogram_origin=0.0,
        histogram_bin_width=0.1,
        sim=config,
    )
    if campaign_artifacts(spec) != campaign_artifacts(spec):
        failures.append("repeated campaign artifacts differ")
    conclude(8, "seeded runs and campaigns emit byte-identical artifacts", failures)


def test_criterion_9_quadratic_optimizer_work():
    failures = []
    pairs = {}
    for m in (16, 32, 64):
        graph = parse_grid("." * m + "\n")
        phi = PhiWeights.uniform(m)
        half = m // 2
        result = optimal_two_partition(graph, range(half), range(half, m), phi)
        if not result.completed:
            failures.append(f"scan on {m}-path did not complete")
        pairs[m] = result.pairs_evaluated
    ratios = []
    for small, big in ((16, 32), (32, 64)):
        ratio = pairs[big] / pairs[small]
        ratios.append(ratio)
        if not 3.6 <= ratio <= 4.4:
            failures.append(f"{small}->{big} work ratio {ratio:.3f} outside 4 +/- 10%")
    conclude(
        9,
        "doubling the union multiplies evaluated pairs by about four",
        failures,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )
