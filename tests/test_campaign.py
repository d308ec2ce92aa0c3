import io
from dataclasses import replace

import numpy as np
import pytest

from conftest import GRID_2X5
from gossipcover import (
    DECENTRALIZED_LLOYD,
    GOSSIP_LLOYD,
    CampaignSpec,
    PartitionError,
    PhiWeights,
    SimConfig,
    chernoff_samples,
    histogram_bins,
    lowest_bin_fraction,
    parse_grid,
    parse_partition,
    random_start,
    run,
    run_campaign,
    write_campaign_csv,
    write_campaign_summary,
    write_final_partition,
    write_histogram_csv,
    write_run_summary,
    write_trace_csv,
)

GRID = parse_grid(GRID_2X5)

FAST_SIM = SimConfig(
    speed=0.5, r_comm=1.5, lambda_comm=0.5, tau=1.0, dt=0.5, convergence_window=5.0,
    max_time=5000.0,
)


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "two_by_five.grid"
    path.write_text(GRID_2X5)
    return str(path)


def small_spec(env_file, **overrides):
    params = dict(
        environment=env_file,
        n_robots=2,
        samples=3,
        partition_seed=1,
        histogram_bin_width=0.1,
        histogram_origin=0.0,
        sim=FAST_SIM,
    )
    params.update(overrides)
    return CampaignSpec(**params)


# ---- Chernoff sample sizing ----


def test_chernoff_published_size():
    assert chernoff_samples(0.1, 0.01) == 116


def test_chernoff_derived_sizes():
    assert chernoff_samples(0.5, 0.5) == 2
    assert chernoff_samples(0.05, 0.01) == 461


@pytest.mark.parametrize("eps,eta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_chernoff_rejects_out_of_range(eps, eta):
    with pytest.raises(ValueError):
        chernoff_samples(eps, eta)


def test_spec_resolves_samples_from_chernoff(env_file):
    spec = small_spec(env_file, samples=0, epsilon=0.1, eta=0.01)
    assert spec.resolved_samples() == 116
    assert small_spec(env_file, samples=200, epsilon=0.1, eta=0.01).resolved_samples() == 200
    with pytest.raises(ValueError):
        small_spec(env_file, samples=100, epsilon=0.1, eta=0.01).resolved_samples()
    with pytest.raises(ValueError):
        small_spec(env_file, samples=0, epsilon=0.1, eta=None).resolved_samples()
    with pytest.raises(ValueError):
        small_spec(env_file, samples=0).resolved_samples()


# ---- random starting conditions ----


def test_random_start_reproducible_and_valid():
    first = random_start(GRID, 2, seed=4)[1]
    second = random_start(GRID, 2, seed=4)[1]
    assert np.array_equal(first.owner, second.owner)
    for seed in range(30):
        positions, part = random_start(GRID, 3, seed)
        part.validate(GRID)
        assert len(set(positions)) == 3
        for k, v in enumerate(positions):
            assert int(part.owner[v]) == k


def test_random_start_all_vertices():
    positions, part = random_start(GRID, GRID.n, seed=0)
    assert sorted(positions) == list(range(GRID.n))
    assert all(len(part.region(k)) == 1 for k in range(GRID.n))


def test_random_start_too_many_robots():
    with pytest.raises(PartitionError):
        random_start(GRID, 11, seed=0)


# ---- histogram helpers ----


def test_histogram_bins_layout():
    rows = histogram_bins([2.20, 2.23, 2.55], origin=2.17, width=0.10)
    counts = [count for _, _, count in rows]
    assert counts == [2, 0, 0, 1]
    assert rows[0][0] == 2.17
    assert rows[0][1] == pytest.approx(2.27)
    assert sum(counts) == 3


def test_histogram_bins_edge_cases():
    assert histogram_bins([], origin=0.0, width=0.1) == []
    with pytest.raises(ValueError):
        histogram_bins([1.0], origin=0.0, width=0.0)
    rows = histogram_bins([5.0], origin=0.0, width=1.0)
    assert rows == [(5.0, 6.0, 1)]


def test_lowest_bin_fraction_shared_reference():
    costs = [2.20, 2.23, 2.55]
    assert lowest_bin_fraction(costs, 2.17, 0.10) == pytest.approx(2 / 3)
    # a better reference outcome moves the target bin below all of ours
    assert lowest_bin_fraction([2.55], 2.17, 0.10, reference=[2.20]) == 0.0
    assert lowest_bin_fraction([2.20, 2.55], 2.17, 0.10, reference=[2.90]) == 0.5
    assert lowest_bin_fraction([], 2.17, 0.10) == 0.0


# ---- campaigns ----


def test_degenerate_campaign_matches_single_run(env_file):
    spec = small_spec(env_file, samples=1, base_seed=7)
    report = run_campaign(spec)
    assert report.samples == 1 and len(report.runs) == 1
    positions, part = random_start(GRID, 2, seed=1)
    trace = run(
        GRID,
        part,
        PhiWeights.uniform(GRID.n),
        replace(FAST_SIM, seed=7),
        initial_positions=positions,
        record_motion=False,
    )
    record = report.runs[0]
    assert record.seed == 7
    assert record.final_cost == trace.final_cost
    assert record.initial_cost == trace.initial_cost
    assert record.exchanges == trace.exchange_count
    assert record.meetings == trace.meeting_count
    assert record.duration == trace.duration
    assert record.converged == trace.converged
    assert report.mean_final_cost == trace.final_cost
    assert report.best_final_cost == trace.final_cost


def test_campaign_deterministic_artifacts(env_file):
    spec = small_spec(env_file)
    first = run_campaign(spec)
    second = run_campaign(spec)
    assert first.runs == second.runs
    for writer in (write_campaign_csv, write_histogram_csv, write_campaign_summary):
        a, b = io.StringIO(), io.StringIO()
        writer(first, a)
        writer(second, b)
        assert a.getvalue() == b.getvalue()


def test_campaign_report_statistics(env_file):
    report = run_campaign(small_spec(env_file, samples=4))
    assert len(report.runs) == 4
    assert [r.index for r in report.runs] == [0, 1, 2, 3]
    assert [r.seed for r in report.runs] == [0, 1, 2, 3]
    assert report.converged_fraction == 1.0
    assert report.best_final_cost <= report.mean_final_cost
    assert 0.0 <= report.lowest_bin_fraction <= 1.0
    rows = histogram_bins([r.final_cost for r in report.runs], 0.0, 0.1)
    assert sum(count for _, _, count in rows) == 4


def test_campaign_gossip_lloyd(env_file):
    report = run_campaign(small_spec(env_file, algorithm=GOSSIP_LLOYD, samples=2))
    assert report.converged_fraction == 1.0
    assert all(r.converged for r in report.runs)


def test_campaign_decentralized_lloyd_single_trajectory(env_file):
    report = run_campaign(small_spec(env_file, algorithm=DECENTRALIZED_LLOYD, samples=3))
    finals = {r.final_cost for r in report.runs}
    assert len(finals) == 1
    assert report.lowest_bin_fraction == 1.0
    assert report.converged_fraction == 1.0


def test_campaign_rejects_unknown_algorithm(env_file):
    with pytest.raises(ValueError):
        run_campaign(small_spec(env_file, algorithm="simulated-annealing"))


def test_campaign_partition_file_start(env_file, tmp_path, reference_splits):
    from gossipcover import format_partition

    pfile = tmp_path / "start.partition"
    pfile.write_text(format_partition(reference_splits["a"]))
    spec = small_spec(env_file, samples=2, partition_file=str(pfile))
    report = run_campaign(spec)
    assert all(r.initial_cost == 1.2 for r in report.runs)
    assert all(r.final_cost == 1.0 for r in report.runs)


# ---- writers ----


def test_campaign_csv_shape(env_file):
    report = run_campaign(small_spec(env_file))
    out = io.StringIO()
    write_campaign_csv(report, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == (
        "run,seed,initial_cost,final_cost,exchanges,meetings,"
        "meetings_to_equilibrium,converged,duration"
    )
    assert len(lines) == 1 + report.samples


def test_histogram_csv_totals(env_file):
    report = run_campaign(small_spec(env_file, samples=5))
    out = io.StringIO()
    write_histogram_csv(report, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "bin_start,bin_end,count"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 5


def test_summary_text_keys(env_file):
    report = run_campaign(small_spec(env_file))
    out = io.StringIO()
    write_campaign_summary(report, out)
    text = out.getvalue()
    values = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert float(values["mean_final_cost"]) == report.mean_final_cost
    assert int(values["runs"]) == report.samples
    assert values["algorithm"] == "gossip-coverage"


def test_single_run_writers(reference_splits, phi10, grid2x5):
    trace = run(grid2x5, reference_splits["a"], phi10, replace(FAST_SIM, seed=3))
    out = io.StringIO()
    write_trace_csv(trace, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "time,kind,robot_i,robot_j,h_exp"
    assert len(lines) == 1 + len(trace.events)
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds <= {"EXCHANGE", "MEETING_NOCHANGE", "ARRIVAL", "DEPARTURE"}

    out = io.StringIO()
    write_run_summary(trace, out)
    values = dict(line.split("=", 1) for line in out.getvalue().strip().splitlines())
    assert values["converged"] == "yes"
    assert float(values["final_cost"]) == trace.final_cost
    assert float(values["wall_time"]) == trace.duration
    assert int(values["exchanges"]) == trace.exchange_count

    out = io.StringIO()
    write_final_partition(trace, out)
    parsed = parse_partition(out.getvalue(), grid2x5.n)
    assert np.array_equal(parsed.owner, trace.final_partition.owner)
