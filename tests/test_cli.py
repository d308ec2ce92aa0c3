import pytest

from conftest import GRID_2X5, partition_from_regions
from gossipcover import (
    format_partition,
    load_environment,
    main,
    parse_partition,
)
from gossipcover.graph import resolve_environment


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.grid"
    path.write_text(GRID_2X5)
    return str(path)


@pytest.fixture
def partition_files(tmp_path, reference_splits):
    paths = {}
    for name, part in reference_splits.items():
        path = tmp_path / f"split_{name}.partition"
        path.write_text(format_partition(part))
        paths[name] = str(path)
    return paths


FAST_FLAGS = [
    "--speed", "0.5", "--rcomm", "1.5", "--lambda", "0.5", "--tau", "1.0",
    "--dt", "0.5", "--convergence-window", "5.0",
]


def test_cost_subcommand(env_file, partition_files, capsys):
    assert main(["cost", env_file, partition_files["b"]]) == 0
    assert capsys.readouterr().out == "1.1\n"


def test_check_reports_pairwise_optimal(env_file, partition_files, capsys):
    assert main(["check", env_file, partition_files["c"]]) == 0
    out = capsys.readouterr().out
    assert "valid: yes" in out
    assert "pairwise-optimal: yes" in out
    assert "centroidal-voronoi: yes" in out


def test_check_flags_suboptimal_partition(env_file, partition_files, capsys):
    assert main(["check", env_file, partition_files["a"]]) == 0
    out = capsys.readouterr().out
    assert "pairwise-optimal: no" in out
    assert "centroidal-voronoi: yes" in out


def test_check_invalid_partition_exits_2(env_file, tmp_path, capsys):
    # region {0, 6} is disconnected
    part = partition_from_regions(10, [[0, 6], [1, 2, 3, 4, 5, 7, 8, 9]])
    bad = tmp_path / "bad.partition"
    bad.write_text(format_partition(part))
    assert main(["check", env_file, str(bad)]) == 2
    captured = capsys.readouterr()
    assert "valid: no" in captured.out
    assert captured.err


def test_check_rejects_an_owner_outside_0_to_n_minus_1(tmp_path, capsys):
    # vertex 0 listed twice, first with owner -1, the parser's unassigned marker
    grid = tmp_path / "row.grid"
    grid.write_text("....\n")
    bad = tmp_path / "bad.partition"
    bad.write_text("N=1\n0 -1\n0 0\n1 0\n2 0\n3 0\n")
    assert main(["check", str(grid), str(bad)]) == 2
    captured = capsys.readouterr()
    assert "valid: no" in captured.out
    assert "owner -1 out of range" in captured.err


def test_missing_environment_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.grid")
    assert main(["cost", missing, missing]) == 1
    assert capsys.readouterr().err


def test_usage_errors_exit_1(env_file, tmp_path, capsys):
    assert main([]) == 1
    twice = tmp_path / "twice.phi"
    twice.write_text("0 1.0\n0 5.0\n")  # vertex 0 listed twice
    assert main(["run", env_file, "--n", "2", "--phi", str(twice)]) == 1
    assert main(["run", env_file, "--n", "2", "--algorithm", "annealing"]) == 1
    assert main(["run", env_file, "--n", "2", "--dt", "-1"]) == 1
    assert main(["run", env_file]) == 1  # neither --n nor --partition
    for flag in (
        "--dt", "--speed", "--rcomm", "--lambda", "--tau", "--max-time", "--convergence-window"
    ):
        assert main(["run", env_file, "--n", "2", flag, "nan"]) == 1
    assert main(["run", env_file, "--n", "2", "--max-time", "inf"]) == 1
    campaign = ["campaign", env_file, "--n", "2", "--samples", "1"]
    assert main(campaign + ["--bin-origin", "inf"]) == 1
    assert main(campaign + ["--bin-width", "nan"]) == 1
    for budget in ("0", "-5"):
        assert main(["run", env_file, "--n", "2", "--budget", budget]) == 1
        assert main(campaign + ["--budget", budget]) == 1
    capsys.readouterr()


def test_too_many_robots_exits_2(env_file, capsys):
    assert main(["run", env_file, "--n", "11"]) == 2
    capsys.readouterr()


def test_run_writes_artifacts(env_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", env_file, "--n", "2", "--seed", "3", "--out-dir", str(out_dir)]
        + FAST_FLAGS
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "converged=yes" in stdout
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "time,kind,robot_i,robot_j,h_exp"
    assert len(trace) > 1
    summary = dict(
        line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    assert summary["converged"] == "yes"
    assert "final_cost" in summary and "wall_time" in summary and "exchanges" in summary
    parsed = parse_partition((out_dir / "final.partition").read_text(), 10)
    parsed.validate(load_environment(env_file))


def test_run_partition_file_start(env_file, partition_files, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", env_file, "--partition", partition_files["a"], "--seed", "3",
         "--out-dir", str(out_dir)] + FAST_FLAGS
    )
    assert code == 0
    summary = dict(
        line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    assert float(summary["initial_cost"]) == 1.2
    assert float(summary["final_cost"]) == 1.0


def test_run_decentralized_lloyd(env_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", env_file, "--n", "2", "--algorithm", "decentralized-lloyd",
         "--out-dir", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert lines[0] == "time,kind,robot_i,robot_j,h_exp"
    assert all(line.split(",")[1] == "round" for line in lines[1:])
    assert "converged=yes" in capsys.readouterr().out


def test_campaign_artifacts_and_determinism(env_file, tmp_path, capsys):
    dirs = [tmp_path / "c1", tmp_path / "c2"]
    for d in dirs:
        code = main(
            ["campaign", env_file, "--n", "2", "--samples", "4",
             "--bin-origin", "0.0", "--bin-width", "0.1", "--out-dir", str(d)]
            + FAST_FLAGS
        )
        assert code == 0
    capsys.readouterr()
    for name in ("campaign.csv", "histogram.csv", "summary.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    rows = (dirs[0] / "campaign.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    hist = (dirs[0] / "histogram.csv").read_text().strip().splitlines()
    assert sum(int(r.split(",")[2]) for r in hist[1:]) == 4


def test_campaign_chernoff_sizing(env_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["campaign", env_file, "--n", "2", "--epsilon", "0.5", "--eta", "0.5",
         "--bin-origin", "0.0", "--bin-width", "0.1", "--out-dir", str(out_dir)]
        + FAST_FLAGS
    )
    assert code == 0
    assert "runs=2" in capsys.readouterr().out
    code = main(
        ["campaign", env_file, "--n", "2", "--samples", "1",
         "--epsilon", "0.1", "--eta", "0.01", "--out-dir", str(out_dir)] + FAST_FLAGS
    )
    assert code == 1  # below the required bound
    capsys.readouterr()


def test_config_file_defaults_and_override(env_file, tmp_path, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text("dt = -1.0\nseed = 3\n# comment line\n")
    base = ["run", env_file, "--n", "2", "--config", str(config),
            "--out-dir", str(tmp_path / "out")] + FAST_FLAGS[:-4]
    # config supplies an invalid dt
    assert main(base) == 1
    # an explicit flag overrides the config entry
    assert main(base + ["--dt", "0.5", "--convergence-window", "5.0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "line, named",
    [
        ("destination_mode = boundary", "destination_mode"),  # unknown key
        ("speeed = 9", "speeed"),  # unknown key
        ("dest_mode = sideways", "sideways"),  # known key, read and rejected
    ],
)
def test_config_file_rejects_bad_keys(env_file, tmp_path, capsys, line, named):
    config = tmp_path / "sim.cfg"
    config.write_text(line + "\n")
    code = main(["run", env_file, "--n", "2", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")] + FAST_FLAGS)
    assert code == 1
    assert named in capsys.readouterr().err


def test_grid2graph_info_and_conversion(env_file, tmp_path, capsys):
    assert main(["grid2graph", env_file, "--info"]) == 0
    out = capsys.readouterr().out
    assert "vertices=10" in out
    assert "edges=13" in out
    target = tmp_path / "env.edges"
    assert main(["grid2graph", env_file, "--out", str(target)]) == 0
    graph = load_environment(str(target))
    assert graph.n == 10
    assert graph.edge_count == 13


def test_bundled_map_names_resolve():
    for name in ("two_by_five", "path5.grid", "obstacle-8x8", "lab-like"):
        path = resolve_environment(name)
        assert path.endswith(".grid")
    with pytest.raises(FileNotFoundError):
        resolve_environment("atlantis")
    # the library loader resolves the same names as the CLI
    assert load_environment("two_by_five").n == 10
    with pytest.raises(FileNotFoundError):
        load_environment("atlantis")


def test_bundled_map_via_cli(capsys):
    assert main(["grid2graph", "lab-like", "--info"]) == 0
    out = capsys.readouterr().out
    assert "vertices=556" in out


# weights off the 0.25 lattice: the scan and the centroid pricing sum in
# different orders, so a converged split can rescan 1 ulp "cheaper"
OFF_LATTICE_EDGES = """9
0 1 0.53
1 2 2.257
2 3 1.576
3 4 1.78
1 5 0.452
1 6 0.482
4 7 0.979
3 8 2.562
5 7 2.979
5 8 2.845
7 8 2.737
"""


def test_off_lattice_run_converges_and_checks_pairwise_optimal(tmp_path, capsys):
    env = tmp_path / "env.edges"
    env.write_text(OFF_LATTICE_EDGES)
    out_dir = tmp_path / "out"
    code = main(
        ["run", str(env), "--n", "3", "--partition-seed", "9", "--seed", "9",
         "--rcomm", "12.916", "--max-time", "400", "--convergence-window", "10",
         "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert "converged=yes" in capsys.readouterr().out
    assert main(["check", str(env), str(out_dir / "final.partition")]) == 0
    assert "pairwise-optimal: yes" in capsys.readouterr().out


def test_cost_of_final_partition_equals_summary_final_cost(tmp_path, capsys):
    # 9 robots: the per-region costs are summed pairwise, not in sequence
    out_dir = tmp_path / "out"
    code = main(
        ["run", "lab-like", "--n", "9", "--partition-seed", "1", "--max-time", "300",
         "--out-dir", str(out_dir)]
    )
    assert code == 0
    capsys.readouterr()
    summary = dict(
        line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    assert int(summary["exchanges"]) > 0
    assert main(["cost", "lab-like", str(out_dir / "final.partition")]) == 0
    assert capsys.readouterr().out == summary["final_cost"] + "\n"
