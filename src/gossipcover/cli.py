"""Command-line front end: single runs, campaigns, partition checks.

Exit codes: 0 success, 1 usage or input error, 2 invariant violation.
Environment arguments accept a file path or the name of a bundled map
(for example `lab-like` or `lab-like.grid`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence, TextIO

from .campaign import (
    ALGORITHMS,
    DECENTRALIZED_LLOYD,
    CampaignError,
    CampaignSpec,
    random_start,
    run_campaign,
    run_decentralized_lloyd,
    write_campaign_csv,
    write_campaign_summary,
    write_final_partition,
    write_histogram_csv,
    write_run_summary,
    write_trace_csv,
)
from .graph import (
    DisconnectedEnvironmentError,
    EmptyEnvironmentError,
    GraphFormatError,
    WeightedGraph,
    format_edge_list,
    load_environment,
    resolve_environment,
)
from .partition import (
    Partition,
    PartitionError,
    h_exp,
    is_centroidal_voronoi,
    is_pairwise_optimal,
    load_partition,
    load_phi,
)
from .sim import (
    GOSSIP_COVERAGE,
    OPEN_BOUNDARY,
    UNIFORM_REGION,
    SimConfig,
    run,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class _Options:
    """Merges CLI flags (highest), config file entries, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}
        # a config key names an option of the subcommand by its flag's dest
        options = set(vars(args)) - {"command", "handler", "environment", "config"}
        unknown = sorted(set(self.config) - options)
        if unknown:
            raise ValueError(f"{args.config}: unknown config key {', '.join(unknown)}")

    def get(self, name: str, cast: Callable, default):
        cli = getattr(self.args, name, None)
        if cli is not None:
            return cli
        if name in self.config:
            return cast(self.config[name])
        return default


def _sim_config(opts: _Options) -> SimConfig:
    return SimConfig(
        speed=opts.get("speed", float, 0.4),
        r_comm=opts.get("rcomm", float, 2.5),
        lambda_comm=opts.get("lambda_comm", float, 0.3),
        tau=opts.get("tau", float, 3.5),
        dt=opts.get("dt", float, 0.1),
        destination_mode=opts.get("dest_mode", str, UNIFORM_REGION),
        exchange_budget=opts.get("budget", int, None),
        seed=opts.get("seed", int, 0),
        max_time=opts.get("max_time", float, 50000.0),
        convergence_window=opts.get("convergence_window", float, 30.0),
    )


def _start_condition(
    graph: WeightedGraph, opts: _Options
) -> tuple[Optional[list[int]], Partition]:
    partition_path = opts.get("partition", str, None)
    if partition_path is not None:
        return None, load_partition(graph, partition_path)
    n_robots = opts.get("n", int, None)
    if n_robots is None:
        raise ValueError("give --n for a random start or --partition for a file")
    return random_start(graph, n_robots, opts.get("partition_seed", int, 0))


def _out_file(out_dir: str, name: str) -> TextIO:
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, name), "w", newline="")


def _write_round_trace(costs: list[float], fp: TextIO) -> None:
    fp.write("time,kind,robot_i,robot_j,h_exp\n")
    for k, cost in enumerate(costs):
        fp.write(f"{float(k + 1)!r},round,,,{cost!r}\n")


def _cmd_run(args: argparse.Namespace) -> int:
    opts = _Options(args)
    graph = load_environment(args.environment)
    phi = load_phi(graph, opts.get("phi", str, None))
    positions, partition = _start_condition(graph, opts)
    algorithm = opts.get("algorithm", str, GOSSIP_COVERAGE)
    out_dir = opts.get("out_dir", str, ".")

    if algorithm == DECENTRALIZED_LLOYD:
        trace, costs = run_decentralized_lloyd(
            graph, partition, phi, positions, opts.get("seed", int, 0)
        )
        with _out_file(out_dir, "trace.csv") as fp:
            _write_round_trace(costs, fp)
    else:
        config = _sim_config(opts)
        trace = run(
            graph,
            partition,
            phi,
            config,
            algorithm=algorithm,
            initial_positions=positions,
        )
        with _out_file(out_dir, "trace.csv") as fp:
            write_trace_csv(trace, fp)

    with _out_file(out_dir, "final.partition") as fp:
        write_final_partition(trace, fp)
    write_run_summary(trace, sys.stdout)
    with _out_file(out_dir, "summary.txt") as fp:
        write_run_summary(trace, fp)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    opts = _Options(args)
    environment = resolve_environment(args.environment)
    n_robots = opts.get("n", int, None)
    partition_path = opts.get("partition", str, None)
    if n_robots is None:
        if partition_path is None:
            raise ValueError("give --n for a random start or --partition for a file")
        graph = load_environment(environment)
        n_robots = load_partition(graph, partition_path).n_robots
    spec = CampaignSpec(
        environment=environment,
        n_robots=n_robots,
        algorithm=opts.get("algorithm", str, GOSSIP_COVERAGE),
        samples=opts.get("samples", int, 0),
        epsilon=opts.get("epsilon", float, None),
        eta=opts.get("eta", float, None),
        base_seed=opts.get("seed", int, 0),
        partition_file=partition_path,
        partition_seed=opts.get("partition_seed", int, 0),
        phi_file=opts.get("phi", str, None),
        histogram_bin_width=opts.get("bin_width", float, 0.10),
        histogram_origin=opts.get("bin_origin", float, 2.17),
        sim=_sim_config(opts),
    )
    report = run_campaign(spec)
    out_dir = opts.get("out_dir", str, ".")
    with _out_file(out_dir, "campaign.csv") as fp:
        write_campaign_csv(report, fp)
    with _out_file(out_dir, "histogram.csv") as fp:
        write_histogram_csv(report, fp)
    with _out_file(out_dir, "summary.txt") as fp:
        write_campaign_summary(report, fp)
    write_campaign_summary(report, sys.stdout)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    graph = load_environment(args.environment)
    phi = load_phi(graph, args.phi)
    try:
        partition = load_partition(graph, args.partition)
    except PartitionError as exc:
        print("valid: no")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("valid: yes")
    cvp = is_centroidal_voronoi(graph, partition, phi)
    pwo = is_pairwise_optimal(graph, partition, phi)
    print(f"centroidal-voronoi: {'yes' if cvp else 'no'}")
    print(f"pairwise-optimal: {'yes' if pwo else 'no'}")
    print(f"cost: {h_exp(graph, partition, phi)!r}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    graph = load_environment(args.environment)
    phi = load_phi(graph, args.phi)
    partition = load_partition(graph, args.partition)
    print(repr(h_exp(graph, partition, phi)))
    return 0


def _cmd_grid2graph(args: argparse.Namespace) -> int:
    graph = load_environment(args.environment)
    if args.info:
        weights = sorted({w for _, _, w in graph.edges()})
        print(f"vertices={graph.n}")
        print(f"edges={graph.edge_count}")
        print(f"edge_weights={' '.join(repr(w) for w in weights)}")
        print(f"uniform={'yes' if graph.uniform_weights else 'no'}")
        return 0
    text = format_edge_list(graph)
    if args.out is not None:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dt", type=float, help="integration step (default 0.1)")
    parser.add_argument("--tau", type=float, help="wait time at destinations (default 3.5)")
    parser.add_argument("--rcomm", type=float, help="communication range (default 2.5)")
    parser.add_argument(
        "--lambda", dest="lambda_comm", type=float, help="meeting rate (default 0.3)"
    )
    parser.add_argument("--speed", type=float, help="robot speed (default 0.4)")
    parser.add_argument(
        "--dest-mode",
        choices=(UNIFORM_REGION, OPEN_BOUNDARY),
        help="destination sampling mode (default uniform)",
    )
    parser.add_argument(
        "--budget", type=int, help="pairs evaluated per meeting (default unlimited)"
    )
    parser.add_argument("--max-time", type=float, help="simulated time cap (default 50000)")
    parser.add_argument(
        "--convergence-window",
        type=float,
        help="quiet time before testing optimality (default 30)",
    )


def _add_start_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="robot count for a random start")
    parser.add_argument("--partition", help="initial partition file")
    parser.add_argument(
        "--partition-seed", type=int, help="seed for the random start (default 0)"
    )
    parser.add_argument("--phi", help="vertex weight file (default uniform)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gossipcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and write its trace")
    p_run.add_argument("environment")
    _add_start_flags(p_run)
    _add_sim_flags(p_run)
    p_run.add_argument("--algorithm", choices=ALGORITHMS)
    p_run.add_argument("--seed", type=int, help="meeting sequence seed (default 0)")
    p_run.add_argument("--out-dir", dest="out_dir", help="artifact directory (default .)")
    p_run.add_argument("--config", help="key=value defaults file")
    p_run.set_defaults(handler=_cmd_run)

    p_camp = sub.add_parser("campaign", help="run a Monte Carlo campaign")
    p_camp.add_argument("environment")
    _add_start_flags(p_camp)
    _add_sim_flags(p_camp)
    p_camp.add_argument("--algorithm", choices=ALGORITHMS)
    p_camp.add_argument("--samples", type=int, help="run count (or use --epsilon/--eta)")
    p_camp.add_argument("--epsilon", type=float, help="Chernoff accuracy")
    p_camp.add_argument("--eta", type=float, help="Chernoff confidence")
    p_camp.add_argument("--seed", type=int, help="base seed; run k uses seed+k (default 0)")
    p_camp.add_argument("--bin-width", type=float, help="histogram bin width (default 0.10)")
    p_camp.add_argument("--bin-origin", type=float, help="histogram origin (default 2.17)")
    p_camp.add_argument("--out-dir", dest="out_dir", help="artifact directory (default .)")
    p_camp.add_argument("--config", help="key=value defaults file")
    p_camp.set_defaults(handler=_cmd_campaign)

    p_check = sub.add_parser("check", help="validate a partition file")
    p_check.add_argument("environment")
    p_check.add_argument("partition")
    p_check.add_argument("--phi")
    p_check.set_defaults(handler=_cmd_check)

    p_cost = sub.add_parser("cost", help="print the coverage cost of a partition")
    p_cost.add_argument("environment")
    p_cost.add_argument("partition")
    p_cost.add_argument("--phi")
    p_cost.set_defaults(handler=_cmd_cost)

    p_grid = sub.add_parser("grid2graph", help="convert or inspect an environment")
    p_grid.add_argument("environment")
    p_grid.add_argument("--out", help="write the edge list here instead of stdout")
    p_grid.add_argument("--info", action="store_true", help="print graph statistics")
    p_grid.set_defaults(handler=_cmd_grid2graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (
        PartitionError,
        CampaignError,
        EmptyEnvironmentError,
        DisconnectedEnvironmentError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
