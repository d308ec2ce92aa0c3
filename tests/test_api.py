"""The package's public names, pinned so that every change to them shows in
review."""

import inspect

import gossipcover

PUBLIC = [
    "CampaignError", "CampaignReport", "CampaignSpec", "DECENTRALIZED_LLOYD",
    "DisconnectedEnvironmentError", "EmptyEnvironmentError", "ExchangeBudget",
    "ExchangeResult", "GOSSIP_COVERAGE", "GOSSIP_LLOYD", "GraphFormatError",
    "OPEN_BOUNDARY", "Partition", "PartitionError", "PhiWeights", "RobotState",
    "RunRecord", "SimConfig", "SimTrace", "TraceEvent", "UNIFORM_REGION",
    "UNREACHABLE", "WeightedGraph", "World", "adjacency_edges", "centroid",
    "centroid_and_cost", "chernoff_samples", "decentralized_lloyd_fixed_point",
    "format_edge_list", "format_partition", "gossip_lloyd_exchange", "h_exp",
    "h_multicenter", "h_one", "histogram_bins", "is_centroidal_voronoi",
    "is_gossip_lloyd_fixed_point", "is_pairwise_optimal", "load_environment",
    "lowest_bin_fraction", "main", "one_to_all", "optimal_two_partition",
    "pairwise_exchange", "parse_edge_list", "parse_grid", "parse_partition",
    "parse_phi", "random_start", "run", "run_campaign", "step", "voronoi_partition",
    "write_campaign_csv", "write_campaign_summary", "write_final_partition",
    "write_histogram_csv", "write_run_summary", "write_trace_csv",
]


def test_public_names_are_pinned():
    # submodules (gossipcover.graph, ...) are attributes too, but no re-exports
    exported = sorted(
        name
        for name, value in vars(gossipcover).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC
