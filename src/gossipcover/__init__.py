"""Gossip-based coverage partitioning of graph environments.

Robots own connected regions of a shared environment graph, wander
their territory, and opportunistically exchange vertices in pairwise
meetings until no adjacent pair can improve, yielding a
pairwise-optimal partition.
"""

from .graph import (
    DisconnectedEnvironmentError,
    EmptyEnvironmentError,
    GraphFormatError,
    UNREACHABLE,
    WeightedGraph,
    format_edge_list,
    load_edge_list,
    load_environment,
    one_to_all,
    parse_edge_list,
    parse_grid,
    shortest_path,
)
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    adjacency_edges,
    centroid,
    centroid_and_cost,
    format_partition,
    format_phi,
    h_exp,
    h_multicenter,
    h_one,
    is_centroidal_voronoi,
    is_pairwise_optimal,
    parse_partition,
    parse_phi,
    voronoi_partition,
)
from .exchange import (
    ExchangeBudget,
    ExchangeResult,
    assign_sides,
    optimal_two_partition,
    pairwise_exchange,
)
from .lloyd import (
    decentralized_lloyd_fixed_point,
    decentralized_lloyd_round,
    gossip_lloyd_exchange,
    is_gossip_lloyd_fixed_point,
)
from .sim import (
    GOSSIP_COVERAGE,
    GOSSIP_LLOYD,
    OPEN_BOUNDARY,
    UNIFORM_REGION,
    RobotState,
    SimConfig,
    SimTrace,
    TraceEvent,
    World,
    eligible_pairs,
    run,
    sample_destination,
    step,
)
from .campaign import (
    DECENTRALIZED_LLOYD,
    CampaignError,
    CampaignReport,
    CampaignSpec,
    RunRecord,
    chernoff_samples,
    histogram_bins,
    lowest_bin_fraction,
    random_start,
    run_campaign,
    write_campaign_csv,
    write_campaign_summary,
    write_final_partition,
    write_histogram_csv,
    write_run_summary,
    write_trace_csv,
)
from .cli import main

__version__ = "0.1.0"
