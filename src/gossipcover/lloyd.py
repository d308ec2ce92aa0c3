"""Lloyd-style partitioning baselines sharing the coverage cost model.

Two comparison algorithms: a synchronous decentralized Lloyd iteration
(compute the Voronoi partition of the robot positions, move each robot
to its region centroid, repeat to a fixed point) and a gossip Lloyd
exchange (a meeting pair re-splits the union of their regions by a
two-generator Voronoi seeded at the old region centroids).
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence

import numpy as np

from .graph import WeightedGraph, is_connected, one_to_all
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    adjacency_edges,
    centroid,
    h_exp,
    voronoi_partition,
)


def gossip_lloyd_exchange(
    graph: WeightedGraph,
    partition: Partition,
    i: int,
    j: int,
    phi: PhiWeights,
    centers: tuple[int, int],
) -> Partition:
    """Re-split the union of regions i and j by Voronoi from the old centroids.

    centers=(centroid_i, centroid_j) are the centroids of the two
    current regions, as centroid gives them. Ties in union-induced
    distance go to the lower robot index. A pair whose regions are not
    adjacent keeps its regions (each component of the union is closer
    to its own centroid). Returns the input object unchanged when
    nothing moves.
    """
    if i == j:
        raise PartitionError("exchange needs two distinct robots")
    region_i = partition.region(i)
    region_j = partition.region(j)
    ci, cj = centers
    union = np.union1d(region_i, region_j)
    di = one_to_all(graph, union, ci)[union]
    dj = one_to_all(graph, union, cj)[union]
    mask_i = di <= dj if i < j else di < dj
    side_i = union[mask_i]
    side_j = union[~mask_i]
    if np.array_equal(side_i, region_i):
        return partition
    new_partition = partition.replace({i: side_i, j: side_j})
    for robot, ids in ((i, side_i), (j, side_j)):
        if not is_connected(graph, ids):
            raise PartitionError(f"Lloyd exchange produced an invalid region for robot {robot}")
    return new_partition


def decentralized_lloyd_round(
    graph: WeightedGraph, positions: Sequence[int], phi: PhiWeights
) -> tuple[list[int], Partition]:
    """One synchronous round: Voronoi partition of the positions, then each
    robot relocates to the centroid of its cell."""
    pos = [int(p) for p in positions]
    if len(set(pos)) != len(pos):
        raise PartitionError("positions must be distinct")
    part = voronoi_partition(graph, pos)
    moved = [centroid(graph, part.region(k), phi) for k in range(len(pos))]
    return moved, part


def decentralized_lloyd_fixed_point(
    graph: WeightedGraph,
    positions: Sequence[int],
    phi: PhiWeights,
    max_rounds: int = 10000,
) -> tuple[list[int], Partition, list[float]]:
    """Iterate rounds until the positions stop moving.

    Returns the fixed positions, their Voronoi partition, and the h_exp
    value after each round.
    """
    pos = [int(p) for p in positions]
    costs: list[float] = []
    for _ in range(max_rounds):
        moved, part = decentralized_lloyd_round(graph, pos, phi)
        costs.append(h_exp(graph, part, phi))
        if moved == pos:
            return pos, part, costs
        pos = moved
    raise PartitionError(f"no Lloyd fixed point within {max_rounds} rounds")


def is_gossip_lloyd_fixed_point(
    graph: WeightedGraph,
    partition: Partition,
    phi: PhiWeights,
    centers: Optional[Sequence[int]] = None,
    done: Collection[tuple[int, int]] = (),
) -> bool:
    """True when no adjacent pair's Lloyd exchange would move any vertex.

    centers[k] is robot k's region centroid (computed here when None);
    pairs (i, j), i < j, in done are known to be left unchanged by the
    exchange at these regions and are not asked.
    """
    if centers is None:
        centers = [centroid(graph, region, phi) for region in partition.regions()]
    for i, j in sorted(adjacency_edges(graph, partition).difference(done)):
        moved = gossip_lloyd_exchange(graph, partition, i, j, phi, (centers[i], centers[j]))
        if moved is not partition:
            return False
    return True
