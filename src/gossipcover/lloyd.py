"""Lloyd-style partitioning baselines sharing the coverage cost model.

Two comparison algorithms: a synchronous decentralized Lloyd iteration
(compute the Voronoi partition of the robot positions, move each robot
to its region centroid, repeat to a fixed point) and a gossip Lloyd
exchange (a meeting pair re-splits the union of their regions by a
two-generator Voronoi seeded at the old region centroids).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .graph import WeightedGraph
from .partition import (
    Partition,
    PartitionError,
    PhiWeights,
    Territory,
    _nearest_generator,
    adjacency_edges,
    centroid_and_cost,
    expected_cost,
    price_region,
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
    current regions, as centroid gives them. The union is split by the
    search voronoi_partition runs, kept inside the union: ties in
    union-induced distance go to the lower robot index, and both sides
    are connected. A pair whose regions are not adjacent keeps its
    regions (each component of the union is reached only from its own
    centroid). Returns the input object unchanged when nothing moves.
    """
    if i == j:
        raise PartitionError("exchange needs two distinct robots")
    region_i = partition.region(i)
    union = np.union1d(region_i, partition.region(j))
    ci, cj = (int(c) for c in centers)
    owner = partition.owner
    if ci == cj or not all(0 <= c < owner.size and owner[c] in (i, j) for c in (ci, cj)):
        raise PartitionError("Lloyd centers must be two distinct vertices of the region union")
    nearest = _nearest_generator(graph, (ci, cj) if i < j else (cj, ci), union)
    side_i = np.flatnonzero(nearest == (0 if i < j else 1))
    if np.array_equal(side_i, region_i):
        return partition
    return partition.replace({i: side_i, j: np.flatnonzero(nearest == (1 if i < j else 0))})


def decentralized_lloyd_fixed_point(
    graph: WeightedGraph,
    positions: Sequence[int],
    phi: PhiWeights,
    max_rounds: int = 10000,
) -> tuple[list[int], Partition, list[float]]:
    """Iterate synchronous rounds until the positions stop moving: a round
    takes the Voronoi partition of the positions and moves each robot to
    the centroid of its cell.

    Returns the fixed positions, their Voronoi partition, and the h_exp
    value after each round (each cell is priced once per round).
    """
    pos = [int(p) for p in positions]
    costs: list[float] = []
    for _ in range(max_rounds):
        part = voronoi_partition(graph, pos)
        priced = [centroid_and_cost(graph, part.region(k), phi) for k in range(len(pos))]
        costs.append(expected_cost([cost for _, cost in priced], phi))
        moved = [c for c, _ in priced]
        if moved == pos:
            return pos, part, costs
        pos = moved
    raise PartitionError(f"no Lloyd fixed point within {max_rounds} rounds")


def is_gossip_lloyd_fixed_point(
    graph: WeightedGraph,
    partition: Partition,
    phi: PhiWeights,
    priced: Optional[Sequence[Territory]] = None,
    done: Optional[set[tuple[int, int]]] = None,
) -> bool:
    """True when no adjacent pair's Lloyd exchange would move any vertex.

    priced[k] is the Territory of robot k's region, whose centroid seeds
    the exchange (priced here when None). Pairs (i, j), i < j, in the set
    done are known to be left unchanged by the exchange at these regions
    and are not asked; each pair the exchange is found to leave unchanged
    is added to it.
    """
    if priced is None:
        priced = [price_region(graph, region, phi) for region in partition.regions()]
    if done is None:
        done = set()
    for i, j in sorted(adjacency_edges(graph, partition).difference(done)):
        centers = (priced[i].centroid, priced[j].centroid)
        if gossip_lloyd_exchange(graph, partition, i, j, phi, centers) is not partition:
            return False
        done.add((i, j))
    return True
