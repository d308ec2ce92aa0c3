"""Pairwise territory exchange between two robots.

Given two disjoint connected regions, the exchange searches every
ordered pair of vertices (a, b) of their union U for the cheapest
two-center split: a's side collects the vertices at least as close to
a as to b (ties to a), b's side takes the rest, and the candidate cost
is the phi-weighted sum of each vertex's distance to its side's
center. Candidates are visited in lexicographic (a, b) order and
replace the incumbent only on strictly lower cost, so truncating the
scan at any point still leaves a valid (anytime) answer, and resuming
from the recorded cursor reproduces the untruncated result bit for
bit: a resumed scan prices its incumbent (a, b) as entry b of row a's
product, the float the scan accepted it at. A dot product over the same
terms may sum them in another order and differ in the last bit off the
0.25 weight lattice, which would change which later candidates win.

The incumbent starts as the two input regions priced at their own
centroids with region-induced distances; a caller that holds those
prices (the simulator keeps them per robot) passes them as priced=,
and the scan builds only the union's distance matrix. Because every
vertex's shortest path to its winning center stays inside the winning
side, both sides of any candidate split are connected and the
candidate price equals sum_k min(d_U(a,k), d_U(b,k)) * phi(k).

The scan's improved flag compares candidates against the incumbent in
scan order; the strict centroid-cost test that decides whether a split
is adopted lives in pairwise_exchange, the one rule both the simulator
and is_pairwise_optimal apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import WeightedGraph, is_connected, one_to_all, region_distance_matrix
from .partition import Partition, PartitionError, PhiWeights, centroid_in_units, price_region


@dataclass(frozen=True)
class ExchangeBudget:
    """Cap on candidate pairs per invocation plus resume bookkeeping.

    max_pairs=None scans to the end. resume_cursor picks up a truncated
    scan at that position of the ordered pair list. resume_centers must
    carry the incumbent centers whenever a previous chunk already
    improved on the original regions; leave it None when the regions
    passed in are still the originals.
    """

    max_pairs: Optional[int] = None
    resume_cursor: int = 0
    resume_centers: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ValueError("max_pairs must be positive or None")
        if self.resume_cursor < 0:
            raise ValueError("resume_cursor must be nonnegative")


@dataclass
class ExchangeResult:
    """Outcome of one (possibly truncated) exchange scan.

    side_a/side_b are sorted vertex ids; center_a/center_b their
    centers. improved reports whether the incumbent differs from the
    regions the scan originally started from. cursor is the next
    position in the ordered pair list; completed marks a fully scanned
    list. cost is the incumbent's two-center cost (same scale as
    h_one sums).
    """

    side_a: np.ndarray
    side_b: np.ndarray
    center_a: int
    center_b: int
    improved: bool
    pairs_evaluated: int
    completed: bool
    cursor: int
    cost: float

    def next_budget(self, max_pairs: Optional[int] = None) -> ExchangeBudget:
        """Budget that resumes this scan; pass side_a/side_b back in."""
        return ExchangeBudget(
            max_pairs=max_pairs,
            resume_cursor=self.cursor,
            resume_centers=(self.center_a, self.center_b) if self.improved else None,
        )


def _clean_region(graph: WeightedGraph, region, label: str) -> np.ndarray:
    arr = region if isinstance(region, np.ndarray) else np.asarray(list(region))
    ids = np.unique(arr.astype(np.int64)) if arr.size else np.empty(0, dtype=np.int64)
    if ids.size == 0:
        raise PartitionError(f"{label} region is empty")
    if ids[0] < 0 or ids[-1] >= graph.n:
        raise PartitionError(f"{label} region has out-of-range vertices")
    if not is_connected(graph, ids):
        raise PartitionError(f"{label} region is disconnected")
    return ids


def optimal_two_partition(
    graph: WeightedGraph,
    region_a,
    region_b,
    phi: PhiWeights,
    budget: Optional[ExchangeBudget] = None,
    priced: Optional[tuple[tuple[int, float], tuple[int, float]]] = None,
) -> ExchangeResult:
    """Anytime search for the cheapest two-center split of a region union.

    priced=((centroid_a, cost_a), (centroid_b, cost_b)) are the two
    regions' centroids and costs as centroid_in_units gives them; a scan
    without resume_centers starts from that incumbent (priced here when
    None).
    """
    if budget is None:
        budget = ExchangeBudget()
    a_ids = _clean_region(graph, region_a, "first")
    b_ids = _clean_region(graph, region_b, "second")
    if np.intersect1d(a_ids, b_ids).size:
        raise PartitionError("regions overlap")

    union = np.union1d(a_ids, b_ids)
    m = union.size
    scan_len = m * (m - 1)
    if budget.resume_cursor > scan_len:
        raise ValueError(f"resume_cursor {budget.resume_cursor} beyond scan length {scan_len}")

    dmat = region_distance_matrix(graph, union)
    phi_u = phi.values[union]
    local = {int(v): k for k, v in enumerate(union)}

    if budget.resume_centers is None:
        if priced is None:
            priced = (centroid_in_units(graph, a_ids, phi), centroid_in_units(graph, b_ids, phi))
        (ca, cost_a), (cb, cost_b) = priced
        incumbent_cost = cost_a + cost_b
        dirty = False
    else:
        ca, cb = int(budget.resume_centers[0]), int(budget.resume_centers[1])
        if ca not in local or cb not in local:
            raise ValueError("resume_centers outside the region union")
        ia, ib = local[ca], local[cb]
        incumbent_cost = float((np.minimum(dmat[ia], dmat) @ phi_u)[ib])
        dirty = True

    cursor = budget.resume_cursor
    end = scan_len if budget.max_pairs is None else min(scan_len, cursor + budget.max_pairs)
    accepted = False

    pos = cursor
    while pos < end:
        row = pos // (m - 1)
        row_end = min(end - row * (m - 1), m - 1)
        offs = np.arange(pos - row * (m - 1), row_end)
        cols = offs + (offs >= row)
        row_costs = np.minimum(dmat[row], dmat) @ phi_u
        seg = row_costs[cols]
        k = int(np.argmin(seg))
        if seg[k] < incumbent_cost:
            incumbent_cost = float(seg[k])
            ca, cb = int(union[row]), int(union[cols[k]])
            accepted = True
        pos = row * (m - 1) + row_end

    if accepted or dirty:
        ia, ib = local[ca], local[cb]
        mask = dmat[ia] <= dmat[ib]
        side_a = union[mask]
        side_b = union[~mask]
        improved = True
    else:
        side_a, side_b = a_ids, b_ids
        improved = False

    return ExchangeResult(
        side_a=side_a,
        side_b=side_b,
        center_a=ca,
        center_b=cb,
        improved=improved,
        pairs_evaluated=end - cursor,
        completed=end == scan_len,
        cursor=end,
        cost=incumbent_cost * (graph.unit_weight or 1.0),
    )


def assign_sides(
    graph: WeightedGraph,
    center_a: int,
    center_b: int,
    pos_i: int,
    pos_j: int,
) -> bool:
    """True when robot i should take the a-side.

    The matching minimizes the robots' combined travel distance to the
    side centers; on a tie robot i keeps the a-side.
    """
    from_i = one_to_all(graph, None, pos_i)
    from_j = one_to_all(graph, None, pos_j)
    keep = from_i[center_a] + from_j[center_b]
    swap = from_i[center_b] + from_j[center_a]
    return bool(keep <= swap)


def pairwise_exchange(
    graph: WeightedGraph,
    partition: Partition,
    i: int,
    j: int,
    phi: PhiWeights,
    budget: Optional[ExchangeBudget] = None,
    positions: Optional[tuple[int, int]] = None,
    priced: Optional[tuple] = None,
) -> tuple[Partition, ExchangeResult, tuple, Optional[tuple[np.ndarray, np.ndarray]]]:
    """Apply the pairwise partitioning rule to robots i and j.

    priced=((centroid_i, cost_i), (centroid_j, cost_j)) are the current
    regions' prices as centroid_in_units gives them (priced here when
    None); the scan starts from them, with the lower-indexed robot's
    region as its a-side. When the scan improves on the current regions,
    both sides are priced with price_region, and the split is adopted
    only if their cost sum in meters (cost * (graph.unit_weight or 1.0),
    the floats centroid_and_cost gives) is strictly below that of the
    current regions. Pricing a side also guards it: it raises
    PartitionError on an empty or disconnected region. The adopted sides
    are matched to the robots by travel distance when
    positions=(pos_i, pos_j) is given, identity otherwise.

    Returns the new partition, the scan result, the (centroid, cost)
    pairs of robots i and j afterwards, and the region_distance_matrix
    of each of their new regions, the one that priced it. When nothing
    moves, the input partition object comes back with the current pairs
    and no matrices.
    """
    if i == j:
        raise PartitionError("exchange needs two distinct robots")
    lo, hi = (i, j) if i < j else (j, i)
    if priced is None:
        priced = tuple(centroid_in_units(graph, partition.region(k), phi) for k in (i, j))
    scan_priced = priced if i == lo else priced[::-1]
    result = optimal_two_partition(
        graph, partition.region(lo), partition.region(hi), phi, budget, scan_priced
    )
    if not result.improved:
        return partition, result, priced, None

    priced_a, dmat_a = price_region(graph, result.side_a, phi)
    priced_b, dmat_b = price_region(graph, result.side_b, phi)
    unit = graph.unit_weight or 1.0
    if not priced_a[1] * unit + priced_b[1] * unit < priced[0][1] * unit + priced[1][1] * unit:
        return partition, result, priced, None

    sides = [(result.side_a, priced_a, dmat_a), (result.side_b, priced_b, dmat_b)]
    if positions is not None:
        pos = dict(zip((i, j), positions))
        if not assign_sides(graph, result.center_a, result.center_b, pos[lo], pos[hi]):
            sides.reverse()
    if i != lo:
        sides.reverse()
    (side_i, priced_i, dmat_i), (side_j, priced_j, dmat_j) = sides
    new_partition = partition.replace({i: side_i, j: side_j})
    return new_partition, result, (priced_i, priced_j), (dmat_i, dmat_j)
