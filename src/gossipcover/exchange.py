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
centroids with region-induced distances. Pricing a region is also what
checks it (see partition.price_region); a caller that holds the two
regions' Territories (the simulator keeps one per robot) passes them
as priced=, and the scan makes only the union's distance matrix. On a
uniform-weight graph it composes that matrix from the two Territory
matrices through the edges between the regions (_union_hops), in compact
integer hop counts that equal a fresh search of the union exactly; on
other graphs it searches the union afresh, since a composed float sum can
differ in the last bit from one accumulated edge by edge. The result
carries that union matrix, and pairwise_exchange prices both sides of an
improving scan from it (price_region's seed), which on a uniform-weight
graph searches only the few rows where a side's own hop counts differ
from the union's.
Because every vertex's shortest path to its winning center stays inside
the winning side, both sides of any candidate split are connected and
the candidate price equals sum_k min(d_U(a,k), d_U(b,k)) * phi(k).

The scan's improved flag compares candidates against the incumbent in
scan order; the strict centroid-cost test that decides whether a split
is adopted lives in pairwise_exchange, the one rule both the simulator
and is_pairwise_optimal apply.

Two evaluators price the candidates, and the inputs pick one. In the
integer regime, a union matrix of integer hop counts (a uniform-weight
graph whose two regions share an edge), integer-valued phi
(PhiWeights.integral) and dmax * sum(phi over U) < 2**24, every partial
sum of every candidate price is an integer float32 holds exactly, so
float32 gives the float64 value in any summation order. _scan_blocks
takes a block of rows' minima in the matrix's integer type (uint8 while
dmax < 256) and prices them with one float32 product. It prices only the
pairs a < b: the price of (b, a) equals that of (a, b), which the scan
met earlier, in this call or in an earlier chunk, and the incumbent has
only fallen since, so the strict test never accepts (b, a). A block's
first flat argmin is its first minimum in scan order. The cursor,
pairs_evaluated and resuming still count ordered pairs. Every other
input takes _scan_rows, one float64 row product per row; a union of
regions that share no edge gets the search's UNREACHABLE across, so no
sentinel hop count is priced. Off the integer regime the two prices of
a pair may differ in the last bit, so no pair is skipped there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import UNREACHABLE, UNREACHED_HOPS, WeightedGraph, one_to_all, region_distance_matrix
from .partition import Partition, PartitionError, PhiWeights, Territory, price_region

# float32 holds every integer up to this bound exactly
_F32_EXACT = float(2**24)
# elements of one block of _scan_blocks; 2**17 measured faster than 2**15 and 2**16
_BLOCK_ELEMENTS = 2**17


@dataclass(frozen=True)
class ExchangeBudget:
    """Cap on candidate pairs per invocation plus resume bookkeeping.

    max_pairs=None scans to the end. resume_cursor picks up a truncated
    scan at that position of the ordered pair list. resume_centers must
    carry the incumbent centers, two distinct vertices of the union,
    whenever a previous chunk already improved on the original regions;
    leave it None when the regions passed in are still the originals.
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
    h_one sums). union_dists is the distance matrix of the union
    np.union1d(side_a, side_b) that the scan priced with, in
    region_distance_matrix units (_union_hops' integers, or float64 with
    UNREACHABLE across regions that share no edge).
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
    union_dists: np.ndarray = field(repr=False)

    def next_budget(self, max_pairs: Optional[int] = None) -> ExchangeBudget:
        """Budget that resumes this scan; pass side_a/side_b back in."""
        return ExchangeBudget(
            max_pairs=max_pairs,
            resume_cursor=self.cursor,
            resume_centers=(self.center_a, self.center_b) if self.improved else None,
        )


def optimal_two_partition(
    graph: WeightedGraph,
    region_a,
    region_b,
    phi: PhiWeights,
    budget: Optional[ExchangeBudget] = None,
    priced: Optional[tuple[Territory, Territory]] = None,
) -> ExchangeResult:
    """Anytime search for the cheapest two-center split of a region union.

    priced=(territory_a, territory_b) are the Territories of region_a and
    region_b, whose ids the scan reads; a scan without resume_centers
    starts from their centroids and costs. When None, the regions (any
    iterables of vertex ids) are priced here, which raises PartitionError
    on an empty, out-of-range or disconnected one.
    """
    if budget is None:
        budget = ExchangeBudget()
    if priced is None:
        priced = tuple(
            price_region(graph, np.unique(np.fromiter(region, dtype=np.int64)), phi)
            for region in (region_a, region_b)
        )
    a_ids, b_ids = priced[0].ids, priced[1].ids
    if np.intersect1d(a_ids, b_ids).size:
        raise PartitionError("regions overlap")

    union = np.union1d(a_ids, b_ids)
    m = union.size
    scan_len = m * (m - 1)
    if budget.resume_cursor > scan_len:
        raise ValueError(f"resume_cursor {budget.resume_cursor} beyond scan length {scan_len}")

    if graph.uniform_weights and m < UNREACHED_HOPS // 2:
        dmat = _union_hops(graph, *priced)
        if dmat.max() == UNREACHED_HOPS:
            # regions that share no edge: the search's float64, UNREACHABLE across
            dmat = np.where(dmat == UNREACHED_HOPS, UNREACHABLE, dmat)
    else:
        dmat = region_distance_matrix(graph, union)
    phi_u = phi.values[union]
    integral = (
        dmat.dtype.kind == "u"
        and phi.integral
        and float(dmat.max()) * float(phi_u.sum()) < _F32_EXACT
    )
    scan_mat = dmat if integral else dmat.astype(np.float64, copy=False)

    if budget.resume_centers is None:
        ca, cb = priced[0].centroid, priced[1].centroid
        incumbent_cost = priced[0].cost + priced[1].cost
        dirty = False
    else:
        ca, cb = int(budget.resume_centers[0]), int(budget.resume_centers[1])
        ia, ib = np.searchsorted(union, (ca, cb))
        if max(ia, ib) == m or union[ia] != ca or union[ib] != cb:
            raise ValueError("resume_centers outside the region union")
        if ca == cb:
            raise ValueError("resume_centers must be two distinct vertices")
        if integral:
            # every partial sum is an integer below 2**24, exact in any order
            incumbent_cost = float(np.minimum(scan_mat[ia], scan_mat[ib]) @ phi_u)
        else:
            # the row product sums in the order the scan accepted the pair at
            incumbent_cost = float((np.minimum(scan_mat[ia], scan_mat) @ phi_u)[ib])
        dirty = True

    cursor = budget.resume_cursor
    end = scan_len if budget.max_pairs is None else min(scan_len, cursor + budget.max_pairs)
    scan = _scan_blocks if integral else _scan_rows
    incumbent_cost, accepted = scan(scan_mat, phi_u, cursor, end, incumbent_cost)
    if accepted is not None:
        ia, ib = accepted
        ca, cb = int(union[ia]), int(union[ib])

    if accepted is not None or dirty:
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
        union_dists=dmat,
    )


def _union_hops(graph: WeightedGraph, ta: Territory, tb: Territory) -> np.ndarray:
    """region_distance_matrix(graph, np.union1d(ta.ids, tb.ids)) on a
    uniform-weight graph, for two disjoint regions of fewer than
    UNREACHED_HOPS // 2 vertices together, composed from their Territory
    matrices in the smallest unsigned type that holds the hop counts.

    A portal is an end of a cut edge, one with an end in each region. A
    union path from x to y that crosses between the regions splits at its
    first cut edge into a path inside x's side to that edge's portal q
    and a union path from q to y. A union path from a portal to y splits
    at its last cut edge likewise, and the portal-to-portal union
    distances come from Floyd-Warshall over the portals, with in-region
    hops and one hop per cut edge. All of it is sums and minima of
    integer hops in uint16, so every entry equals the searched one
    exactly. Regions that share no edge have no portals and stay
    UNREACHED_HOPS across, where the search leaves UNREACHABLE.
    """
    na, m = ta.ids.size, ta.ids.size + tb.ids.size
    # vertices in side order, a's then b's; permuted to union order at the end
    where = np.full(graph.n, -1)
    where[ta.ids] = np.arange(na)
    where[tb.ids] = np.arange(na, m)
    side = np.full((m, m), UNREACHED_HOPS, dtype=np.uint16)
    side[:na, :na] = ta.dists
    side[na:, na:] = tb.dists
    u, v = where[graph.edge_ends()]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    cut = (lo >= 0) & (lo < na) & (hi >= na)
    portals, ends = np.unique(np.stack((lo[cut], hi[cut])), return_inverse=True)
    ends = ends.reshape(2, -1)
    # operands clamped to half the sentinel: no sum wraps, and since every
    # hop count is below m < the clamp, a clamped sum never wins a minimum
    inside = np.minimum(side[portals], UNREACHED_HOPS // 2)
    closure = inside[:, portals]
    closure[ends[0], ends[1]] = closure[ends[1], ends[0]] = 1
    for t in range(portals.size):
        np.minimum(closure, closure[:, t, None] + closure[t], out=closure)
    # from_portal[t, y]: union distance from portal t to y
    from_portal = np.full((portals.size, m), UNREACHED_HOPS // 2, dtype=np.uint16)
    for t in range(portals.size):
        np.minimum(from_portal, closure[:, t, None] + inside[t], out=from_portal)
    for t, q in enumerate(portals):
        rows = slice(0, na) if q < na else slice(na, m)
        np.minimum(side[rows], side[rows, q, None] + from_portal[t], out=side[rows])
    side = side.astype(np.min_scalar_type(int(side.max())), copy=False)
    order = np.argsort(np.concatenate((ta.ids, tb.ids)))
    # take keeps the result C-ordered; side[order][:, order] comes out
    # Fortran-ordered, which slows every block of _scan_blocks
    side = side.take(order, axis=0)
    return side.take(order, axis=1)


def _scan_rows(dmat, phi_u, cursor, end, incumbent):
    """Price ordered pairs [cursor, end) one float64 row product at a time.

    Returns the incumbent cost after the segment and the (row, column)
    of the pair that set it, or None when no pair beat the incumbent.
    """
    m = dmat.shape[0]
    accepted = None
    pos = cursor
    while pos < end:
        row = pos // (m - 1)
        row_end = min(end - row * (m - 1), m - 1)
        offs = np.arange(pos - row * (m - 1), row_end)
        cols = offs + (offs >= row)
        seg = (np.minimum(dmat[row], dmat) @ phi_u)[cols]
        k = int(np.argmin(seg))
        if seg[k] < incumbent:
            incumbent = float(seg[k])
            accepted = (row, int(cols[k]))
        pos = row * (m - 1) + row_end
    return incumbent, accepted


def _scan_blocks(dmat, phi_u, cursor, end, incumbent):
    """_scan_rows for integer inputs: the same result, many rows per call.

    Exact only when every partial sum of a candidate price is an integer
    below 2**24 (see the module docstring). Prices only the pairs a < b,
    a block of rows [a0, a1) at a time: minima in dmat's own type, then
    float32; entries outside the segment or with b <= a are +inf, and a
    block's first flat argmin is its first minimum in scan order.
    """
    m = dmat.shape[0]
    phi32 = phi_u.astype(np.float32)
    size = max(_BLOCK_ELEMENTS, (m - 1) * m)
    mins, buf = np.empty(size, dmat.dtype), np.empty(size, np.float32)
    # a block of h rows and width >= h columns has h * h <= _BLOCK_ELEMENTS / m
    below = np.tri(max(1, math.isqrt(_BLOCK_ELEMENTS // m)), m - 1, k=-1, dtype=bool)
    below = np.where(below, np.float32(np.inf), np.float32(0))
    accepted = None
    a0 = cursor // (m - 1)
    last = min((end - 1) // (m - 1), m - 2)
    while a0 <= last:
        width = m - 1 - a0
        a1 = min(a0 + max(1, _BLOCK_ELEMENTS // (width * m)), last + 1)
        h = a1 - a0
        n = h * width * m
        np.minimum(dmat[a0:a1, None, :], dmat[None, a0 + 1 :, :], out=mins[:n].reshape(h, width, m))
        buf[:n] = mins[:n]
        costs = (buf[:n].reshape(-1, m) @ phi32).reshape(h, width)
        costs += below[:h, :width]
        # (a, b) sits at a * (m - 1) + b - 1; row a's pairs b > a start at a * m
        if a0 * m < cursor or a1 * (m - 1) > end:
            pos = np.arange(a0, a1)[:, None] * (m - 1) + np.arange(a0, m - 1)
            costs[(pos < cursor) | (pos >= end)] = np.inf
        r, c = divmod(int(np.argmin(costs)), width)
        best = float(costs[r, c])
        if best < incumbent:
            incumbent, accepted = best, (a0 + r, a0 + 1 + c)
        a0 = a1
    return incumbent, accepted


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
    from_i, from_j = one_to_all(graph, [pos_i, pos_j])
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
    priced: Optional[tuple[Territory, Territory]] = None,
) -> tuple[Partition, ExchangeResult, tuple[Territory, Territory]]:
    """Apply the pairwise partitioning rule to robots i and j.

    priced=(territory_i, territory_j) are the Territories of the robots'
    current regions (priced here when None); the scan reads the regions
    from them and starts from their prices, with the lower-indexed
    robot's region as its a-side. When the scan improves on the current
    regions, both sides are priced with price_region, seeded with the
    scan's union matrix (the same Territories as an unseeded call, bit
    for bit), and the split is adopted only if their cost sum in meters
    (cost * (graph.unit_weight or 1.0), the floats centroid_and_cost
    gives) is strictly below that of the current regions. The adopted
    sides are matched to the robots by travel distance when
    positions=(pos_i, pos_j) is given, identity otherwise.

    Returns the new partition, the scan result, and the Territories of
    robots i and j afterwards. When nothing moves, the input partition
    object comes back with the input Territories.
    """
    if i == j:
        raise PartitionError("exchange needs two distinct robots")
    lo, hi = (i, j) if i < j else (j, i)
    if priced is None:
        priced = tuple(price_region(graph, partition.region(k), phi) for k in (i, j))
    ta, tb = priced if i == lo else priced[::-1]
    result = optimal_two_partition(graph, ta.ids, tb.ids, phi, budget, (ta, tb))
    if not result.improved:
        return partition, result, priced

    seed = (np.union1d(ta.ids, tb.ids), result.union_dists)
    sides = [price_region(graph, side, phi, seed) for side in (result.side_a, result.side_b)]
    unit = graph.unit_weight or 1.0
    new_cost = sides[0].cost * unit + sides[1].cost * unit
    if not new_cost < priced[0].cost * unit + priced[1].cost * unit:
        return partition, result, priced

    if positions is not None:
        pos = dict(zip((i, j), positions))
        if not assign_sides(graph, result.center_a, result.center_b, pos[lo], pos[hi]):
            sides.reverse()
    if i != lo:
        sides.reverse()
    ti, tj = sides
    return partition.replace({i: ti.ids, j: tj.ids}), result, (ti, tj)
