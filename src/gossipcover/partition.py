"""Connected partitions of graph environments and their coverage costs.

A partition assigns every vertex to exactly one of N robots; each
region must be nonempty and connected in the induced subgraph. The
coverage cost of a region is the phi-weighted sum of distances from a
center, minimized at the generalized centroid; the expected cost of a
partition averages the centroid costs over total phi mass.

On uniform-weight graphs every cost is computed from integer hop
counts and scaled by the edge weight once, so equality and tie
comparisons are exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .graph import WeightedGraph, is_connected, one_to_all, region_distance_matrix


class PartitionError(ValueError):
    """A partition invariant (coverage, ownership, connectivity) failed."""


class PhiWeights:
    """Strictly positive per-vertex weights with a cached total."""

    def __init__(self, values: Sequence[float]):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("phi needs a nonempty 1-d value array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError("phi values must be finite and strictly positive")
        self.values = arr
        self.total = float(arr.sum())

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def uniform(cls, n: int) -> "PhiWeights":
        return cls(np.ones(n))

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, float]) -> "PhiWeights":
        values = np.ones(n)
        for v, phi in mapping.items():
            if not 0 <= v < n:
                raise ValueError(f"phi vertex {v} out of range")
            values[v] = phi
        return cls(values)


def parse_phi(text: str, n: int) -> PhiWeights:
    """Parse `vertex_id phi_value` lines; unlisted vertices default to 1,
    and a vertex listed twice is an error."""
    mapping: dict[int, float] = {}
    for idx, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"phi line {idx + 1}: expected 'vertex value', got {line!r}")
        v = int(parts[0])
        if v in mapping:
            raise ValueError(f"phi line {idx + 1}: vertex {v} listed twice")
        mapping[v] = float(parts[1])
    return PhiWeights.from_mapping(n, mapping)


def load_phi(graph: WeightedGraph, path: Optional[str]) -> PhiWeights:
    """Read a phi file for the graph; path=None gives uniform weights."""
    if path is None:
        return PhiWeights.uniform(graph.n)
    with open(path) as fp:
        return parse_phi(fp.read(), graph.n)


def format_phi(phi: PhiWeights) -> str:
    lines = [f"{v} {float(phi.values[v])!r}" for v in range(len(phi))]
    return "\n".join(lines) + "\n"


class Partition:
    """Vertex-to-owner assignment for N robots."""

    __slots__ = ("owner", "n_robots")

    def __init__(self, owner: Sequence[int], n_robots: int):
        arr = np.asarray(owner, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise PartitionError("owner array must be nonempty and 1-d")
        if n_robots <= 0:
            raise PartitionError("need at least one robot")
        self.owner = arr
        self.n_robots = int(n_robots)

    def region(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_robots:
            raise PartitionError(f"robot index {i} out of range")
        return np.flatnonzero(self.owner == i)

    def regions(self) -> list[np.ndarray]:
        return [self.region(i) for i in range(self.n_robots)]

    def copy(self) -> "Partition":
        return Partition(self.owner.copy(), self.n_robots)

    def replace(self, assignments: dict[int, np.ndarray]) -> "Partition":
        """New partition with the given robots' regions reassigned."""
        owner = self.owner.copy()
        for robot, ids in assignments.items():
            owner[np.asarray(ids, dtype=np.int64)] = robot
        return Partition(owner, self.n_robots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n_robots == other.n_robots and np.array_equal(self.owner, other.owner)

    def validate(self, graph: WeightedGraph) -> None:
        """Raise PartitionError on any violated partition invariant."""
        if self.owner.size != graph.n:
            raise PartitionError(
                f"partition covers {self.owner.size} vertices, graph has {graph.n}"
            )
        if self.owner.min() < 0 or self.owner.max() >= self.n_robots:
            raise PartitionError("owner ids outside 0..N-1")
        for i in range(self.n_robots):
            ids = self.region(i)
            if ids.size == 0:
                raise PartitionError(f"robot {i} owns no vertices")
            if not is_connected(graph, ids):
                raise PartitionError(f"region of robot {i} is disconnected")


def parse_partition(text: str, n_vertices: int) -> Partition:
    """Parse a partition file: header `N=<robots>`, lines `vertex owner`."""
    n_robots = None
    owner = np.full(n_vertices, -1, dtype=np.int32)
    for idx, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_robots is None:
            if not line.startswith("N="):
                raise PartitionError(f"partition line {idx + 1}: expected 'N=<robots>' header")
            n_robots = int(line[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PartitionError(
                f"partition line {idx + 1}: expected 'vertex owner', got {line!r}"
            )
        v, o = int(parts[0]), int(parts[1])
        if not 0 <= v < n_vertices:
            raise PartitionError(f"partition line {idx + 1}: vertex {v} out of range")
        if owner[v] != -1:
            raise PartitionError(f"partition line {idx + 1}: vertex {v} assigned twice")
        owner[v] = o
    if n_robots is None:
        raise PartitionError("partition file has no N= header")
    missing = np.flatnonzero(owner == -1)
    if missing.size:
        raise PartitionError(f"partition leaves vertex {int(missing[0])} unassigned")
    return Partition(owner, n_robots)


def load_partition(graph: WeightedGraph, path: str) -> Partition:
    """Read a partition file for the graph and validate it."""
    with open(path) as fp:
        partition = parse_partition(fp.read(), graph.n)
    partition.validate(graph)
    return partition


def format_partition(partition: Partition) -> str:
    lines = [f"N={partition.n_robots}"]
    for v, o in enumerate(partition.owner):
        lines.append(f"{v} {int(o)}")
    return "\n".join(lines) + "\n"


def _center_costs(
    graph: WeightedGraph, ids: np.ndarray, phi: PhiWeights
) -> tuple[np.ndarray, np.ndarray]:
    """The region_distance_matrix of the region with sorted ids, and the
    cost of every region vertex as its center in the same units: the one
    place a region is priced.

    Raises PartitionError when the region is empty, has out-of-range
    vertices or is disconnected.
    """
    if ids.size == 0:
        raise PartitionError("region is empty")
    if ids[0] < 0 or ids[-1] >= graph.n:
        raise PartitionError("region has out-of-range vertices")
    dmat = region_distance_matrix(graph, ids)
    if np.any(np.isinf(dmat)):
        raise PartitionError("region is disconnected")
    return dmat, dmat @ phi.values[ids]


def h_one(graph: WeightedGraph, region: Iterable[int], h: int, phi: PhiWeights) -> float:
    """Phi-weighted sum of distances from center h over the induced region.

    Raises PartitionError when h lies outside the region or the region
    is empty, out of range or disconnected.
    """
    ids = np.asarray(sorted(set(int(v) for v in region)), dtype=np.int64)
    _, costs = _center_costs(graph, ids, phi)
    k = int(np.searchsorted(ids, h))
    if k == ids.size or ids[k] != h:
        raise PartitionError(f"center {h} not in region")
    return float(costs[k]) * (graph.unit_weight or 1.0)


@dataclass(frozen=True, eq=False)
class Territory:
    """A checked, priced region, as price_region gives it.

    ids are the region's sorted vertex ids, centroid its generalized
    centroid and cost the centroid's cost in region_distance_matrix units
    (hops on uniform graphs; meters are cost * (graph.unit_weight or
    1.0)); dists is the region matrix that priced it, with the hop counts
    of a uniform-weight graph in the smallest unsigned integer type that
    holds them (uint8 on lab-scale regions).
    """

    ids: np.ndarray
    centroid: int
    cost: float
    dists: np.ndarray


def price_region(graph: WeightedGraph, ids: np.ndarray, phi: PhiWeights) -> Territory:
    """The Territory of the region with sorted vertex ids: the only place
    one is made, so every Territory is nonempty, in range and connected.

    Raises PartitionError otherwise. The centroid is the region vertex
    minimizing h_one; ties go to the lowest vertex id.
    """
    dmat, costs = _center_costs(graph, ids, phi)
    best = int(np.argmin(costs))
    if graph.uniform_weights:
        dmat = dmat.astype(np.min_scalar_type(int(dmat.max())))
    return Territory(ids, int(ids[best]), float(costs[best]), dmat)


def centroid_and_cost(
    graph: WeightedGraph, region: Iterable[int], phi: PhiWeights
) -> tuple[int, float]:
    """Generalized centroid of a region and its h_one cost."""
    ids = np.asarray(sorted(set(int(v) for v in region)), dtype=np.int64)
    territory = price_region(graph, ids, phi)
    return territory.centroid, territory.cost * (graph.unit_weight or 1.0)


def centroid(graph: WeightedGraph, region: Iterable[int], phi: PhiWeights) -> int:
    return centroid_and_cost(graph, region, phi)[0]


def expected_cost(meters: Sequence[float], phi: PhiWeights) -> float:
    """Per-region costs in meters, in robot order, averaged over phi mass.

    numpy's pairwise sum fixes the summation order, and so the bits, of
    every expected cost the package reports.
    """
    return float(np.array(meters, dtype=np.float64).sum() / phi.total)


def h_multicenter(
    graph: WeightedGraph,
    centers: Sequence[int],
    partition: Partition,
    phi: PhiWeights,
) -> float:
    """Average of per-region center costs over total phi mass."""
    if len(centers) != partition.n_robots:
        raise PartitionError("one center per robot required")
    regions = partition.regions()
    return expected_cost([h_one(graph, r, int(c), phi) for r, c in zip(regions, centers)], phi)


def h_exp(graph: WeightedGraph, partition: Partition, phi: PhiWeights) -> float:
    """Expected coverage cost: centroid costs averaged over phi mass."""
    return expected_cost([centroid_and_cost(graph, r, phi)[1] for r in partition.regions()], phi)


def voronoi_partition(
    graph: WeightedGraph, generators: Sequence[int]
) -> Partition:
    """Partition by graph distance to generators; ties to the lowest index.

    Regions stay connected where float path sums tie (see
    _nearest_generator).
    """
    gens = [int(g) for g in generators]
    if len(gens) == 0:
        raise PartitionError("need at least one generator")
    if len(set(gens)) != len(gens):
        raise PartitionError("generators must be distinct")
    for g in gens:
        if not 0 <= g < graph.n:
            raise PartitionError(f"generator {g} out of range")
    return Partition(_nearest_generator(graph, gens), len(gens))


def _nearest_generator(
    graph: WeightedGraph, gens: Sequence[int], region: Optional[np.ndarray] = None
) -> np.ndarray:
    """Index of the generator each vertex joins, negative outside the region.

    One search from all distinct generators, inside the induced region
    (the whole graph when None; hop counts on uniform graphs), settles
    vertices in (distance, index) order, each joining the generator it
    is reached from, so every part is connected even where float path
    sums tie.
    """
    # -1: not reached yet; -2: outside the region
    if region is None:
        owner = [-1] * graph.n
    else:
        owner = [-2] * graph.n
        for v in region.tolist():
            owner[v] = -1
    hop = graph.uniform_weights
    heap = [(0.0, k, g) for k, g in enumerate(gens)]
    while heap:
        d, k, u = heapq.heappop(heap)
        if owner[u] >= 0:
            continue
        owner[u] = k
        for v, w in graph.neighbors(u):
            if owner[v] == -1:
                heapq.heappush(heap, (d + (1.0 if hop else w), k, v))
    return np.array(owner, dtype=np.int32)


def adjacency_edges(graph: WeightedGraph, partition: Partition) -> frozenset[tuple[int, int]]:
    """Robot pairs whose regions touch along at least one graph edge."""
    pairs = set()
    owner = partition.owner
    for u, v, _ in graph.edges():
        a, b = int(owner[u]), int(owner[v])
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return frozenset(pairs)


def is_centroidal_voronoi(
    graph: WeightedGraph, partition: Partition, phi: PhiWeights
) -> bool:
    """True when every vertex is at least as close to its own region's
    centroid as to any other region's centroid (ties allowed)."""
    centroids = [
        centroid_and_cost(graph, partition.region(i), phi)[0]
        for i in range(partition.n_robots)
    ]
    rows = np.array([one_to_all(graph, None, c) for c in centroids])
    own = rows[partition.owner, np.arange(graph.n)]
    return bool(np.all(own <= rows.min(axis=0)))


def is_pairwise_optimal(
    graph: WeightedGraph,
    partition: Partition,
    phi: PhiWeights,
    priced: Optional[Sequence[Territory]] = None,
    done: Collection[tuple[int, int]] = (),
) -> bool:
    """True when the pairwise exchange rule changes no adjacent pair.

    priced[k] is the Territory of robot k's region (priced here when
    None); pairs (i, j), i < j, in done are known to be left unchanged by
    the rule at these regions and are not asked.
    """
    from .exchange import pairwise_exchange

    if priced is None:
        priced = [price_region(graph, region, phi) for region in partition.regions()]
    for i, j in sorted(adjacency_edges(graph, partition).difference(done)):
        moved = pairwise_exchange(graph, partition, i, j, phi, priced=(priced[i], priced[j]))[0]
        if moved is not partition:
            return False
    return True
