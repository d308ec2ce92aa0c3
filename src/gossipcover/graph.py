"""Weighted graph environments and shortest-path primitives.

Environments are connected undirected graphs with positive edge weights.
They come from occupancy-grid text (free cells become vertices, 4-adjacent
free cells become edges weighted by the grid resolution) or from explicit
edge lists. Vertex ids are dense integers 0..n-1; for grids they follow
row-major scan order over free cells.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from importlib import resources
from itertools import chain
from typing import Iterable, Iterator, ItemsView, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

UNREACHABLE = math.inf


class GraphFormatError(ValueError):
    """Malformed environment input (ragged rows, bad chars, bad edge lines)."""


class EmptyEnvironmentError(ValueError):
    """Environment has no free cells / no vertices."""


class DisconnectedEnvironmentError(ValueError):
    """Environment splits into more than one connected component."""

    def __init__(self, message: str, components: int):
        super().__init__(message)
        self.components = components


class WeightedGraph:
    """Immutable connected undirected graph with positive edge weights."""

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        coords: Optional[Sequence[tuple[float, float]]] = None,
    ):
        if n <= 0:
            raise EmptyEnvironmentError("graph needs at least one vertex")
        self.n = n
        # per vertex: {neighbour: weight}, in edge input order
        adj: list[dict[int, float]] = [{} for _ in range(n)]
        edge_list: list[tuple[int, int, float]] = []
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if w <= 0 or not math.isfinite(w):
                raise GraphFormatError(f"edge ({u},{v}) has non-positive weight {w}")
            if v in adj[u]:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            w = float(w)
            adj[u][v] = w
            adj[v][u] = w
            edge_list.append((min(u, v), max(u, v), w))
        self._adj = adj
        self._edges = edge_list
        if coords is not None and len(coords) != n:
            raise GraphFormatError("coords length does not match vertex count")
        self.coords = list(coords) if coords is not None else None

        weights = [w for _, _, w in edge_list]
        self.max_edge_weight = max(weights) if weights else 0.0
        self.uniform_weights = bool(weights) and all(w == weights[0] for w in weights)
        self.unit_weight = weights[0] if self.uniform_weights else None

        self._csr: Optional[csr_matrix] = None
        self._ball_cache: dict[tuple[int, float], frozenset[int]] = {}

        if n > 1:
            # the adjacency is symmetric: its strong components are the
            # undirected ones
            comps, _ = connected_components(self.csr(), directed=True, connection="strong")
            if comps != 1:
                raise DisconnectedEnvironmentError(
                    f"environment graph has {comps} connected components", comps
                )

    # ---- basic queries ----

    def neighbors(self, v: int) -> ItemsView[int, float]:
        """(neighbour, weight) pairs of v."""
        return self._adj[v].items()

    def edge_weight(self, u: int, v: int) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"no edge between {u} and {v}") from None

    def edges(self) -> Iterator[tuple[int, int, float]]:
        return iter(self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def csr(self) -> csr_matrix:
        """Symmetric sparse adjacency matrix (both directions of every edge,
        weights as data), built lazily from the adjacency and cached."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in self._adj], out=indptr[1:])
            nnz = int(indptr[-1])
            indices = np.fromiter(chain.from_iterable(self._adj), dtype=np.int32, count=nnz)
            weights = chain.from_iterable([nbrs.values() for nbrs in self._adj])
            data = np.fromiter(weights, dtype=np.float64, count=nnz)
            self._csr = csr_matrix((data, indices, indptr), shape=(self.n, self.n))
        return self._csr

    def neighborhood(self, v: int, radius: float) -> frozenset[int]:
        """Vertices at graph distance strictly less than radius from v.

        Distances are meters accumulated edge by edge, also on uniform
        graphs: six edges of 0.6 add up to 3.6, while 6 * 0.6 gives
        3.5999999999999996. Cached per (vertex, radius); used for
        communication-range tests.
        """
        key = (v, radius)
        ball = self._ball_cache.get(key)
        if ball is None:
            dist = np.full(self.n, UNREACHABLE)
            _dijkstra_into(self, None, v, dist, limit=radius)
            ball = frozenset(np.flatnonzero(dist < radius).tolist())
            self._ball_cache[key] = ball
        return ball


def _outside_mask(graph: WeightedGraph, region: Optional[Iterable[int]]) -> Optional[bytearray]:
    """1 for each vertex outside the region; None when region is None."""
    if region is None:
        return None
    ids = np.asarray(region if isinstance(region, np.ndarray) else list(region), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("region is empty")
    bad = ids[(ids < 0) | (ids >= graph.n)]
    if bad.size:
        raise ValueError(f"region vertex {bad[0]} out of range")
    outside = np.ones(graph.n, dtype=np.uint8)
    outside[ids] = 0
    return bytearray(outside.tobytes())


def one_to_all(
    graph: WeightedGraph, region: Optional[Iterable[int]], source: int
) -> np.ndarray:
    """Distances from source to every vertex of the induced subgraph.

    region=None means the whole graph. The units match
    region_distance_matrix: uniform-weight graphs give hop counts as
    float64 (meters = hops * unit_weight), which keeps sums and ties
    exact; general weights give Dijkstra distances accumulated edge by
    edge. Vertices outside the region or unreached stay at UNREACHABLE.
    """
    outside = _outside_mask(graph, region)
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    if outside is not None and outside[source]:
        raise ValueError(f"source {source} not in region")
    dist = np.full(graph.n, UNREACHABLE)
    if graph.uniform_weights:
        _bfs_into(graph, outside, source, dist)
    else:
        _dijkstra_into(graph, outside, source, dist)
    return dist


def _bfs_into(
    graph: WeightedGraph, outside: Optional[bytearray], source: int, dist: np.ndarray
) -> None:
    adj = graph._adj
    # blocked: outside the region or already reached; takes over `outside`
    blocked = bytearray(graph.n) if outside is None else outside
    blocked[source] = 1
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1.0
        for v in adj[u]:
            if not blocked[v]:
                blocked[v] = 1
                dist[v] = du
                queue.append(v)


def _dijkstra_into(
    graph: WeightedGraph,
    outside: Optional[bytearray],
    source: int,
    dist: np.ndarray,
    limit: float = UNREACHABLE,
) -> None:
    # vertices at limit or beyond are never settled and stay UNREACHABLE
    adj = graph._adj
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u].items():
            if outside is None or not outside[v]:
                nd = d + w
                if nd < dist[v] and nd < limit:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))


def shortest_path(
    graph: WeightedGraph, region: Optional[Iterable[int]], frm: int, to: int
) -> list[int]:
    """One shortest path from frm to to inside the induced subgraph.

    Deterministic: walking back from the target, ties between equal-cost
    predecessors go to the lowest vertex id. Raises ValueError when the
    endpoints are outside the region or no path exists.
    """
    dist = one_to_all(graph, region, frm)
    if not (0 <= to < graph.n and dist[to] != UNREACHABLE):
        raise ValueError(f"no path from {frm} to {to} within region")
    return _walk_back(graph, dist, frm, to)


def _walk_back(graph: WeightedGraph, dist: np.ndarray, frm: int, to: int) -> list[int]:
    """The lowest-id predecessor path from frm to a reached vertex to,
    given the one_to_all row dist of frm."""
    hop = graph.uniform_weights
    path = [to]
    v = to
    while v != frm:
        best = -1
        # vertices outside the region are UNREACHABLE, so they never match
        for u, w in graph.neighbors(v):
            if dist[u] + (1.0 if hop else w) == dist[v]:
                if best < 0 or u < best:
                    best = u
        if best < 0:
            raise AssertionError("path reconstruction lost the predecessor chain")
        path.append(best)
        v = best
    path.reverse()
    return path


def is_connected(graph: WeightedGraph, region: Iterable[int]) -> bool:
    """True when the induced subgraph is connected and nonempty."""
    ids = np.asarray(region if isinstance(region, np.ndarray) else list(region), dtype=np.int64)
    if ids.size == 0:
        return False
    outside = _outside_mask(graph, ids)
    # _bfs_into marks each vertex it reaches in outside
    _bfs_into(graph, outside, int(ids.min()), np.full(graph.n, UNREACHABLE))
    return 0 not in outside


def region_distance_matrix(graph: WeightedGraph, region_ids: np.ndarray) -> np.ndarray:
    """All-pairs distances of the induced subgraph, ordered like region_ids.

    Uniform-weight graphs give integer hop counts (distance in meters =
    hops * graph.unit_weight); exact integer arithmetic keeps cost
    comparisons free of rounding. General weights give accumulated
    distances.
    """
    sub = graph.csr()[region_ids][:, region_ids]
    # the sub-matrix holds both directions of every edge
    return _csgraph_dijkstra(sub, directed=True, unweighted=graph.uniform_weights)


def parse_grid(text: str) -> WeightedGraph:
    """Build a graph from occupancy-grid text.

    Rows use '#' for obstacles and '.' for free cells. An optional
    header line `resolution=<meters>` fixes the cell size (default 1.0).
    Free cells become vertices in row-major order; 4-adjacent free cells
    are joined by edges weighted by the resolution. coords hold cell
    centers in meters.
    """
    resolution = 1.0
    rows: list[str] = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not rows and line.startswith("resolution"):
            _, _, value = line.partition("=")
            try:
                resolution = float(value.strip())
            except ValueError:
                raise GraphFormatError(f"bad resolution header: {line!r}")
            if resolution <= 0 or not math.isfinite(resolution):
                raise GraphFormatError(f"resolution must be positive, got {resolution}")
            continue
        if not line:
            if rows:
                break
            continue
        rows.append(line)
    if not rows:
        raise EmptyEnvironmentError("grid has no rows")
    width = len(rows[0])
    ids: dict[tuple[int, int], int] = {}
    for r, row in enumerate(rows):
        if len(row) != width:
            raise GraphFormatError(f"row {r} has length {len(row)}, expected {width}")
        for c, ch in enumerate(row):
            if ch == ".":
                ids[(r, c)] = len(ids)
            elif ch != "#":
                raise GraphFormatError(f"bad grid char {ch!r} at row {r} col {c}")
    if not ids:
        raise EmptyEnvironmentError("grid has no free cells")
    edges = []
    for (r, c), u in ids.items():
        for rr, cc in ((r + 1, c), (r, c + 1)):
            v = ids.get((rr, cc))
            if v is not None:
                edges.append((u, v, resolution))
    coords = [None] * len(ids)
    for (r, c), u in ids.items():
        coords[u] = ((c + 0.5) * resolution, (r + 0.5) * resolution)
    return WeightedGraph(len(ids), edges, coords=coords)


def load_grid(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read())


def parse_edge_list(text: str) -> WeightedGraph:
    """Build a graph from edge-list text.

    First significant line is the vertex count; the rest are `u v w`
    lines. Lines starting with '#' are comments.
    """
    n = None
    edges = []
    for idx, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"line {idx + 1}: expected vertex count, got {line!r}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {idx + 1}: expected 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {idx + 1}: bad edge values {line!r}")
        edges.append((u, v, w))
    if n is None:
        raise EmptyEnvironmentError("edge list has no vertex count")
    return WeightedGraph(n, edges)


def load_edge_list(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(graph: WeightedGraph) -> str:
    lines = [str(graph.n)]
    for u, v, w in graph.edges():
        lines.append(f"{u} {v} {float(w)!r}")
    return "\n".join(lines) + "\n"


def resolve_environment(name: str) -> str:
    """Return a readable path for a file path or bundled map name
    (for example `lab-like` or `lab-like.grid`)."""
    if os.path.exists(name):
        return name
    base = name if name.endswith(".grid") else name + ".grid"
    bundled = resources.files(__package__) / "maps" / base
    if bundled.is_file():
        return str(bundled)
    raise FileNotFoundError(f"no such environment: {name}")


def load_environment(path: str) -> WeightedGraph:
    """Load a grid or edge-list environment, picking the format by content.

    path is a file path or bundled map name (see resolve_environment). A
    file whose first significant line is made of '.'/'#' cells (or a
    resolution header) parses as a grid; anything else parses as an
    edge list.
    """
    with open(resolve_environment(path), "r", encoding="utf-8") as fh:
        text = fh.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("resolution") or set(line) <= {".", "#"}:
            return parse_grid(text)
        break
    return parse_edge_list(text)
