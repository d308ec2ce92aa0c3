"""Weighted graph environments and shortest-path primitives.

Environments are connected undirected graphs with positive edge weights.
They come from occupancy-grid text (free cells become vertices, 4-adjacent
free cells become edges weighted by the grid resolution) or from explicit
edge lists. Vertex ids are dense integers 0..n-1; for grids they follow
row-major scan order over free cells.
"""

from __future__ import annotations

import math
import os
from importlib import resources
from itertools import chain
from typing import Collection, Iterable, Iterator, ItemsView, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

UNREACHABLE = math.inf
# the uint16 hop count of seeded_region_hops for an unreached vertex
UNREACHED_HOPS = 65535
# vertices seeded_region_hops fills in; a region that gains more is mostly searched
_FILL_LIMIT = 32


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
        self._edge_ends: Optional[np.ndarray] = None
        self._neighbor_table: Optional[np.ndarray] = None
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

    def edge_ends(self) -> np.ndarray:
        """The (2, edge_count) int64 array of edge endpoints (lower id first,
        in edges() order), built lazily and cached; callers must not modify it."""
        if self._edge_ends is None:
            ends = [(u, v) for u, v, _ in self._edges]
            self._edge_ends = np.array(ends, dtype=np.int64).reshape(-1, 2).T
        return self._edge_ends

    def neighbor_table(self) -> np.ndarray:
        """The (n, max(1, max degree)) int64 array of each vertex's
        neighbours in csr() order, padded with n, built lazily and cached;
        callers must not modify it."""
        if self._neighbor_table is None:
            csr = self.csr()
            degrees = np.diff(csr.indptr)
            table = np.full((self.n, int(degrees.max(initial=1))), self.n, dtype=np.int64)
            slots = np.arange(csr.indices.size) - np.repeat(csr.indptr[:-1], degrees)
            table[np.repeat(np.arange(self.n), degrees), slots] = csr.indices
            self._neighbor_table = table
        return self._neighbor_table

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
            # on the meter weights, not hop counts; scipy leaves the vertices
            # beyond the limit at UNREACHABLE
            dist = _csgraph_dijkstra(self.csr(), directed=True, indices=v, limit=radius)
            ball = frozenset(np.flatnonzero(dist < radius).tolist())
            self._ball_cache[key] = ball
        return ball


def one_to_all(graph: WeightedGraph, sources: int | Sequence[int]) -> np.ndarray:
    """Whole-graph distances from an int source as one row, or from a
    sequence of sources as one row per source.

    The units match region_distance_matrix: uniform-weight graphs give hop
    counts as float64 (meters = hops * unit_weight), which keeps sums and
    ties exact; general weights give Dijkstra distances accumulated edge
    by edge. Raises ValueError on a source outside 0..n-1.
    """
    for source in np.atleast_1d(sources).tolist():
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range")
    return _csgraph_dijkstra(
        graph.csr(), directed=True, indices=sources, unweighted=graph.uniform_weights
    )


def _walk_back(graph: WeightedGraph, row: list, at: dict | range, frm: int, to: int) -> list[int]:
    """The lowest-id predecessor path from frm to a reached vertex to, given
    frm's distances as a list (a one_to_all row or a region matrix row) and
    the position in it of each vertex it holds (range(n) for a whole row);
    other vertices are unreached."""
    adj, hop = graph._adj, graph.uniform_weights
    path = [to]
    v = to
    while v != frm:
        best, d = -1, row[at[v]]
        # vertices outside the region are missing or UNREACHABLE, so they never match
        for u, w in adj[v].items():
            if u in at and row[at[u]] + (1.0 if hop else w) == d:
                if best < 0 or u < best:
                    best = u
        if best < 0:
            raise AssertionError("path reconstruction lost the predecessor chain")
        path.append(best)
        v = best
    path.reverse()
    return path


def _path_to_nearest(graph: WeightedGraph, source: int, targets: Collection[int]) -> list[int]:
    """The _walk_back path from source to the first, in id order, of the
    targets nearest to it in the whole graph; targets is nonempty.

    On a uniform-weight graph the search goes out one hop level at a time
    and stops after the first level that holds a target, so the target is
    the smallest id on that level. Every earlier level is complete, so the
    walk back over the searched vertices sees every predecessor a
    whole-graph row would give it. Other graphs search the whole graph.
    """
    if not graph.uniform_weights:
        row = one_to_all(graph, source).tolist()
        target = min(sorted(targets), key=row.__getitem__)
        return _walk_back(graph, row, range(graph.n), source, target)
    adj = graph._adj
    # searched vertex -> its position in row, which holds its hop count
    at, row, level, hops = {source: 0}, [0.0], [source], 0.0
    # a connected graph reaches a target before the levels run out
    while level and not (reached := [v for v in level if v in targets]):
        hops += 1.0
        frontier, level = level, []
        for u in frontier:
            for v in adj[u]:
                if v not in at:
                    at[v] = len(row)
                    row.append(hops)
                    level.append(v)
    return _walk_back(graph, row, at, source, min(reached))


def _induced_csr(graph: WeightedGraph, ids: np.ndarray) -> csr_matrix:
    """The adjacency of the subgraph induced by the int64 ids, renumbered to
    positions in ids; it holds both directions of every edge."""
    csr = graph.csr()
    # one gather of the region's rows of the adjacency, then of the entries
    # whose column is in the region, renumbered to region positions
    starts = csr.indptr[ids]
    counts = csr.indptr[ids + 1] - starts
    bounds = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    entries = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], counts)
    local = np.full(graph.n, -1, dtype=np.int32)
    local[ids] = np.arange(ids.size, dtype=np.int32)
    cols = local[csr.indices[entries]]
    inside = cols >= 0
    kept = np.zeros(entries.size + 1, dtype=np.int64)
    np.cumsum(inside, out=kept[1:])
    return csr_matrix(
        (csr.data[entries][inside], cols[inside], kept[bounds]), shape=(ids.size, ids.size)
    )


def region_distance_matrix(graph: WeightedGraph, region_ids: np.ndarray) -> np.ndarray:
    """All-pairs distances of the induced subgraph, ordered like region_ids.

    Uniform-weight graphs give integer hop counts (distance in meters =
    hops * graph.unit_weight); exact integer arithmetic keeps cost
    comparisons free of rounding. General weights give accumulated
    distances.
    """
    sub = _induced_csr(graph, np.asarray(region_ids, dtype=np.int64))
    return _csgraph_dijkstra(sub, directed=True, unweighted=graph.uniform_weights)


def seeded_region_hops(
    graph: WeightedGraph, ids: np.ndarray, seed_ids: np.ndarray, seed_hops: np.ndarray
) -> np.ndarray:
    """region_distance_matrix(graph, ids) of a uniform-weight graph as uint16
    hop counts, UNREACHED_HOPS where the search gives UNREACHABLE, built from
    the hop matrix seed_hops of a region with sorted ids seed_ids.

    ids are sorted int64 and fewer than UNREACHED_HOPS, so every hop count is
    below the sentinel. The candidate matrix M copies the seed's entries
    between the vertices both regions share. Each vertex g the seed lacks
    gets the row 1 + the minimum of its neighbours' rows, mirrored into its
    column, twice, so that M[g, h] also covers the paths from g to another
    such vertex h through the shared part; then a Floyd-Warshall pass
    through each such g adds the paths that cross it (at most
    _FILL_LIMIT of them; beyond that the check below fails and searches).
    When the seed's entries are the hop counts of the shared part, M is
    now exact.

    Every column y is checked in one vectorized Bellman pass: M[y, y] = 0
    and, for x != y, M[x, y] = 1 + the minimum of M[z, y] over x's
    in-region neighbours z, saturating at the sentinel. On a unit-step graph
    the hop counts to y are the only solution (a finite entry without a
    path to y would need an endless descending chain), so a column that
    passes equals the search integer for integer. The columns that fail,
    for example where the seed region had a shortest path through a vertex
    this region lacks, are searched from y.
    """
    m = ids.size
    local = np.full(graph.n + 1, m, dtype=np.int64)
    local[ids] = np.arange(m)
    # in-region neighbours of each region vertex, padded with m; row m of
    # hops stays UNREACHED_HOPS, so the padding never lowers a minimum
    nbrs = local[graph.neighbor_table()[ids]]
    hops = np.full((m + 1, m), UNREACHED_HOPS, dtype=np.uint16)
    mat = hops[:m]
    at = np.minimum(np.searchsorted(seed_ids, ids), seed_ids.size - 1)
    gained = np.flatnonzero(seed_ids[at] != ids)
    shared = seed_hops.take(at, axis=0).take(at, axis=1)
    np.minimum(shared, np.uint16(UNREACHED_HOPS), out=mat, casting="unsafe")
    # free the seed's copy (of any type) before the check allocates
    del shared
    mat[gained] = UNREACHED_HOPS
    mat[:, gained] = UNREACHED_HOPS
    np.fill_diagonal(mat, 0)
    if 0 < gained.size <= _FILL_LIMIT:
        for _ in range(2):
            rows = _bellman(hops, nbrs[gained])
            rows[np.arange(gained.size), gained] = 0
            mat[gained] = rows
            mat[:, gained] = rows.T
        for g in gained.tolist():
            # clamped to half the sentinel, a sum fits uint16; a sum that
            # used the clamp may be no path length, and the check finds it
            to_g = np.minimum(mat[:, g], UNREACHED_HOPS // 2)
            from_g = np.minimum(mat[g], UNREACHED_HOPS // 2)
            np.minimum(mat, to_g[:, None] + from_g, out=mat)
    best = _bellman(hops, nbrs)
    np.fill_diagonal(best, 0)
    failed = np.flatnonzero((best != mat).any(axis=0))
    del best
    if failed.size:
        sub = _induced_csr(graph, ids)
        rows = _csgraph_dijkstra(sub, directed=True, indices=failed, unweighted=True)
        mat[:, failed] = np.minimum(rows, UNREACHED_HOPS, out=rows).T
    return mat


def _bellman(hops: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Per row of nbrs, 1 + the minimum of the rows of hops it lists,
    saturating at UNREACHED_HOPS."""
    best = hops.take(nbrs[:, 0], axis=0)
    for k in range(1, nbrs.shape[1]):
        np.minimum(best, hops.take(nbrs[:, k], axis=0), out=best)
    np.minimum(best, UNREACHED_HOPS - 1, out=best)
    best += 1
    return best


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
