"""Independent reference implementations for cross-checking results.

Everything here recomputes expected values from scratch: Floyd-Warshall
distances, exhaustive two-center search, plain set connectivity. None
of it imports the package under test, so agreement between the two
routes is meaningful.

Random instance generators keep all edge weights and phi values on a
0.25 lattice; sums and products of such values are exact in float64,
which makes exact-equality assertions sound. The off-lattice generators
draw them from [0.05, 3] instead, where sums taken in different orders
can differ in the last bit.
"""

import math
import random

INF = math.inf


def floyd_warshall(n, edges):
    d = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = w
            d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def induced_distances(n, edges, subset):
    sub = set(subset)
    return floyd_warshall(n, [(u, v, w) for u, v, w in edges if u in sub and v in sub])


def oracle_connected(n, edges, subset):
    sub = set(subset)
    if not sub:
        return False
    adj = {v: [] for v in sub}
    for u, v, _ in edges:
        if u in sub and v in sub:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == sub


def oracle_h_one(n, edges, subset, h, phi):
    d = induced_distances(n, edges, subset)
    total = 0.0
    for k in sorted(subset):
        if d[h][k] == INF:
            return INF
        total += d[h][k] * phi[k]
    return total


def oracle_centroid(n, edges, subset, phi):
    best, best_cost = None, INF
    for h in sorted(subset):
        c = oracle_h_one(n, edges, subset, h, phi)
        if c < best_cost:
            best, best_cost = h, c
    return best, best_cost


def oracle_two_center(n, edges, union, phi):
    """Exhaustive min over ordered center pairs of the split cost; returns
    (min cost, first pair attaining it in lexicographic order)."""
    d = induced_distances(n, edges, union)
    verts = sorted(union)
    best_cost, best_pair = INF, None
    for a in verts:
        for b in verts:
            if a == b:
                continue
            cost = sum(min(d[a][k], d[b][k]) * phi[k] for k in verts)
            if cost < best_cost:
                best_cost, best_pair = cost, (a, b)
    return best_cost, best_pair


def oracle_split(n, edges, union, a, b):
    """The (a, b) split of the union: ties go to a's side."""
    d = induced_distances(n, edges, union)
    side_a = [k for k in sorted(union) if d[a][k] <= d[b][k]]
    side_b = [k for k in sorted(union) if d[a][k] > d[b][k]]
    return side_a, side_b


def oracle_pairwise_optimal(n, edges, region_a, region_b, phi):
    _, cost_a = oracle_centroid(n, edges, region_a, phi)
    _, cost_b = oracle_centroid(n, edges, region_b, phi)
    best, _ = oracle_two_center(n, edges, sorted(set(region_a) | set(region_b)), phi)
    return cost_a + cost_b <= best


# ---- random instance generators (0.25-lattice values stay exact) ----


def lattice(rng, lo_quarters, hi_quarters):
    return rng.randint(lo_quarters, hi_quarters) * 0.25


def random_connected_graph(rng, n, extra_edge_prob=0.3, uniform=False):
    """Random spanning tree plus extra edges; returns (n, edges)."""
    w0 = lattice(rng, 1, 12)
    edges = []
    present = set()
    for v in range(1, n):
        u = rng.randrange(v)
        w = w0 if uniform else lattice(rng, 1, 12)
        edges.append((u, v, w))
        present.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                w = w0 if uniform else lattice(rng, 1, 12)
                edges.append((u, v, w))
                present.add((u, v))
    return n, edges


def random_two_regions(rng, n, edges):
    """Split all n vertices into two connected regions by growing from a
    random adjacent seed pair."""
    adj = {v: [] for v in range(n)}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seed_u, seed_v, _ = edges[rng.randrange(len(edges))]
    side = {seed_u: 0, seed_v: 1}
    frontier = [seed_u, seed_v]
    while len(side) < n:
        grow = rng.choice(frontier)
        free = [w for w in adj[grow] if w not in side]
        if not free:
            frontier.remove(grow)
            continue
        w = rng.choice(free)
        side[w] = side[grow]
        frontier.append(w)
    region_a = sorted(v for v in range(n) if side[v] == 0)
    region_b = sorted(v for v in range(n) if side[v] == 1)
    return region_a, region_b


def random_phi(rng, n):
    return [lattice(rng, 1, 8) for _ in range(n)]


def off_lattice(rng):
    return rng.uniform(0.05, 3.0)


def random_off_lattice_graph(rng, n):
    """random_connected_graph with every weight redrawn by off_lattice."""
    n, edges = random_connected_graph(rng, n)
    return n, [(u, v, off_lattice(rng)) for u, v, _ in edges]


def grid_edges(rows, cols, w=1.0):
    """4-connected grid; ids row-major. Returns (n, edges)."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1, w))
            if r + 1 < rows:
                edges.append((u, u + cols, w))
    return n, edges
