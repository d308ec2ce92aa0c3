"""Independent reference implementations for cross-checking results.

Everything here recomputes expected values from scratch: Floyd-Warshall
distances, plain BFS and Dijkstra loops, exhaustive two-center search,
plain set connectivity. None of it imports the package under test, so
agreement between the two routes is meaningful.

Random instance generators keep all edge weights and phi values on a
0.25 lattice; sums and products of such values are exact in float64,
which makes exact-equality assertions sound. The off-lattice generators
draw them from [0.05, 3] instead, where sums taken in different orders
can differ in the last bit.
"""

import heapq
import math
from collections import deque

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


def is_connected(graph, region):
    """oracle_connected on a WeightedGraph; raises ValueError on a vertex
    outside 0..n-1."""
    subset = [int(v) for v in region]
    if any(not 0 <= v < graph.n for v in subset):
        raise ValueError(f"region {subset} has a vertex out of range")
    return oracle_connected(graph.n, list(graph.edges()), subset)


def oracle_component_count(n, edges):
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in edges:
        root[find(u)] = find(v)
    return sum(1 for v in range(n) if find(v) == v)


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


# ---- single-source searches over a WeightedGraph's adjacency ----


def bfs_into(graph, outside, source, dist):
    """Hop counts from source into dist (float64, preset to INF), walking
    graph._adj; outside is None or a bytearray with 1 for each vertex the
    search may not enter, and it is overwritten."""
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


def dijkstra_into(graph, outside, source, dist):
    """Distances from source into dist (float64, preset to INF), summed
    edge by edge along graph._adj; outside is as in bfs_into."""
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
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))


def oracle_shortest_path(graph, region, frm, to):
    """The shortest path from frm to to inside the region (None for the
    whole graph), walking back from to over the bfs_into or dijkstra_into
    row of frm and taking the lowest-id predecessor at each vertex.
    Distances are hop counts on uniform-weight graphs. Raises ValueError
    when to is outside the region or not reached from frm."""
    outside = None
    if region is not None:
        outside = bytearray([1]) * graph.n
        for v in region:
            outside[v] = 0
    dist = [INF] * graph.n
    search = bfs_into if graph.uniform_weights else dijkstra_into
    search(graph, outside, frm, dist)
    if dist[to] == INF:
        raise ValueError(f"no path from {frm} to {to} within the region")
    path = [to]
    while path[-1] != frm:
        v = path[-1]
        preds = [
            u for u, w in graph._adj[v].items()
            if dist[u] + (1.0 if graph.uniform_weights else w) == dist[v]
        ]
        path.append(min(preds))
    return path[::-1]


def oracle_nearest_generator(graph, gens, region=None):
    """The generator index each vertex joins, negative outside the region:
    one heap search from all generators inside the induced region (the
    whole graph when None), settling vertices in (distance, index, vertex)
    order, with hop counts on uniform-weight graphs; each vertex joins the
    generator it is reached from."""
    inside = range(graph.n) if region is None else set(int(v) for v in region)
    owner = [-1 if v in inside else -2 for v in range(graph.n)]
    heap = [(0.0, k, g) for k, g in enumerate(gens)]
    while heap:
        d, k, u = heapq.heappop(heap)
        if owner[u] >= 0:
            continue
        owner[u] = k
        for v, w in graph._adj[u].items():
            if owner[v] == -1:
                heapq.heappush(heap, (d + (1.0 if graph.uniform_weights else w), k, v))
    return owner


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


# ---- the simulator's step-by-step motion loop ----


class ReferenceMotion:
    """The simulator's motion loop before motion was event-scheduled: every
    step, each waiting robot counts its wait down by dt, and each other
    robot spends speed * dt meters along its path, edge by edge; what is
    left when the path ends is dropped.

    It keeps each robot's wait and its progress along its current edge.
    Robots are objects with id, current_vertex, path and mode; start_wait
    and start_trip begin a wait or a trip as the simulator does, and the
    callbacks of step say what happens when a wait or a trip ends.
    """

    def __init__(self, n_robots, speed, tau, dt):
        self.speed, self.tau, self.dt = speed, tau, dt
        self.wait = [tau] * n_robots
        self.progress = [0.0] * n_robots

    def start_wait(self, robot):
        robot.mode = "WAITING"
        robot.path = []
        self.wait[robot.id] = self.tau

    def start_trip(self, robot, path, mode):
        robot.path = path
        robot.mode = mode
        self.progress[robot.id] = 0.0

    def step(self, robots, edge_weight, wait_over, arrived):
        for robot in robots:
            k = robot.id
            if robot.mode == "WAITING":
                self.wait[k] -= self.dt
                if self.wait[k] <= 0.0:
                    wait_over(robot)
                continue
            budget = self.speed * self.dt
            while budget > 0.0 and robot.path:
                need = edge_weight(robot.current_vertex, robot.path[0]) - self.progress[k]
                if budget >= need:
                    robot.current_vertex = robot.path.pop(0)
                    self.progress[k] = 0.0
                    budget -= need
                else:
                    self.progress[k] += budget
                    budget = 0.0
            if not robot.path:
                self.progress[k] = 0.0
                arrived(robot)
