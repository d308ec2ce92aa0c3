"""Outside-in span tracer for the gossipcover layers.

The package binds names with ``from .x import y``, so one function can be
looked up through several module namespaces (``sim.optimal_two_partition``,
``exchange.region_distance_matrix``, ``partition.region_distance_matrix``,
...). ``Tracer.install`` replaces the function at every one of those places
with a wrapper that records a span, and ``uninstall`` puts the originals
back. Nothing inside the package is edited.

Each span records its name, start, end, parent span and run id. Spans and
counts are taken only inside ``recording``, and kept in flat arrays in
memory; ``end_run`` closes one run, ``summary`` turns its spans into
per-name call counts and self times (span time minus the time its child
spans cover), and ``save`` writes every run out.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module that defines it, attribute); "cls.attr" wraps a method
TARGETS = (
    ("cli.main", "cli", "main"),
    ("campaign.run_campaign", "campaign", "run_campaign"),
    ("campaign.write", "campaign", "write_campaign_csv"),
    ("campaign.write", "campaign", "write_histogram_csv"),
    ("campaign.write", "campaign", "write_campaign_summary"),
    ("campaign.write", "campaign", "write_trace_csv"),
    ("campaign.write", "campaign", "write_run_summary"),
    ("campaign.write", "campaign", "write_final_partition"),
    ("sim.run", "sim", "run"),
    ("sim.step", "sim", "step"),
    ("sim.eligible_pairs", "sim", "eligible_pairs"),
    ("lloyd.gossip_lloyd_exchange", "lloyd", "gossip_lloyd_exchange"),
    ("lloyd.is_gossip_lloyd_fixed_point", "lloyd", "is_gossip_lloyd_fixed_point"),
    ("exchange.optimal_two_partition", "exchange", "optimal_two_partition"),
    ("exchange.assign_sides", "exchange", "assign_sides"),
    ("partition.is_pairwise_optimal", "partition", "is_pairwise_optimal"),
    ("partition.is_centroidal_voronoi", "partition", "is_centroidal_voronoi"),
    ("partition.centroid_and_cost", "partition", "centroid_and_cost"),
    ("graph.region_distance_matrix", "graph", "region_distance_matrix"),
    ("graph.shortest_path", "graph", "shortest_path"),
    ("graph.neighborhood", "graph", "WeightedGraph.neighborhood"),
)

MODULES = ("graph", "partition", "exchange", "lloyd", "sim", "campaign", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        # counts taken at the same boundaries as the spans
        self.counts: Counter = Counter()
        self.runs: list[dict[str, np.ndarray]] = []
        self._stack: list[int] = []
        self._on = [False]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---- recording ----

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, observe):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, counts, on = self._stack, self.counts, self._on
        start, end, names, parent = self.start, self.end, self.name, self.parent

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self):
        """Record spans and counts only inside this block."""
        self.counts.clear()
        self._on[0] = True
        try:
            yield
        finally:
            self._on[0] = False

    def end_run(self) -> dict[str, np.ndarray]:
        """Move the spans recorded since the last call into a new run."""
        if self._stack:
            raise RuntimeError("end_run inside an open span")
        run = {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
        }
        for arr in (self.start, self.end, self.name, self.parent):
            del arr[:]
        self.runs.append(run)
        return run

    # ---- installation ----

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES
        ]
        for span, home, attr in TARGETS:
            owner = importlib.import_module(f"{self.package.__name__}.{home}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None)
            if original is None:
                self.missing.append(f"{span} ({home}.{attr})")
                continue
            wrapper = self._wrap(span, original, OBSERVERS.get(span))
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- results ----

    def summary(self, run: dict[str, np.ndarray]) -> dict:
        """Calls and self_s per span name of one run, plus the number of
        scans a meeting started, the root span time and the span count."""
        dur = run["end"] - run["start"]
        parent, ids = run["parent"], run["name"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - covered
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        selfs = np.bincount(ids, weights=self_s, minlength=n)
        # scans started by a meeting sit directly under a sim.step span
        scan = self._name_ids.get("exchange.optimal_two_partition", -1)
        step = self._name_ids.get("sim.step", -1)
        sel = (ids == scan) & has_parent
        return {
            "spans": {
                name: {"calls": int(calls[k]), "self_s": float(selfs[k])}
                for k, name in enumerate(self.names)
            },
            "meeting_scans": int(np.count_nonzero(ids[parent[sel]] == step)),
            "root_s": float(dur[~has_parent].sum()),
            "self_total_s": float(self_s.sum()),
            "span_count": int(dur.size),
        }

    def save(self, path) -> None:
        """Write every span to an .npz: start, end, name (index into names),
        parent (span index, -1 for a root) and run."""
        offsets = np.cumsum([0] + [r["start"].size for r in self.runs])
        parents = [
            np.where(r["parent"] >= 0, r["parent"] + off, -1)
            for r, off in zip(self.runs, offsets)
        ]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.concatenate([r["start"] for r in self.runs]),
            end=np.concatenate([r["end"] for r in self.runs]),
            name=np.concatenate([r["name"] for r in self.runs]),
            parent=np.concatenate(parents),
            run=np.repeat(np.arange(len(self.runs)), np.diff(offsets)),
        )


def _observe_scan(counts: Counter, args, kwargs, result) -> None:
    m = int(result.side_a.size + result.side_b.size)
    counts["exchange.optimal_two_partition.pairs"] += int(result.pairs_evaluated)
    counts["exchange.optimal_two_partition.improved"] += int(bool(result.improved))
    if m > counts["exchange.optimal_two_partition.union_max"]:
        counts["exchange.optimal_two_partition.union_max"] = m


def _observe_matrix(counts: Counter, args, kwargs, result) -> None:
    m = len(args[1] if len(args) > 1 else kwargs["region_ids"])
    counts["graph.region_distance_matrix.cells"] += m * m


def _observe_lloyd(counts: Counter, args, kwargs, result) -> None:
    partition = args[1] if len(args) > 1 else kwargs["partition"]
    counts["lloyd.gossip_lloyd_exchange.moved"] += int(result is not partition)


def _observe_run(counts: Counter, args, kwargs, result) -> None:
    counts["sim.meetings"] += int(result.meeting_count)
    counts["sim.exchanges"] += int(result.exchange_count)


OBSERVERS = {
    "exchange.optimal_two_partition": _observe_scan,
    "graph.region_distance_matrix": _observe_matrix,
    "lloyd.gossip_lloyd_exchange": _observe_lloyd,
    "sim.run": _observe_run,
}
