"""gossipcover benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload lab-coverage --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (all closed loops with one client: the next repetition
starts when the previous one ends):

- ``lab-coverage``: ``gossipcover campaign`` on ``lab-like``, 9 robots
  starting from the Voronoi split of vertices 0-8, the criterion-7 sim
  config, gossip-coverage, over a block of 24 consecutive meeting seeds.
- ``lab-lloyd``: the same map, start and config with gossip-lloyd over the
  first 16 seeds of that block; it never calls the two-center scan.
- ``open-60x16``: ``gossipcover run`` on a 60x60 open grid with 16 robots
  placed by ``random_start``, boundary mode, for a fixed simulated horizon.
  Unions reach several hundred vertices, so the two-center scan dominates.
  It is not listed in BENCHMARK.json: a horizon holds only a few dozen
  scans, so its wall time varies between seeds by far more than any
  regression bound. Use it for paired before/after runs on one seed.

``--seed`` picks the meeting-seed block (lab) or the start and meeting seed
(open); the same seed gives the same inputs. Each repetition is checked:
exit code 0, every artifact byte-identical across repetitions and, where
``reference.json`` has the seed, to the recorded output of the seed commit,
convergence on ``lab-*``, and a re-validated final partition on
``open-60x16``.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json:
``ms_per_meeting`` (median host seconds of one repetition, in ms, over the
meetings it simulates), ``setup_s`` (median host seconds to load the
environment and build the start condition, sampled before and after the
timed loop) and ``peak_rss_mb``. It also prints ``wall_s`` (median host
seconds of one repetition), ``sim_s_per_host_s`` and ``failed_frac``, which
are kept in ``out/`` but not listed. ``--trace 1`` runs one untraced
repetition, then traced ones, and prints the per-layer metrics taken by
``tracer.py`` from outside the package. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: OpenBLAS would otherwise start one thread per core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Block k of meeting seeds starts at k * LAB_STRIDE. A longer block averages
# more of the 20-30% run-to-run variation in host time; the block sizes
# below take 40-50 s each on the 2-core machine of baseline.json.
LAB_STRIDE = 24
LAB_SIM = [
    "--dest-mode", "boundary", "--max-time", "30000", "--convergence-window", "25",
    "--speed", "0.4", "--rcomm", "2.5", "--lambda", "0.3", "--tau", "3.5", "--dt", "0.1",
]
OPEN_SIDE, OPEN_ROBOTS, OPEN_HORIZON = 60, 16, 600
SETUP_REPEATS = 15
# The end-to-end metrics listed in BENCHMARK.json. The meeting count of a
# seed is fixed by its artifacts, so ms_per_meeting moves with wall_s on
# every seed, but varies far less than wall_s between seeds.
GATED = ("ms_per_meeting", "setup_s", "peak_rss_mb")
DT = 0.1


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    if not (SRC / "gossipcover" / "__init__.py").is_file():
        fail(f"no gossipcover sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gossipcover
    import gossipcover.cli

    if Path(gossipcover.__file__).resolve().parent != (SRC / "gossipcover").resolve():
        fail(f"imported gossipcover from {gossipcover.__file__}, not from {SRC}")
    return gossipcover


# ---- workloads ----


@dataclass
class Rep:
    """One repetition: wall time, artifact digests, deterministic counts."""

    wall_s: float
    digests: dict[str, str]
    counts: dict[str, object]
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""
    artifacts: tuple[str, ...] = ()

    def __init__(self, pkg, seed: int, out_dir: Path):
        self.pkg = pkg
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Load the environment and build the start condition."""
        raise NotImplementedError

    def argv(self, job_dir: Path, warm: bool) -> list[str]:
        raise NotImplementedError

    def check(self, job_dir: Path, summary: str) -> tuple[dict, list[str]]:
        """Deterministic counts of one repetition, and what is wrong with it."""
        raise NotImplementedError

    def run_once(self, job_dir: Path, warm: bool = False, around=contextlib.nullcontext) -> Rep:
        """One call of the command line, timed; ``around`` wraps only the call."""
        job_dir.mkdir(parents=True, exist_ok=True)
        for name in self.artifacts:
            (job_dir / name).unlink(missing_ok=True)
        argv = self.argv(job_dir, warm)
        captured = io.StringIO()
        gc.collect()
        problems = []
        with contextlib.redirect_stdout(captured), around():
            started = time.perf_counter()
            try:
                code = self.pkg.cli.main(argv)
            except Exception as exc:  # a crash is a failed repetition, not the end of the run
                code = None
                problems.append(f"raised {exc!r}")
                traceback.print_exc()
            wall = time.perf_counter() - started
        if code not in (0, None):
            problems.append(f"exit code {code}")
        digests = {}
        for name in self.artifacts:
            path = job_dir / name
            if path.is_file():
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                problems.append(f"missing artifact {name}")
        counts: dict = {}
        if not problems:
            summary = (job_dir / "summary.txt").read_text()
            if captured.getvalue() != summary:
                problems.append("printed summary differs from summary.txt")
            counts, found = self.check(job_dir, summary)
            problems += found
        return Rep(wall, digests, counts, problems)


def _summary_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class LabWorkload(Workload):
    artifacts = ("campaign.csv", "histogram.csv", "summary.txt")
    algorithm = ""
    block = 0

    def setup(self) -> None:
        pkg = self.pkg
        # summary.txt names the environment path: keep it relative to the
        # checkout, so that the artifact digests do not depend on where it is
        self.environment = os.path.relpath(pkg.cli.resolve_environment("lab-like"), ROOT)
        graph = pkg.load_environment(self.environment)
        start = pkg.voronoi_partition(graph, list(range(9)))
        self.start_file = self.out_dir / "start.partition"
        self.start_file.write_text(pkg.format_partition(start))

    def argv(self, job_dir: Path, warm: bool) -> list[str]:
        return [
            "campaign", self.environment,
            "--partition", str(self.start_file),
            "--algorithm", self.algorithm,
            "--samples", "1" if warm else str(self.block),
            "--seed", str(self.seed * LAB_STRIDE),
            "--out-dir", str(job_dir),
            *LAB_SIM,
        ]

    def check(self, job_dir: Path, summary: str) -> tuple[dict, list[str]]:
        with open(job_dir / "campaign.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        problems = []
        not_converged = [r["seed"] for r in rows if r["converged"] != "yes"]
        if not_converged:
            problems.append(f"runs with seeds {', '.join(not_converged)} did not converge")
        durations = [float(r["duration"]) for r in rows]
        counts = {
            "runs": len(rows),
            "meetings": sum(int(r["meetings"]) for r in rows),
            "exchanges": sum(int(r["exchanges"]) for r in rows),
            "meetings_to_equilibrium": sum(int(r["meetings_to_equilibrium"]) for r in rows),
            "steps": sum(round(d / DT) for d in durations),
            "sim_s": sum(durations),
        }
        if _summary_fields(summary).get("runs") != str(len(rows)):
            problems.append("summary run count differs from campaign.csv")
        return counts, problems


class LabCoverage(LabWorkload):
    name = "lab-coverage"
    algorithm = "gossip-coverage"
    block = 24


class LabLloyd(LabWorkload):
    name = "lab-lloyd"
    algorithm = "gossip-lloyd"
    block = 16  # the first 16 seeds of the coverage block; Lloyd runs are longer


class Open60x16(Workload):
    name = "open-60x16"
    artifacts = ("trace.csv", "final.partition", "summary.txt")

    def setup(self) -> None:
        pkg = self.pkg
        self.grid_file = self.out_dir / f"open-{OPEN_SIDE}x{OPEN_SIDE}.grid"
        self.grid_file.write_text(("." * OPEN_SIDE + "\n") * OPEN_SIDE)
        self.graph = pkg.load_environment(str(self.grid_file))
        # the command line rebuilds this start from --partition-seed
        pkg.random_start(self.graph, OPEN_ROBOTS, self.seed)

    def argv(self, job_dir: Path, warm: bool) -> list[str]:
        return [
            "run", str(self.grid_file),
            "--n", str(OPEN_ROBOTS),
            "--partition-seed", str(self.seed),
            "--seed", str(self.seed),
            "--dest-mode", "boundary",
            "--max-time", "20" if warm else str(OPEN_HORIZON),
            "--out-dir", str(job_dir),
        ]

    def check(self, job_dir: Path, summary: str) -> tuple[dict, list[str]]:
        pkg = self.pkg
        fields = _summary_fields(summary)
        problems = []
        final = pkg.parse_partition((job_dir / "final.partition").read_text(), self.graph.n)
        try:
            final.validate(self.graph)
        except pkg.PartitionError as exc:
            problems.append(f"final partition invalid: {exc}")
        else:
            phi = pkg.PhiWeights.uniform(self.graph.n)
            if repr(pkg.h_exp(self.graph, final, phi)) != fields.get("final_cost"):
                problems.append("final_cost does not match the final partition")
        with open(job_dir / "trace.csv", newline="") as fp:
            events = sum(1 for _ in fp) - 1
        sim_s = float(fields["wall_time"])
        counts = {
            "runs": 1,
            "meetings": int(fields["meetings"]),
            "exchanges": int(fields["exchanges"]),
            "meetings_to_equilibrium": int(fields["meetings_to_equilibrium"]),
            "steps": round(sim_s / DT),
            "sim_s": sim_s,
            "events": events,
        }
        return counts, problems


WORKLOADS = {w.name: w for w in (LabCoverage, LabLloyd, Open60x16)}


# ---- measurement ----


def measure_setup(workload: Workload, times: list[float]) -> None:
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)


def repeat(
    workload: Workload, checker: Checker, seconds: float, label: str,
    around=contextlib.nullcontext, each=None,
) -> list[Rep]:
    """Closed loop: at least one repetition, and another only while it
    should end inside the window of ``seconds``."""
    reps: list[Rep] = []
    started = time.perf_counter()
    while True:
        rep = workload.run_once(workload.out_dir / "job", around=around)
        checker.add(rep, f"{label} {len(reps)}")
        reps.append(rep)
        if each is not None:
            each(rep)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r.wall_s for r in reps) > seconds:
            return reps


def load_reference() -> dict:
    """Artifact digests and counts of the seed commit, by workload and seed."""
    path = HERE / "reference.json"
    return json.loads(path.read_text())["outputs"] if path.is_file() else {}


class Checker:
    """Collects failed repetitions and consistency problems."""

    def __init__(self, workload: Workload, reference: dict):
        self.expected = reference.get(workload.name, {}).get(str(workload.seed))
        self.first: Rep | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Rep, label: str) -> None:
        self.attempted += 1
        problems = list(rep.problems)
        if self.expected is not None:
            for name, digest in rep.digests.items():
                if self.expected["digests"].get(name) != digest:
                    problems.append(f"{name} differs from the reference output")
            if rep.counts and rep.counts != self.expected["counts"]:
                problems.append("counts differ from the reference output")
        if self.first is None:
            self.first = rep
        else:
            if rep.digests != self.first.digests:
                problems.append("artifacts differ between repetitions")
            if rep.counts != self.first.counts:
                problems.append("counts differ between repetitions")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def note(self, problem: str) -> None:
        self.problems.append(problem)


def end_to_end(
    workload: Workload, checker: Checker, seconds: float, setup_times: list
) -> tuple[dict, dict]:
    reps = repeat(workload, checker, seconds, "repetition")
    measure_setup(workload, setup_times)
    wall = statistics.median(r.wall_s for r in reps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a run without artifacts has no meeting count; it is not correct either
    meetings = reps[0].counts.get("meetings") or 1
    metrics = {
        "ms_per_meeting": (1000.0 * wall / meetings, "ms"),
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        # not gated: the simulated length of a run tracks its host time less
        # closely than its meeting count does, so this varies more by seed
        "sim_s_per_host_s": (reps[0].counts.get("sim_s", 0.0) / wall, "s/s"),
    }
    return metrics, {"repetition_walls": [r.wall_s for r in reps]}


SPAN_METRICS = (
    ("exchange.optimal_two_partition", True),
    ("exchange.assign_sides", True),
    ("graph.region_distance_matrix", True),
    ("graph.shortest_path", True),
    ("graph.neighborhood", True),
    ("partition.centroid_and_cost", True),
    ("partition.is_pairwise_optimal", True),
    ("partition.is_centroidal_voronoi", True),
    ("lloyd.gossip_lloyd_exchange", True),
    ("lloyd.is_gossip_lloyd_fixed_point", True),
    ("sim.step", True),
    ("sim.eligible_pairs", True),
    ("sim.run", True),
    ("campaign.run_campaign", False),
    ("campaign.write", False),
    ("cli.main", False),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: Workload, checker: Checker, seconds: float) -> dict:
    base = workload.run_once(workload.out_dir / "job")
    checker.add(base, "untraced repetition")
    tracer = Tracer(workload.pkg)
    summaries = []

    def summarise(rep: Rep) -> None:
        summary = tracer.summary(tracer.end_run())
        summary["counts"] = dict(tracer.counts)
        summaries.append(summary)

    with tracer:
        reps = repeat(workload, checker, seconds, "traced repetition", tracer.recording, summarise)
    tracer.save(workload.out_dir / "spans.npz")
    # a renamed or removed function leaves its metrics at 0 rather than
    # failing the run: the per-layer figures are unbounded attributions
    for span in tracer.missing:
        print(f"# trace target not found: {span}")

    def deterministic(s):
        return {k: v["calls"] for k, v in s["spans"].items()}, s["counts"], s["meeting_scans"]

    for k, s in enumerate(summaries[1:], 1):
        if deterministic(s) != deterministic(summaries[0]):
            checker.note(f"traced repetition {k}: span counts differ from repetition 0")
    order = sorted(range(len(reps)), key=lambda k: reps[k].wall_s)
    pick = order[(len(order) - 1) // 2]
    rep, s = reps[pick], summaries[pick]
    spans, counts = s["spans"], s["counts"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0})

    if span("sim.step")["calls"] != base.counts.get("steps"):
        checker.note("traced sim.step calls differ from the steps in the artifacts")
    for key in ("meetings", "exchanges"):
        if counts.get(f"sim.{key}", 0) != base.counts.get(key):
            checker.note(f"traced sim.{key} differ from the artifacts")
    unattributed = rep.wall_s - s["root_s"]
    if abs(s["self_total_s"] + unattributed - rep.wall_s) > 1e-6:
        checker.note("self times plus unattributed_s do not add up to the traced wall")

    metrics: dict[str, tuple[float, str]] = {}
    for name, with_calls in SPAN_METRICS:
        if with_calls:
            metrics[f"{name}.calls"] = (span(name)["calls"], "count")
        metrics[f"{name}.self_s"] = (span(name)["self_s"], "s")
    scan = span("exchange.optimal_two_partition")
    pairs = counts.get("exchange.optimal_two_partition.pairs", 0)
    meetings = counts.get("sim.meetings", 0)
    metrics.update({
        "exchange.optimal_two_partition.pairs": (pairs, "count"),
        "exchange.optimal_two_partition.union_max": (
            counts.get("exchange.optimal_two_partition.union_max", 0), "count"),
        "exchange.optimal_two_partition.improved_ratio": (
            _ratio(counts.get("exchange.optimal_two_partition.improved", 0), scan["calls"]), "ratio"),
        "exchange.optimal_two_partition.pairs_per_s": (_ratio(pairs, scan["self_s"]), "1/s"),
        "graph.region_distance_matrix.cells": (
            counts.get("graph.region_distance_matrix.cells", 0), "count"),
        "lloyd.gossip_lloyd_exchange.moved_ratio": (
            _ratio(counts.get("lloyd.gossip_lloyd_exchange.moved", 0),
                   span("lloyd.gossip_lloyd_exchange")["calls"]), "ratio"),
        "sim.meetings": (meetings, "count"),
        "sim.exchanges": (counts.get("sim.exchanges", 0), "count"),
        "sim.exchange_ratio": (_ratio(counts.get("sim.exchanges", 0), meetings), "ratio"),
        "sim.scan_ratio": (_ratio(s["meeting_scans"], meetings), "ratio"),
        "unattributed_s": (unattributed, "s"),
        "trace.wall_s": (rep.wall_s, "s"),
        "trace.overhead_s": (rep.wall_s - base.wall_s, "s"),
        "trace.spans": (s["span_count"], "count"),
    })
    print(f"# traced repetitions: {len(reps)}; spans written to {workload.out_dir / 'spans.npz'}")
    return metrics


# ---- environment record ----


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gossipcover").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment_record() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---- main ----


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    os.chdir(ROOT)  # relative paths in argv and artifacts resolve against the checkout
    pkg = import_package()
    env = environment_record()
    env["loadavg_before"] = os.getloadavg()

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](pkg, args.seed, out_dir)
    setup_times: list[float] = []
    measure_setup(workload, setup_times)
    checker = Checker(workload, load_reference())
    if checker.expected is None:
        print(f"# no reference output for seed {args.seed}: artifacts checked between repetitions only")

    warm = workload.run_once(out_dir / "warm", warm=True)
    if warm.problems:
        checker.note("warm-up: " + "; ".join(warm.problems))
    if args.trace:
        metrics, extra = per_layer(workload, checker, args.seconds), {}
    else:
        measure_setup(workload, setup_times)
        metrics, extra = end_to_end(workload, checker, args.seconds, setup_times)
    env["loadavg_after"] = os.getloadavg()

    failed_frac = checker.failed / checker.attempted
    correct = not checker.problems
    for problem in checker.problems:
        print(f"# FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for name, value in extra.items():
        print(f"# {name} {value!r}")
    # failed_frac is 0 on a correct program, and a gated metric must never
    # be 0; failures are counted in "attempted" and "failed" instead
    listed = set(metrics) if args.trace else set(GATED)
    metrics["failed_frac"] = (failed_frac, "ratio")
    printed = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        note = "" if name in listed else "  (printed, not gated)"
        print(f"{name:48s} {value!r:>24} {unit}{note}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: m for name, m in printed.items() if name in listed},
    }
    first = checker.first
    record = {
        **result,
        "metrics": printed,
        "environment": env,
        "extra": extra,
        "problems": checker.problems,
        "output": {"digests": first.digests, "counts": first.counts} if first else None,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
