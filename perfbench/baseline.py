"""Run the benchmark over many seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 20 --out perfbench/out/summary.json
    python3 perfbench/baseline.py --seeds 0-9 --compare perfbench/baseline.json

For every workload in BENCHMARK.json (or those given with --workloads) it
runs ``run.py`` once per seed, one process at a time, plus one traced run on
the first seed. Per end-to-end metric it prints the median, the quartiles
and the spread (interquartile distance over the median) next to the bound
in BENCHMARK.json. ``--compare`` adds the ratio of each median to the one in
an earlier summary, such as the committed ``baseline.json`` of the seed
commit. ``--record-reference`` stores the artifact digests and counts of
every correct run in ``reference.json``, which ``run.py`` then checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    detail = HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    result["record"] = json.loads(detail.read_text())
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path, help="write the summary here")
    parser.add_argument("--compare", type=Path, help="earlier summary to compare medians with")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text()) if reference_path.is_file() else {}
    outputs = reference.setdefault("outputs", {})

    summary: dict = {"workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_one(workload, seed, seconds, 0)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
            output = result["record"]["output"]
            if args.record_reference and result["correct"] and output:
                # every reference output must come from the same sources
                digest = result["record"]["environment"]["source_sha256"]
                if reference.setdefault("source_sha256", digest) != digest:
                    raise SystemExit("reference.json holds outputs of other sources")
                outputs.setdefault(workload, {})[str(seed)] = output
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  failed_frac        {failed / attempted!r} ({failed} of {attempted})")
        entry = {
            "seconds": seconds,
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {},
        }
        # every metric run.py printed, gated or not
        for name, first in results[0]["record"]["metrics"].items():
            stats = quartiles([r["record"]["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            entry["end_to_end"][name] = stats
            line = (
                f"  {name:18s} median={stats['median']:<12.6g} q1={stats['q1']:<12.6g} "
                f"q3={stats['q3']:<12.6g} spread={stats['spread']:.4f}"
            )
            if name in bounds:
                line += f" bound={bounds[name]} (third {bounds[name] / 3:.4f})"
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before and before["median"]:
                line += f" vs earlier x{stats['median'] / before['median']:.4f}"
            print(line, flush=True)
        if not args.no_trace:
            traced = run_one(workload, seeds[0], seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["environment"] = results[-1]["record"]["environment"]
        summary["workloads"][workload] = entry

    if args.out:
        # workloads summarised earlier into the same file are kept
        if args.out.is_file():
            kept = json.loads(args.out.read_text())["workloads"]
            summary["workloads"] = {**kept, **summary["workloads"]}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.record_reference:
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
