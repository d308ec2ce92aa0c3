"""Golden outputs: the sha256 of every `gossipcover run` artifact for a few
small configurations, pinned so that a change meant to keep the answers
(a speedup, a refactor) must reproduce them byte for byte.

The digests were recorded with the code before the per-robot incumbent
cache, the settled-pair skips and the out-of-contact meeting shortcut.
"""

import hashlib
import random

import pytest

from conftest import GRID_2X5
from gossipcover import main
from util_oracle import off_lattice, random_off_lattice_graph

ARTIFACTS = ("trace.csv", "final.partition", "summary.txt")

FAST_FLAGS = [
    "--speed", "0.5", "--rcomm", "1.5", "--lambda", "0.5", "--tau", "1.0",
    "--dt", "0.5", "--convergence-window", "5.0",
]


def grid_2x5(tmp_path, algorithm, partition_seed):
    env = tmp_path / "env.grid"
    env.write_text(GRID_2X5)
    return [str(env), "--n", "3", "--partition-seed", str(partition_seed),
            "--algorithm", algorithm, "--seed", "3", *FAST_FLAGS]


def obstacles_budget_5(tmp_path):
    return ["square-obstacles-12x12", "--n", "4", "--partition-seed", "2", "--seed", "8",
            "--budget", "5", "--dest-mode", "boundary", "--max-time", "3000", *FAST_FLAGS]


def off_lattice_edges(tmp_path):
    rng = random.Random(12)
    n, edges = random_off_lattice_graph(rng, 14)
    env = tmp_path / "env.edges"
    env.write_text(f"{n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges))
    phi = tmp_path / "env.phi"
    phi.write_text("".join(f"{v} {off_lattice(rng)!r}\n" for v in range(n)))
    r_comm = sum(w for _, _, w in edges) + 1.0
    return [str(env), "--phi", str(phi), "--n", "4", "--partition-seed", "4", "--seed", "5",
            "--rcomm", repr(r_comm), "--dest-mode", "boundary", "--max-time", "2000",
            "--convergence-window", "10"]


CASES = {
    "grid-2x5-coverage": (
        lambda tmp: grid_2x5(tmp, "gossip-coverage", 1),
        {
            "trace.csv": "874d2db0994a877d23e39a70de575ebd8652caa6fa7b851e7417ed75042ffefa",
            "final.partition": "50ed78d9f39d5a2286d50974c2d29162a7ca4b7a56e117e694a6540aad301496",
            "summary.txt": "1ed618024eefaa7fbec77df6aea3b7c5049eb2a7a41166c12f28d2806b042d42",
        },
    ),
    "grid-2x5-lloyd": (
        lambda tmp: grid_2x5(tmp, "gossip-lloyd", 3),
        {
            "trace.csv": "6927ccd8055496212cef06fa4b8100fd1c0f4feb62b36e91dcb2907b8885b7fe",
            "final.partition": "21b963e23d3628424f247e3cd4dd1e54e6a29eab73d06a49a13307585e047b2c",
            "summary.txt": "27827753a19f32e74db828c9c4ca8fda5276d96e617504cfb5eab014682d910c",
        },
    ),
    "square-obstacles-12x12-budget-5": (
        obstacles_budget_5,
        {
            "trace.csv": "e9767dae08c49cfc3283d1175216d1e533ea58498c2af8b7b2fbc067e5e460f3",
            "final.partition": "8d1a0e837928e187726c78e7c2fd1b3f2cb0b0ccf50b4bd7475d50fd207aafcf",
            "summary.txt": "3f432c30ca4641c0aa7cc280e899eff4a4c3fcf66a1064e2d6dbea8757e513fe",
        },
    ),
    "off-lattice-edges-phi": (
        off_lattice_edges,
        {
            "trace.csv": "27e0f7716679441bbfc200d2517a5c0152fc5186407accde721557e95b79f8a7",
            "final.partition": "c24b8a4f33a03cba80f5b2a37a31a818e7fd7a393069917132dfc66ddce0ecee",
            "summary.txt": "7abf636aa4f81a7a44eebbb089ef92dd3ee47af21303d3ec25b26448811fbef2",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_artifacts_match_golden_digests(name, tmp_path, capsys):
    make_args, expected = CASES[name]
    out_dir = tmp_path / "out"
    assert main(["run", *make_args(tmp_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {
        artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    assert digests == expected
