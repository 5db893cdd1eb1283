"""The benchmark's workloads: each is a fixed list of `syz` jobs.

A job is one command line of the `syz` CLI, run as a fresh
`python -m syzygy.cli <args>` process.  README.md explains why each
workload was chosen and which layer it stresses.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = {
    # Picard-lattice enumeration and configuration counting; no homology.
    "cubic-lattice": [
        ["cubic"],
        ["lines", "--blowups", "8"],
        ["conics", "--blowups", "8"],
        ["graph", "--degree", "3"],
    ],
    # Large free (unannotated) ruled complexes: dense SNF and solve dominate.
    "ruled-free": [
        ["ruled", "--points", "6", "--e-max", "5", "--r-max", "5"],
        ["ruled", "--points", "7", "--e-max", "5", "--r-max", "5"],
        ["five-term", "--points", "6", "--e-max", "5"],
    ],
    # Annotated (Z/2-row) Cremona complexes, the formal calculus, spectral
    # grids and the CW validator; mostly short jobs, so set-up weighs heavily.
    "cremona-annotated": [
        ["cremona", "--e-max", "60"],
        ["cremona"],
        ["schur", "--target", "pgl2"],
        ["schur", "--target", "pgl3"],
        ["schur", "--target", "quadric"],
        ["schur", "--target", "k2prime"],
        ["syzygy", "bl3", "--check"],
    ],
}

# The layer each workload is built to stress; selftest.py checks that it has
# the largest self-time share in the workload's traced run.
TARGET_LAYER = {
    "cubic-lattice": "lattice",
    "ruled-free": "smith",
    "cremona-annotated": "smith",
}


def job_key(args: list[str]) -> str:
    return " ".join(args)


def child_env() -> dict:
    """Environment for every child process: the package from src/, and no
    registry override, so each job reads the shipped data tables."""
    env = {k: v for k, v in os.environ.items() if k not in ("SYZ_REGISTRY", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)
