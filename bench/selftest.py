"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py

For each workload, runs `run.py --trace 1` twice with different seeds, one
pass each, and checks that:
  * every count metric (*.calls, *.entries, *.max_*, *.annotated_calls) is
    identical in both runs, so counts can back a claim exactly;
  * both runs are correct (every job, traced or not, printed the recorded
    bytes);
  * the workload's target layer (workloads.TARGET_LAYER) has the largest
    self-time share of cli.traced_s;
  * the workload-design predictions hold: no smith work on cubic-lattice, no
    annotated presented-homology calls on ruled-free, and annotated calls plus
    non-zero formal-calculus time on cremona-annotated.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from workloads import HERE, ROOT, TARGET_LAYER, WORKLOADS

LAYERS = ("lattice", "surfaces", "smith", "complexes", "formal", "spectral")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_shares(metrics: dict) -> dict:
    total = metrics["cli.traced_s"]["value"]
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, m in metrics.items():
        layer = name.split(".")[0]
        if layer in shares and name.endswith(".self_s"):
            shares[layer] += m["value"] / total
    return shares


def design_checks(workload: str, metrics: dict) -> list[str]:
    """The predictions the workload was built on, as failure messages."""
    value = {name: m["value"] for name, m in metrics.items()}
    problems = []
    if workload == "cubic-lattice":
        busy = [n for n, v in value.items() if n.startswith("smith.") and v]
        if busy:
            problems.append(f"smith work on cubic-lattice: {busy}")
    if workload == "ruled-free" and value["smith.presented_homology.annotated_calls"]:
        problems.append("ruled-free made annotated presented-homology calls")
    if workload == "cremona-annotated":
        if not value["smith.presented_homology.annotated_calls"]:
            problems.append("cremona-annotated made no annotated presented-homology calls")
        if not any(v for n, v in value.items() if n.startswith("formal.") and n.endswith("_s")):
            problems.append("cremona-annotated spent no time in the formal calculus")
    return problems


def check_workload(workload: str) -> tuple[list[str], dict]:
    runs = [traced_run(workload, seed) for seed in (1, 2)]
    problems = []
    for i, run in enumerate(runs, 1):
        if not run["correct"] or run["failed"]:
            problems.append(f"traced run {i} is not correct ({run['failed']} failed jobs)")
    first, second = (r["metrics"] for r in runs)
    for name, m in first.items():
        if m["unit"] == "count" and m["value"] != second[name]["value"]:
            problems.append(f"{name} differs: {m['value']} vs {second[name]['value']}")
    shares = layer_shares(first)
    top = max(shares, key=shares.get)
    if top != TARGET_LAYER[workload]:
        problems.append(f"largest self-time share is {top}, expected {TARGET_LAYER[workload]}")
    problems += design_checks(workload, first)
    return problems, {"metrics": first, "layer_shares": shares, "problems": problems}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        problems, result = check_workload(workload)
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["layer_shares"].items())
        print(f"{workload}: {'ok' if not problems else 'FAILED'} | self-time shares: {shares}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
