"""Measure a baseline: two sets of benchmark runs, their spread and their
agreement, the traced per-layer breakdown and the self-test, with provenance,
in one JSON file.

    python3 bench/baseline.py

Runs `run.py --trace 0` on every workload once per seed, first with seeds
1..10 (set 1), then, after set 1 has finished on every workload, with seeds
11..20 (set 2).  Per set and end-to-end metric it reports the ten values,
their median and quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, checked against the metric's bound in BENCHMARK.json and
against a third of it.  It also reports the gap between the two sets'
medians, |m2 - m1| / m1, checked against the same bound.  It then runs the
self-test (selftest.py) and one traced in-process run of every job on its
own, so per-job counts and shapes sit next to the workload totals.  The
result goes to results/baseline.json; the exit code is non-zero when a run
failed, a spread or a gap is outside its bound, or the self-test failed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import inproc
from selftest import check_workload
from workloads import HERE, ROOT, WORKLOADS, job_key, load_digests

SETS = (range(1, 11), range(11, 21))


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit, src_clean = None, None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
        src_clean = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                                   cwd=ROOT).returncode == 0
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_matches_commit": src_clean,
        "measured_at_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def bench_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric["bound"],
            "within_bound": spread <= metric["bound"],
            "below_third_of_bound": spread < metric["bound"] / 3,
            "values": values,
        }
    return out


def per_job_trace(jobs: list[list[str]]) -> dict:
    digests = load_digests()
    failures = []

    def report(args, error):
        if error:
            failures.append(f"syz {job_key(args)}: {error}")

    out = {}
    for args in jobs:
        rec = inproc(args, True, digests, report)
        out[job_key(args)] = {"elapsed_s": rec["elapsed_s"],
                              **{k: v for k, v in rec["layers"].items() if v}}
    if failures:
        sys.exit(f"traced jobs failed: {failures}")
    return out


def run_set(seeds, spec: dict) -> dict:
    """One run per seed on every workload, with the spread of each metric."""
    out = {}
    for workload in WORKLOADS:
        runs = [bench_run(workload, seed, spec["run_seconds"]) for seed in seeds]
        out[workload] = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": spread_table(runs, spec),
        }
        for name, m in out[workload]["end_to_end"].items():
            print(f"{workload:18} {name:12} median {m['median']:.4f} {m['unit']:3}"
                  f" spread {m['spread']:.2%} (bound {m['bound']:.0%})"
                  f"{'' if m['below_third_of_bound'] else '  above a third of the bound'}"
                  f"{'' if m['within_bound'] else '  OUTSIDE THE BOUND'}", flush=True)
    return out


def agreement(first: dict, second: dict) -> dict:
    """Gap between the two sets' medians, as a share of the first's."""
    out = {}
    for name, m1 in first["end_to_end"].items():
        m2 = second["end_to_end"][name]
        gap = abs(m2["median"] - m1["median"]) / m1["median"]
        out[name] = {"median_1": m1["median"], "median_2": m2["median"], "gap": gap,
                     "bound": m1["bound"], "within_bound": gap <= m1["bound"]}
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"provenance": provenance(), "run_seconds": spec["run_seconds"], "workloads": {}}
    sets = [run_set(seeds, spec) for seeds in SETS]
    ok = True
    for workload in WORKLOADS:
        runs = [s[workload] for s in sets]
        entry = {"sets": runs, "agreement": agreement(*runs)}
        ok = ok and all(r["correct"] and not r["failed"] for r in runs)
        ok = ok and all(m["within_bound"] for r in runs for m in r["end_to_end"].values())
        ok = ok and all(m["within_bound"] for m in entry["agreement"].values())
        for name, m in entry["agreement"].items():
            print(f"{workload:18} {name:12} set medians {m['median_1']:.4f} / {m['median_2']:.4f}"
                  f" gap {m['gap']:.2%} (bound {m['bound']:.0%})"
                  f"{'' if m['within_bound'] else '  OUTSIDE THE BOUND'}", flush=True)
        problems, entry["traced"] = check_workload(workload)
        entry["per_job_traced"] = per_job_trace(WORKLOADS[workload])
        ok = ok and not problems
        print(f"{workload:18} self-test {'ok' if not problems else problems}", flush=True)
        result["workloads"][workload] = entry
    out = HERE / "results" / "baseline.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
