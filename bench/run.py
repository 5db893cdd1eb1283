"""Benchmark driver for the `syz` CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  A workload is a fixed list of jobs
(workloads.py); the seed only permutes their order.  Each job is one fresh
`python -m syzygy.cli <args>` process, run one after another (a closed loop
with a single client).  The job list is run as whole passes, again and again
until --seconds have gone by (one pass at least), and every metric is the
median over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall time of probe processes that import syzygy.cli and
               load the registry, orientability and atom tables; a few run
               before the first pass and one after every job, so the probes
               sample the whole run
  wall_s       wall time of the pass's jobs, process spawn included
  cpu_s        user + system CPU of the pass's job processes
  peak_rss_mb  largest max-RSS of any single job process in the pass
CPU and RSS come from os.wait4 on each job, so one large job cannot hide a
later smaller one the way RUSAGE_CHILDREN's running maximum would.

--trace 1 reports the per-layer metrics: each job runs once traced and once
untraced, both in-process (inproc.py), so trace.overhead_s is the traced minus
the untraced in-process time.  Counts must repeat exactly across passes.

A job fails when it exits non-zero, runs past JOB_TIMEOUT_S, or its stdout
differs from the sha256 recorded in digests.json; traced jobs are held to the
same digests, so tracing cannot change an answer.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import HERE, ROOT, SRC, WORKLOADS, child_env, job_key, load_digests

JOB_TIMEOUT_S = 120
SETUP_PROBES_FIRST = 3
PROBE_CODE = (
    "import syzygy.cli as cli\n"
    "from syzygy.formal import atom_registry\n"
    "from syzygy.surfaces import orientability_table\n"
    "cli.default_registry(); orientability_table(); atom_registry()\n"
)
PASS_SUMMARY = ("wall_s", "cpu_s", "peak_rss_mb", "cli.traced_s", "trace.overhead_s")


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv: list[str]) -> Child:
    """Run one process to completion, collecting its output and its own
    rusage; kill it once JOB_TIMEOUT_S seconds have passed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = bytearray(), bytearray()
    bufs = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + JOB_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 65536)
                    if chunk:
                        bufs[key.fd] += chunk
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        # leave no child behind, even when the driver itself is interrupted
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        stdout=bytes(out),
        stderr=bytes(err),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        timed_out=timed_out,
    )


def job_error(child: Child, digest: str | None, expected: str) -> str | None:
    """Why a job failed, or None when it succeeded with the recorded output."""
    if child.timed_out:
        return f"timed out after {JOB_TIMEOUT_S}s"
    if child.code != 0:
        tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {child.code} {tail}"
    if digest != expected:
        return f"stdout sha256 {digest} differs from the recorded {expected}"
    return None


def setup_probe() -> float:
    child = run_child([sys.executable, "-c", PROBE_CODE])
    if child.code != 0:
        sys.exit(f"set-up probe failed: {child.stderr.decode('utf-8', 'replace')}")
    return child.wall_s


def untraced_pass(jobs, digests, report, probes) -> dict:
    wall, cpu, rss = 0.0, 0.0, 0.0
    for args in jobs:
        child = run_child([sys.executable, "-m", "syzygy.cli", *args])
        digest = hashlib.sha256(child.stdout).hexdigest()
        report(args, job_error(child, digest, digests[job_key(args)]))
        wall += child.wall_s
        cpu += child.cpu_s
        rss = max(rss, child.maxrss_mb)
        probes.append(setup_probe())
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def inproc(args, traced: bool, digests, report) -> dict:
    """One in-process run of a job (inproc.py), held to the recorded digest."""
    child = run_child([sys.executable, str(HERE / "inproc.py"), "1" if traced else "0", *args])
    record = {"sha256": None, "elapsed_s": 0.0, "layers": {}}
    if child.code == 0 and not child.timed_out:
        record = json.loads(child.stdout.decode("utf-8").splitlines()[-1])
        child.code = record["exit"]
    report(args, job_error(child, record["sha256"], digests[job_key(args)]))
    return record


def traced_pass(jobs, digests, report) -> dict:
    layers: dict = {}
    traced_s = untraced_s = 0.0
    for args in jobs:
        rec = inproc(args, True, digests, report)
        traced_s += rec["elapsed_s"]
        untraced_s += inproc(args, False, digests, report)["elapsed_s"]
        for name, value in rec["layers"].items():
            if ".max_" in name:
                layers[name] = max(layers.get(name, 0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    layers["cli.traced_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not (SRC / "syzygy" / "cli.py").is_file():
        sys.exit(f"no syzygy sources under {SRC}; run from a source checkout")
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    digests = load_digests()
    jobs = WORKLOADS[opts.workload]
    rng = random.Random(opts.seed)

    attempted = failed = 0

    def report(args, error):
        nonlocal attempted, failed
        attempted += 1
        if error:
            failed += 1
            print(f"FAILED syz {job_key(args)}: {error}", file=sys.stderr)

    probes = []
    if not opts.trace:
        setup_probe()  # warm-up: writes bytecode caches
        probes += [setup_probe() for _ in range(SETUP_PROBES_FIRST)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < opts.seconds:
        order = rng.sample(jobs, len(jobs))
        if opts.trace:
            passes.append(traced_pass(order, digests, report))
        else:
            passes.append(untraced_pass(order, digests, report, probes))

    correct = failed == 0
    values = {"setup_s": statistics.median(probes)} if probes else {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            continue
        samples = [p[name] for p in passes]
        values[name] = statistics.median(samples)
        if metric["unit"] == "count" and len(set(samples)) > 1:
            correct = False
            print(f"count {name} differs across passes: {samples}", file=sys.stderr)

    print(
        f"# workload={opts.workload} seed={opts.seed} trace={opts.trace} passes={len(passes)}"
        f" python={platform.python_version()} nproc={os.cpu_count()} machine={platform.machine()}"
    )
    for i, p in enumerate(passes, 1):
        print(f"# pass {i}: " + " ".join(f"{k}={p[k]:.4f}" for k in PASS_SUMMARY if k in p))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
