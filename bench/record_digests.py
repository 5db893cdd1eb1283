"""Record the sha256 of every benchmark job's stdout into digests.json.

    python3 bench/record_digests.py

Each job runs twice and must print identical bytes with exit code 0.  The
digests define a correct answer for run.py, so re-record them only in a change
that alters an answer on purpose, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import run_child
from workloads import DIGESTS, WORKLOADS, job_key


def main() -> int:
    digests = {}
    for jobs in WORKLOADS.values():
        for args in jobs:
            seen = set()
            for _ in range(2):
                child = run_child([sys.executable, "-m", "syzygy.cli", *args])
                if child.code != 0 or child.timed_out:
                    sys.exit(f"syz {job_key(args)} failed: {child.stderr.decode('utf-8', 'replace')}")
                seen.add(hashlib.sha256(child.stdout).hexdigest())
            if len(seen) != 1:
                sys.exit(f"syz {job_key(args)} is not deterministic: {sorted(seen)}")
            digests[job_key(args)] = seen.pop()
            print(f"{digests[job_key(args)]}  syz {job_key(args)}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
