"""One-line mutants of the library, and a runner that shows which of them
tier-1 kills.

Run it by hand from the repository root:

    python tests/mutants.py

It copies src/, tests/, bench/ and pyproject.toml to a temporary directory,
applies each mutant there in turn, runs tier-1 on the copy with -x, and
prints each mutant's verdict: "killed" when tier-1 fails, "survived" when it
passes.  It exits 1 when a verdict is not the one the list expects.
pytest does not collect this file (its name has no test_ prefix), and
tests/test_tooling.py checks that each mutant's old text occurs exactly once
in its file, so the list cannot go stale silently.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (file under src/syzygy, old text, new text, expected verdict)
MUTANTS = [
    # sort the invariant factors instead of merging them into a chain
    ("smith.py", "    chain = _merge_invariant_factors(orders)", "    chain = sorted(orders)",
     "killed"),
    # a non-orientable cell's row-1 entry becomes H1 of its Aut+ group
    ("spectral.py", "            [entries[group]] = nonorientable_block_homology(1, sigma, H0, H0)",
     "            entries[group] = sigma.target", "killed"),
    # the finite -> torsion-free forced-zero rule turned off
    ("formal.py", "    if source.is_finite and target.is_torsion_free:", "    if False:", "killed"),
    # the divisible-source forced-zero rule limited back to finite targets
    ("formal.py", "    if source.is_divisible and not target.atoms:",
     "    if source.is_divisible and target.is_finite:", "killed"),
    # a group with cyclic summands read as divisible
    ("formal.py", "        return not self.cyclic and self.free_rank == 0 and not self.infinite",
     "        return self.free_rank == 0 and not self.infinite", "killed"),
    # the dp7 block's -3 set to 3
    ("spectral.py", '("dp8_blowdown", 0): [{0: -3}]', '("dp8_blowdown", 0): [{0: 3}]', "killed"),
    # order-2 rows of row 0 kept mod 4
    ("surfaces.py", "x % 2 if i in order2 else x", "x % 4 if i in order2 else x", "killed"),
    # the staircase bound plus 1
    ("surfaces.py", "staircase = {r: u.e_max + (u.r_max - r) for r",
     "staircase = {r: u.e_max + (u.r_max - r) + 1 for r", "killed"),
    # cremona_assemble's 3-reach forced to at least 1
    ("spectral.py", "for d in e21_bound.cyclic), default=0)",
     "for d in e21_bound.cyclic), default=0) or 1", "killed"),
    # row 0's reach one degree past the truncation
    ("surfaces.py", "    return range(1, u.r_max - 1)", "    return range(1, u.r_max)", "killed"),
    # converged_total checks only the current page for E-infinity
    ("spectral.py", "for r in range(self.page, min(self.box[0], self.box[1] + 1) + 1):",
     "for r in range(self.page, self.page + 1):", "killed"),
]

REPO = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
VERDICTS = {0: "survived", 1: "killed"}  # any other exit code is an error of the run


def main() -> int:
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(REPO / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(REPO / "pyproject.toml", copy)
        # no bytecode: a reverted file must not reuse its mutant's cache
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for file, old, new, expected in MUTANTS:
            path = copy / "src" / "syzygy" / file
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                raise SystemExit(f"{file}: {old!r} does not occur exactly once")
            path.write_text(source.replace(old, new), encoding="utf-8")
            try:
                run = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
            finally:
                path.write_text(source, encoding="utf-8")
            verdict = VERDICTS.get(run.returncode, f"error (exit {run.returncode})")
            lines = run.stdout.strip().splitlines() or [""]
            # -x stops at the first failure, which the short summary names
            killer = next((line.split()[1] for line in lines
                           if line.startswith(("FAILED ", "ERROR "))), "")
            unexpected += verdict != expected
            mark = "" if verdict == expected else f"  (expected {expected})"
            print(f"{verdict:9} {file}: {new.strip()}  [{lines[-1]}] {killer}{mark}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
