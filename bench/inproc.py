"""Run one `syz` job inside this process, optionally traced, and print one
JSON record: exit code, sha256 of the job's stdout, in-process time and, when
traced, per-layer call counts, self times and size counters.

    python3 bench/inproc.py <0|1> <syz arguments...>

Tracing wraps the public layer boundaries listed in SPANS.  Each wrapper
records a span (name, start, end, parent); a span's self time is its duration
minus the time its child spans cover.  Inner helpers such as `mat_vec`, `_mk`
or the SNF's row and column steps run hundreds of thousands of times per job
and are deliberately not wrapped, so tracing costs little.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stdout

from workloads import SRC

# metric prefix -> the functions it covers, as "module:qualname".
SPANS = {
    "lattice.search": ["lattice:BlowupLattice._search"],
    "lattice.count_configurations": ["lattice:BlowupLattice.count_fibration_configurations"],
    "lattice.incidence_graph": ["lattice:BlowupLattice.incidence_graph"],
    "surfaces.row0_complex": ["surfaces:row0_complex"],
    "surfaces.boundary": ["surfaces:boundary"],
    "surfaces.enumerate_generators": ["surfaces:enumerate_generators"],
    "smith.snf": ["smith:smith_normal_form"],
    "smith.solve": ["smith:solve"],
    "smith.mat_mul": ["smith:mat_mul"],
    "smith.presented_homology": ["smith:presented_homology"],
    "complexes.homology": ["complexes:IntegerChainComplex.homology"],
    "complexes.validate": ["complexes:RegularCWComplex.validate"],
    "formal.kernel": ["formal:kernel"],
    "formal.cokernel": ["formal:cokernel"],
    "formal.homology_at": ["formal:homology_at"],
    "formal.solve_extension": ["formal:solve_extension"],
    "spectral.row1_complex": ["spectral:ruled_row1_complex", "spectral:cremona_row1_complex"],
    "spectral.turn_page": ["spectral:SpectralGrid.turn_page"],
    "spectral.registry_load": ["spectral:KnownHomologyRegistry.load"],
}


def _count_snf(counters, args, kwargs, result):
    a = args[0]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    counters["entries"] += rows * cols
    counters["max_rows"] = max(counters["max_rows"], rows)
    counters["max_cols"] = max(counters["max_cols"], cols)


def _count_boundary(counters, args, kwargs, result):
    counters["entries"] += len(result.rows) * len(result.columns)


def _count_presented(counters, args, kwargs, result):
    rel_mid = kwargs.get("relations_mid", args[4] if len(args) > 4 else None)
    rel_target = kwargs.get("relations_target", args[5] if len(args) > 5 else None)
    if rel_mid or rel_target:
        counters["annotated_calls"] += 1


# metric prefix -> (counter names, hook run on every completed call)
COUNTERS = {
    "smith.snf": (("entries", "max_rows", "max_cols"), _count_snf),
    "surfaces.boundary": (("entries",), _count_boundary),
    "smith.presented_homology": (("annotated_calls",), _count_presented),
}


class Tracer:
    """Spans kept in memory; summarized once the job has finished."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {
            name: dict.fromkeys(names, 0) for name, (names, _) in COUNTERS.items()
        }

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = COUNTERS.get(name, (None, None))[1]
        counters = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap each listed function everywhere it is bound: on its class for
        methods, and in every syzygy module that imported it by name."""
        modules = [m for n, m in sys.modules.items() if n == "syzygy" or n.startswith("syzygy.")]
        for name, targets in SPANS.items():
            for target in targets:
                mod_name, qualname = target.split(":")
                owner = sys.modules[f"syzygy.{mod_name}"]
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                elif outer:
                    setattr(owner, attr, self.wrap(name, raw))
                else:
                    wrapped = self.wrap(name, raw)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, wrapped)

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
        for name, counters in self.counters.items():
            for key, value in counters.items():
                out[f"{name}.{key}"] = value
        out["trace.spans"] = len(self.spans)
        return out


def run_job(argv: list[str], traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import syzygy.cli as cli

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    buf = io.StringIO()
    code = 0
    start = time.perf_counter()
    with redirect_stdout(buf):
        try:
            cli.main.main(args=argv, prog_name="syz", standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    elapsed = time.perf_counter() - start
    return {
        "exit": code,
        "sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest(),
        "elapsed_s": elapsed,
        "layers": tracer.summary() if tracer else {},
    }


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("0", "1"):
        sys.exit("usage: inproc.py <0|1> <syz arguments...>")
    print(json.dumps(run_job(sys.argv[2:], sys.argv[1] == "1")))
