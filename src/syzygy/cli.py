"""Batch command-line front end: the `syz` console script, also run as
`python -m syzygy.cli`.

Every command reads its parameters, dispatches to the library, and prints a
deterministic report: JSON with stable key order, or an aligned text table.
Wall-clock duration is shown only in table mode so that identical requests
produce byte-identical JSON.

The command line is parsed with the standard library's argparse, so
importing this module loads nothing outside the standard library and this
package.  A command line the parser refuses exits 2, with argparse's usage
message on stderr; a request the library refuses prints an error JSON on
stdout and exits 1.  `--registry` names an alternative known-homology
registry; when it is absent the SYZ_REGISTRY environment variable is read,
and an empty or unset value means the shipped registry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, complexes, lattice, spectral, surfaces

SCHEMA_VERSION = 1


class ReportError(Exception):
    pass


def _lattice_from(degree, blowups):
    if (degree is None) == (blowups is None):
        raise ReportError("give exactly one of --degree or --blowups")
    n = 9 - degree if degree is not None else blowups
    if not 0 <= n <= 8:
        raise ReportError(f"blowup count {n} out of range [0, 8]")
    return lattice.BlowupLattice(n)


def _echo(line):
    """Write one line in one write, and flush it.  A reader that closes
    stdout early then interrupts a single write: unbuffered, it returns
    short and nothing follows; buffered, it raises BrokenPipeError, which
    main turns into exit 1."""
    sys.stdout.write(f"{line}\n")
    sys.stdout.flush()


def _emit(args, command, parameters, result, provenance=(), warnings=()):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "result": result,
        "provenance": list(provenance),
        "warnings": list(warnings),
    }
    if args.format == "json":
        _echo(json.dumps(report, sort_keys=True, indent=2))
    else:
        _echo(f"== {command} ==")
        for k, v in parameters.items():
            _echo(f"  param {k} = {v}")
        _render_table(result, indent=1)
        for w in warnings:
            _echo(f"  warning: {w}")
        for p in provenance:
            _echo(f"  note: {p}")
        dt = time.monotonic() - args.t0
        _echo(f"  ({dt:.3f}s)")
    return report


def _render_table(value, indent=0):
    pad = "  " * (indent + 1)
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                _echo(f"{pad}{k}:")
                _render_table(v, indent + 1)
            else:
                _echo(f"{pad}{k} = {v}")
    elif isinstance(value, list):
        for v in value:
            _render_table(v, indent)
    else:
        _echo(f"{pad}{value}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def default_registry():
    """The shared default registry, loaded once per process."""
    return spectral.default_registry()


def _registry(args):
    """The registry named by --registry, else by SYZ_REGISTRY, else the
    shared default.  A command reads it at most once, inside _run, so that
    a bad file is reported as the command's error JSON and commands that
    never read it do not depend on it."""
    path = args.registry if args.registry is not None else os.environ.get("SYZ_REGISTRY")
    return spectral.KnownHomologyRegistry.load(path) if path else default_registry()


def _run(args, command, parameters, fn):
    try:
        result, provenance, warnings = fn()
    except (ReportError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its one argument, quotes and all
        one_key = isinstance(exc, KeyError) and len(exc.args) == 1
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "error": str(exc.args[0]) if one_key else str(exc),
        }
        _echo(json.dumps(payload, sort_keys=True, indent=2))
        sys.exit(1)
    _emit(args, command, parameters, result, provenance, warnings)


def lines(args):
    """Enumerate the (-1)-classes."""
    def go():
        lat = _lattice_from(args.degree, args.blowups)
        cls = lat.enumerate_lines()
        return (
            {"count": len(cls), "classes": [list(c.coefficients) for c in cls]},
            [f"exhaustive box search over the {lat.n}-point lattice"],
            [],
        )
    _run(args, "lines", {"degree": args.degree, "blowups": args.blowups}, go)


def conics(args):
    """Enumerate the primitive fibration classes."""
    def go():
        lat = _lattice_from(args.degree, args.blowups)
        cls = lat.enumerate_conic_classes()
        return (
            {"count": len(cls), "classes": [list(c.coefficients) for c in cls]},
            [f"exhaustive box search over the {lat.n}-point lattice"],
            [],
        )
    _run(args, "conics", {"degree": args.degree, "blowups": args.blowups}, go)


def graph(args):
    """Incidence graph of the (-1)-classes at a pairing threshold."""
    def go():
        lat = _lattice_from(args.degree, args.blowups)
        g = lat.incidence_graph(lat.enumerate_lines(), args.threshold)
        data = g.to_json_dict()
        data["degree_sequence"] = g.degree_sequence()
        data["single_cycle"] = g.is_single_cycle()
        return data, [], []
    _run(args, "graph",
         {"degree": args.degree, "blowups": args.blowups, "threshold": args.threshold}, go)


def syzygy(args):
    """Build the elementary syzygy sphere of the three-point blowup."""
    def go():
        sphere, rep = surfaces.validated_sphere_bl3()
        result = {
            "vertices": len(sphere.cells_of_dim(0)),
            "edges": len(sphere.cells_of_dim(1)),
            "faces": len(sphere.cells_of_dim(2)),
            "euler_characteristic": sphere.euler_characteristic(),
            "all_faces_triangles": all(
                len(sphere.boundary[c.id]) == 3 for c in sphere.cells_of_dim(2)
            ),
            "homology": [str(sphere.homology(d)) for d in range(3)],
        }
        if args.check:
            result["valid"] = rep.valid
            result["failures"] = rep.failures + rep.link_failures
        return (
            result,
            ["vertices = rank-3 models: 6 contractions + 3 conic fibrations"],
            [],
        )
    _run(args, "syzygy", {"target": args.target, "check": args.check}, go)


def cubic(args):
    """Counting report for the cubic surface."""
    def go():
        report = lattice.cubic_summary()
        flags = report.pop("flags")
        return report, [], flags
    _run(args, "cubic", {}, go)


def _universe_params(args):
    return {"points": args.points, "e_max": args.e_max, "r_max": args.r_max}


def _wanted_rows(rows):
    """The rows named in a comma-separated --rows value; the empty string
    names none.  Only rows 0 and 1 are computed."""
    wanted = {int(r) for r in rows.split(",") if r != ""}
    if not wanted <= {0, 1}:
        raise ReportError(f"--rows takes rows 0 and 1 only, got {rows!r}")
    return wanted


def ruled(args):
    """Row homology for the ruled universe at finite truncation."""
    def go():
        u = surfaces.GeneratorUniverse.ruled(args.points, args.e_max, args.r_max)
        wanted = _wanted_rows(args.rows)
        result = {}
        warnings = []
        if 0 in wanted:
            surfaces.check_row0_squares_to_zero(u)
            result["boundary_squares_to_zero"] = True
            result["reduced_H0"] = str(surfaces.row0_reduced_h0(u))
            for i in range(1, u.r_max - 1):
                result[f"E_{{{i},0}}"] = str(surfaces.row0_homology(u, i))
        if 1 in wanted:
            row1 = spectral.ruled_row1_complex(u, _registry(args))
            result["E_{0,1}"] = str(spectral.row1_homology(row1, 0))
            result["E_{1,1}"] = str(spectral.row1_homology(row1, 1))
        return (
            result,
            ["coinvariant rows of the central-model complex over the fixed base"],
            warnings,
        )
    _run(args, "ruled", {**_universe_params(args), "rows": args.rows}, go)


def cremona(args):
    """Row homology and the final candidates for the plane's universe."""
    def go():
        u = surfaces.GeneratorUniverse.cremona(args.e_max, args.r_max)
        wanted = _wanted_rows(args.rows)
        warnings = []
        if args.points:
            warnings.append(
                "the classification over the plane has one class per configuration"
                " tag; --points is recorded but does not change the complex"
            )
        result = {}
        if 0 in wanted:
            surfaces.check_row0_squares_to_zero(u)
            result["boundary_squares_to_zero"] = True
            for i in range(1, u.r_max - 1):
                result[f"E_{{{i},0}}"] = str(surfaces.row0_homology(u, i))
        asm = spectral.cremona_assemble(_registry(args), u)
        if 1 in wanted:
            result["E_{0,1}"] = str(asm["E_{0,1}"])
            result["E_{1,1}"] = str(asm["E_{1,1}"])
            result["E_{2,1}_bound"] = str(asm["E_{2,1} bound"])
        result["relation"] = asm["relation"]
        result["E_{0,2}"] = str(asm["E_{0,2}"])
        result["H2_candidates"] = [str(c) for c in asm["candidates"]]
        return (
            result,
            ["final candidates from the edge value and the undetermined differential"],
            warnings,
        )
    _run(args, "cremona", {**_universe_params(args), "rows": args.rows}, go)


def schur(args):
    """Second homology derivations for the automorphism groups."""
    target = args.target

    def go():
        reg = _registry(args)
        if target in ("pgl2", "pgl3"):
            d = spectral.schur_pgl(2 if target == "pgl2" else 3, reg)
            return (
                {"group": d.group, "H2": str(d.value),
                 "sequence": d.sequence.render()},
                d.notes,
                [],
            )
        if target == "quadric":
            d = spectral.schur_aut_quadric(reg)
            return (
                {"group": d.group, "H2": str(d.value)},
                d.notes,
                [],
            )
        cands = spectral.k2_prime_candidates(reg)
        return (
            {"candidates": [str(c) for c in cands]},
            ["extension of Z/2 by K2(C) + Z/2; undetermined, both candidates kept"],
            [],
        )
    _run(args, "schur", {"target": target}, go)


def homology(args):
    """Homology of a CW-complex or chain-complex JSON file."""
    def go():
        obj = complexes.load_complex_file(args.path)
        if isinstance(obj, complexes.RegularCWComplex):
            cc = obj.chain_complex()
        else:
            cc = obj
        groups = [str(cc.homology(d)) for d in range(cc.top_degree + 1)]
        return (
            {"degrees": list(range(cc.top_degree + 1)), "homology": groups},
            [],
            [],
        )
    _run(args, "homology", {"path": args.path}, go)


def five_term_cmd(args):
    """The low-degree exact sequence of the ruled universe's grid."""
    def go():
        u = surfaces.GeneratorUniverse.ruled(args.points, args.e_max, r_max=5)
        seq = spectral.prop_s17_sequence(u, _registry(args))
        verdicts = [
            {"position": lbl, "verdict": v, "detail": d} for lbl, v, d in seq.check()
        ]
        return (
            {"sequence": seq.render(), "verdicts": verdicts},
            ["seven-term sequence of the first-quadrant grid at finite truncation"],
            [],
        )
    _run(args, "five-term", {"points": args.points, "e_max": args.e_max}, go)


def _existing_file(path):
    """The homology PATH: a readable file that exists, as given."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


_SHOW_DEFAULT = "(default: %(default)s)"


def _parser(prog=None):
    """The command line: global options, then one command with its own.
    No parser expands an option prefix (--thresh is refused)."""
    parser = argparse.ArgumentParser(
        prog=prog, description="Exact computations for central models of rational surfaces.",
        allow_abbrev=False,
    )
    parser.add_argument("--format", choices=["json", "table"], default="json",
                        help="Report format " + _SHOW_DEFAULT + ".")
    parser.add_argument("--registry", help="Path to an alternative known-homology registry"
                        " (JSON); default: $SYZ_REGISTRY, else the shipped one.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def lattice_command(name, run):
        sub = command(name, run)
        sub.add_argument("--degree", type=int, help="Anticanonical degree 9-n.")
        sub.add_argument("--blowups", type=int, help="Number n of blown-up points.")
        return sub

    lattice_command("lines", lines)
    lattice_command("conics", conics)
    lattice_command("graph", graph).add_argument("--threshold", type=int, default=1,
                                                 help=_SHOW_DEFAULT)

    sub = command("syzygy", syzygy)
    sub.add_argument("target", choices=["bl3"])
    sub.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                     help="Run the full validation, including link homology.")

    command("cubic", cubic)

    sub = command("ruled", ruled)
    sub.add_argument("--points", type=int, required=True, help="Size of the base label set.")
    sub.add_argument("--e-max", type=int, default=3, help=_SHOW_DEFAULT)
    sub.add_argument("--r-max", type=int, default=4, help=_SHOW_DEFAULT)
    sub.add_argument("--rows", default="0,1", help=_SHOW_DEFAULT)

    sub = command("cremona", cremona)
    sub.add_argument("--points", type=int, default=0,
                     help="Accepted for interface symmetry; the classification over the"
                     " plane carries no marked points.")
    sub.add_argument("--e-max", type=int, default=3, help=_SHOW_DEFAULT)
    sub.add_argument("--r-max", type=int, default=5, help=_SHOW_DEFAULT)
    sub.add_argument("--rows", default="0,1", help=_SHOW_DEFAULT)

    command("schur", schur).add_argument(
        "--target", choices=["pgl2", "pgl3", "quadric", "k2prime"], required=True)
    command("homology", homology).add_argument("path", metavar="PATH", type=_existing_file)

    sub = command("five-term", five_term_cmd)
    sub.add_argument("--points", type=int, default=4, help=_SHOW_DEFAULT)
    sub.add_argument("--e-max", type=int, default=3, help=_SHOW_DEFAULT)
    return parser


def main(argv=None, prog=None):
    """Run one `syz` command line.  argv defaults to sys.argv[1:] and prog,
    the name shown by usage messages and --version, to argparse's default.
    Returns on success; exits 1 when the library refuses the request and 2
    when the parser refuses the command line."""
    args = _parser(prog).parse_args(argv)
    args.t0 = time.monotonic()
    try:
        args.run(args)
    except BrokenPipeError:
        # the reader closed stdout: leave without a traceback, and point stdout
        # at /dev/null so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _click_shaped_main(args=None, prog_name=None, standalone_mode=False):
    """`main.main(args=..., prog_name=..., standalone_mode=False)`, the call
    shape of click's `Command.main`.  It exists only for bench/inproc.py and
    tests/test_tooling.py, which call main that way.  It runs
    main(args, prog_name), which returns on success and raises SystemExit on
    an error, as click's standalone_mode=False did; the flag itself is
    ignored.  Other callers use main(argv)."""
    main(args, prog_name)


main.main = _click_shaped_main


if __name__ == "__main__":
    main(prog="python -m syzygy.cli")
