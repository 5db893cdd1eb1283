"""Batch command-line front end: the `syz` console script, also run as
`python -m syzygy.cli`.

Every command is a plain function of the parsed arguments that calls the
library and returns (result, provenance, warnings); _run alone prints the
report: JSON with stable key order, or an aligned text table.  A report's
command is the subcommand's name, set as a parser default beside the
function, and its parameters are the subcommand's own options in the order
the parser declares them, read from the parsed namespace.  Wall-clock
duration is shown only in table mode so that identical requests produce
byte-identical JSON.

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
import io
import json
import os
import sys
import time

from . import __version__, complexes, lattice, spectral, surfaces

SCHEMA_VERSION = 1


def _lattice_from(degree, blowups):
    if (degree is None) == (blowups is None):
        raise ValueError("give exactly one of --degree or --blowups")
    n = 9 - degree if degree is not None else blowups
    if not 0 <= n <= 8:
        raise ValueError(f"blowup count {n} out of range [0, 8]")
    return lattice.BlowupLattice(n)


def _echo(line):
    """Write one line and flush it.  When stdout's binary layer is
    unbuffered (PYTHONUNBUFFERED, -u), the text layer would drop the rest of
    a short write, so the encoded line goes to the raw stream until every
    byte is out.  A reader that closes stdout early then makes a write fail
    with BrokenPipeError, buffered or not, which main turns into exit 1."""
    out = sys.stdout
    text = f"{line}\n"
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        out.flush()
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


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


# the namespace's global options and dispatch fields; the rest are the
# command's own options, in the order its parser declares them
_NOT_PARAMETERS = ("format", "registry", "run", "command")


def _run(args):
    """Run the parsed command and print its report, or the error JSON and
    exit 1 when the library refuses the request."""
    t0 = time.monotonic()
    report = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        result, provenance, warnings = args.run(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its one argument, quotes and all
        one_key = isinstance(exc, KeyError) and len(exc.args) == 1
        report["error"] = str(exc.args[0]) if one_key else str(exc)
        _echo(json.dumps(report, sort_keys=True, indent=2))
        sys.exit(1)
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    if args.format == "json":
        report.update(parameters=parameters, result=result, provenance=list(provenance),
                      warnings=list(warnings))
        _echo(json.dumps(report, sort_keys=True, indent=2))
        return
    _echo(f"== {args.command} ==")
    for k, v in parameters.items():
        _echo(f"  param {k} = {v}")
    _render_table(result, indent=1)
    for w in warnings:
        _echo(f"  warning: {w}")
    for p in provenance:
        _echo(f"  note: {p}")
    _echo(f"  ({time.monotonic() - t0:.3f}s)")


def _classes(args, enumerate_classes):
    """Report the classes that enumerate_classes(lattice) lists."""
    lat = _lattice_from(args.degree, args.blowups)
    cls = enumerate_classes(lat)
    return (
        {"count": len(cls), "classes": [list(c.coefficients) for c in cls]},
        [f"exhaustive box search over the {lat.n}-point lattice"],
        [],
    )


def lines(args):
    """Enumerate the (-1)-classes."""
    return _classes(args, lambda lat: lat.enumerate_lines())


def conics(args):
    """Enumerate the primitive fibration classes."""
    return _classes(args, lambda lat: lat.enumerate_conic_classes())


def graph(args):
    """Incidence graph of the (-1)-classes at a pairing threshold."""
    lat = _lattice_from(args.degree, args.blowups)
    g = lat.incidence_graph(lat.enumerate_lines(), args.threshold)
    data = g.to_json_dict()
    data["degree_sequence"] = g.degree_sequence()
    data["single_cycle"] = g.is_single_cycle()
    return data, [], []


def syzygy(args):
    """Build the elementary syzygy sphere of the three-point blowup."""
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
    return result, ["vertices = rank-3 models: 6 contractions + 3 conic fibrations"], []


def cubic(args):
    """Counting report for the cubic surface."""
    report = lattice.cubic_summary()
    flags = report.pop("flags")
    return report, [], flags


def _row0(u, rows, reduced_h0=False):
    """The rows that a comma-separated --rows value names (the empty string
    names none; only rows 0 and 1 are computed), and a result holding the
    row-0 entries E_{i,0} when row 0 is among them, after the d o d check."""
    try:
        wanted = {int(r) for r in rows.split(",") if r != ""}
    except ValueError:
        wanted = None
    if wanted is None or not wanted <= {0, 1}:
        raise ValueError(f"--rows takes rows 0 and 1 only, got {rows!r}")
    result = {}
    if 0 in wanted:
        surfaces.check_row0_squares_to_zero(u)
        result["boundary_squares_to_zero"] = True
        if reduced_h0:
            result["reduced_H0"] = str(surfaces.row0_reduced_h0(u))
        for i in range(1, u.r_max - 1):
            result[f"E_{{{i},0}}"] = str(surfaces.row0_homology(u, i))
    return wanted, result


def ruled(args):
    """Row homology for the ruled universe at finite truncation."""
    u = surfaces.GeneratorUniverse.ruled(args.points, args.e_max, args.r_max)
    wanted, result = _row0(u, args.rows, reduced_h0=True)
    if 1 in wanted:
        row1 = spectral.ruled_row1_complex(u, _registry(args))
        result["E_{0,1}"] = str(spectral.row1_homology(row1, 0))
        result["E_{1,1}"] = str(spectral.row1_homology(row1, 1))
    return result, ["coinvariant rows of the central-model complex over the fixed base"], []


def cremona(args):
    """Row homology and the final candidates for the plane's universe."""
    u = surfaces.GeneratorUniverse.cremona(args.e_max, args.r_max)
    wanted, result = _row0(u, args.rows)
    asm = spectral.cremona_assemble(_registry(args), u)
    if 1 in wanted:
        result["E_{0,1}"] = str(asm["E_{0,1}"])
        result["E_{1,1}"] = str(asm["E_{1,1}"])
        result["E_{2,1}_bound"] = str(asm["E_{2,1} bound"])
    result["relation"] = asm["relation"]
    result["E_{0,2}"] = str(asm["E_{0,2}"])
    result["H2_candidates"] = [str(c) for c in asm["candidates"]]
    warnings = [
        "the classification over the plane has one class per configuration"
        " tag; --points is recorded but does not change the complex"
    ] if args.points else []
    return (
        result,
        ["final candidates from the edge value and the undetermined differential"],
        warnings,
    )


def schur(args):
    """Second homology derivations for the automorphism groups."""
    reg = _registry(args)
    if args.target in ("pgl2", "pgl3"):
        d = spectral.schur_pgl(2 if args.target == "pgl2" else 3, reg)
        return {"group": d.group, "H2": str(d.value), "sequence": d.sequence.render()}, d.notes, []
    if args.target == "quadric":
        d = spectral.schur_aut_quadric(reg)
        return {"group": d.group, "H2": str(d.value)}, d.notes, []
    cands = spectral.k2_prime_candidates(reg)
    return (
        {"candidates": [str(c) for c in cands]},
        ["extension of Z/2 by K2(C) + Z/2; undetermined, both candidates kept"],
        [],
    )


def homology(args):
    """Homology of a CW-complex or chain-complex JSON file."""
    obj = complexes.load_complex_file(args.path)
    cc = obj.chain_complex() if isinstance(obj, complexes.RegularCWComplex) else obj
    degrees = list(range(cc.top_degree + 1))
    return {"degrees": degrees, "homology": [str(cc.homology(d)) for d in degrees]}, [], []


def five_term_cmd(args):
    """The low-degree exact sequence of the ruled universe's grid."""
    u = surfaces.GeneratorUniverse.ruled(args.points, args.e_max, r_max=5)
    seq = spectral.prop_s17_sequence(u, _registry(args))
    verdicts = [{"position": lbl, "verdict": v, "detail": d} for lbl, v, d in seq.check()]
    return (
        {"sequence": seq.render(), "verdicts": verdicts},
        ["seven-term sequence of the first-quadrant grid at finite truncation"],
        [],
    )


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
        sub.set_defaults(run=run, command=name)
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
    try:
        _run(args)
    except BrokenPipeError:
        # the reader closed stdout: leave without a traceback, and point stdout
        # at /dev/null so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _click_shaped_main(args=None, prog_name=None, standalone_mode=False):
    """`main.main(args=..., prog_name=..., standalone_mode=False)`, the call
    shape of click's `Command.main`.  It exists only for bench/inproc.py,
    which calls main that way.  It runs
    main(args, prog_name), which returns on success and raises SystemExit on
    an error, as click's standalone_mode=False did; the flag itself is
    ignored.  Other callers use main(argv)."""
    main(args, prog_name)


main.main = _click_shaped_main


if __name__ == "__main__":
    main(prog="python -m syzygy.cli")
