"""Batch command-line front end.

Every command reads its parameters, dispatches to the library, and prints a
deterministic report: JSON with stable key order, or an aligned text table.
Wall-clock duration is shown only in table mode so that identical requests
produce byte-identical JSON.
"""

from __future__ import annotations

import json
import sys
import time

import click

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


def _emit(ctx, command, parameters, result, provenance=(), warnings=()):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "result": result,
        "provenance": list(provenance),
        "warnings": list(warnings),
    }
    fmt = ctx.obj["format"]
    if fmt == "json":
        click.echo(json.dumps(report, sort_keys=True, indent=2))
    else:
        click.echo(f"== {command} ==")
        for k, v in parameters.items():
            click.echo(f"  param {k} = {v}")
        _render_table(result, indent=1)
        for w in warnings:
            click.echo(f"  warning: {w}")
        for p in provenance:
            click.echo(f"  note: {p}")
        dt = time.monotonic() - ctx.obj["t0"]
        click.echo(f"  ({dt:.3f}s)", err=False)
    return report


def _render_table(value, indent=0):
    pad = "  " * (indent + 1)
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                click.echo(f"{pad}{k}:")
                _render_table(v, indent + 1)
            else:
                click.echo(f"{pad}{k} = {v}")
    elif isinstance(value, list):
        for v in value:
            _render_table(v, indent)
    else:
        click.echo(f"{pad}{value}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


@click.group()
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json",
              show_default=True)
@click.option("--registry", "registry_path", envvar="SYZ_REGISTRY", default=None,
              help="Path to an alternative known-homology registry (JSON).")
@click.version_option(__version__)
@click.pass_context
def main(ctx, fmt, registry_path):
    """Exact computations for central models of rational surfaces."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.obj["t0"] = time.monotonic()
    ctx.obj["registry_path"] = registry_path


def default_registry():
    """The shared default registry, loaded once per process."""
    return spectral.default_registry()


def _registry(ctx):
    """The registry named by --registry or SYZ_REGISTRY, else the shared
    default.  It is loaded the first time a command reads it, inside _run,
    so that a bad file is reported as the command's error JSON and commands
    that never read it do not depend on it."""
    if "registry" not in ctx.obj:
        path = ctx.obj["registry_path"]
        ctx.obj["registry"] = spectral.KnownHomologyRegistry.load(path) if path else default_registry()
    return ctx.obj["registry"]


def _run(ctx, command, parameters, fn):
    try:
        result, provenance, warnings = fn()
    except (ReportError, ValueError, KeyError, OSError) as exc:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "error": str(exc),
        }
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
        sys.exit(1)
    _emit(ctx, command, parameters, result, provenance, warnings)


@main.command()
@click.option("--degree", type=int, default=None, help="Anticanonical degree 9-n.")
@click.option("--blowups", type=int, default=None, help="Number n of blown-up points.")
@click.pass_context
def lines(ctx, degree, blowups):
    """Enumerate the (-1)-classes."""
    def go():
        lat = _lattice_from(degree, blowups)
        cls = lat.enumerate_lines()
        return (
            {"count": len(cls), "classes": [list(c.coefficients) for c in cls]},
            [f"exhaustive box search over the {lat.n}-point lattice"],
            [],
        )
    _run(ctx, "lines", {"degree": degree, "blowups": blowups}, go)


@main.command()
@click.option("--degree", type=int, default=None)
@click.option("--blowups", type=int, default=None)
@click.pass_context
def conics(ctx, degree, blowups):
    """Enumerate the primitive fibration classes."""
    def go():
        lat = _lattice_from(degree, blowups)
        cls = lat.enumerate_conic_classes()
        return (
            {"count": len(cls), "classes": [list(c.coefficients) for c in cls]},
            [f"exhaustive box search over the {lat.n}-point lattice"],
            [],
        )
    _run(ctx, "conics", {"degree": degree, "blowups": blowups}, go)


@main.command()
@click.option("--degree", type=int, default=None)
@click.option("--blowups", type=int, default=None)
@click.option("--threshold", type=int, default=1, show_default=True)
@click.pass_context
def graph(ctx, degree, blowups, threshold):
    """Incidence graph of the (-1)-classes at a pairing threshold."""
    def go():
        lat = _lattice_from(degree, blowups)
        g = lat.incidence_graph(lat.enumerate_lines(), threshold)
        data = g.to_json_dict()
        data["degree_sequence"] = g.degree_sequence()
        data["single_cycle"] = g.is_single_cycle()
        return data, [], []
    _run(ctx, "graph", {"degree": degree, "blowups": blowups, "threshold": threshold}, go)


@main.command()
@click.argument("target", type=click.Choice(["bl3"]))
@click.option("--check/--no-check", default=True, show_default=True,
              help="Run the full validation, including link homology.")
@click.pass_context
def syzygy(ctx, target, check):
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
        if check:
            result["valid"] = rep.valid
            result["failures"] = rep.failures + rep.link_failures
        return (
            result,
            ["vertices = rank-3 models: 6 contractions + 3 conic fibrations"],
            [],
        )
    _run(ctx, "syzygy", {"target": target, "check": check}, go)


@main.command()
@click.pass_context
def cubic(ctx):
    """Counting report for the cubic surface."""
    def go():
        report = lattice.cubic_summary()
        flags = report.pop("flags")
        return report, [], flags
    _run(ctx, "cubic", {}, go)


def _universe_params(points, e_max, r_max):
    return {"points": points, "e_max": e_max, "r_max": r_max}


def _wanted_rows(rows):
    """The rows named in a comma-separated --rows value; the empty string
    names none.  Only rows 0 and 1 are computed."""
    wanted = {int(r) for r in rows.split(",") if r != ""}
    if not wanted <= {0, 1}:
        raise ReportError(f"--rows takes rows 0 and 1 only, got {rows!r}")
    return wanted


@main.command()
@click.option("--points", type=int, required=True, help="Size of the base label set.")
@click.option("--e-max", type=int, default=3, show_default=True)
@click.option("--r-max", type=int, default=4, show_default=True)
@click.option("--rows", default="0,1", show_default=True)
@click.pass_context
def ruled(ctx, points, e_max, r_max, rows):
    """Row homology for the ruled universe at finite truncation."""
    def go():
        u = surfaces.GeneratorUniverse.ruled(points, e_max, r_max)
        wanted = _wanted_rows(rows)
        result = {}
        warnings = []
        if 0 in wanted:
            surfaces.check_row0_squares_to_zero(u)
            result["boundary_squares_to_zero"] = True
            result["reduced_H0"] = str(surfaces.row0_reduced_h0(u))
            for i in range(1, u.r_max - 1):
                result[f"E_{{{i},0}}"] = str(surfaces.row0_homology(u, i))
        if 1 in wanted:
            row1 = spectral.ruled_row1_complex(u, _registry(ctx))
            result["E_{0,1}"] = str(spectral.row1_homology(row1, 0))
            result["E_{1,1}"] = str(spectral.row1_homology(row1, 1))
        return (
            result,
            ["coinvariant rows of the central-model complex over the fixed base"],
            warnings,
        )
    _run(ctx, "ruled", {**_universe_params(points, e_max, r_max), "rows": rows}, go)


@main.command()
@click.option("--points", type=int, default=0,
              help="Accepted for interface symmetry; the classification over the plane carries no marked points.")
@click.option("--e-max", type=int, default=3, show_default=True)
@click.option("--r-max", type=int, default=5, show_default=True)
@click.option("--rows", default="0,1", show_default=True)
@click.pass_context
def cremona(ctx, points, e_max, r_max, rows):
    """Row homology and the final candidates for the plane's universe."""
    def go():
        u = surfaces.GeneratorUniverse.cremona(e_max, r_max)
        wanted = _wanted_rows(rows)
        warnings = []
        if points:
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
        asm = spectral.cremona_assemble(_registry(ctx), u)
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
    _run(ctx, "cremona", {**_universe_params(points, e_max, r_max), "rows": rows}, go)


@main.command()
@click.option("--target", type=click.Choice(["pgl2", "pgl3", "quadric", "k2prime"]),
              required=True)
@click.pass_context
def schur(ctx, target):
    """Second homology derivations for the automorphism groups."""
    def go():
        reg = _registry(ctx)
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
    _run(ctx, "schur", {"target": target}, go)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def homology(ctx, path):
    """Homology of a CW-complex or chain-complex JSON file."""
    def go():
        obj = complexes.load_complex_file(path)
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
    _run(ctx, "homology", {"path": str(path)}, go)


@main.command("five-term")
@click.option("--points", type=int, default=4, show_default=True)
@click.option("--e-max", type=int, default=3, show_default=True)
@click.pass_context
def five_term_cmd(ctx, points, e_max):
    """The low-degree exact sequence of the ruled universe's grid."""
    def go():
        u = surfaces.GeneratorUniverse.ruled(points, e_max, r_max=5)
        seq = spectral.prop_s17_sequence(u, _registry(ctx))
        verdicts = [
            {"position": lbl, "verdict": v, "detail": d} for lbl, v, d in seq.check()
        ]
        return (
            {"sequence": seq.render(), "verdicts": verdicts},
            ["seven-term sequence of the first-quadrant grid at finite truncation"],
            [],
        )
    _run(ctx, "five-term", {"points": points, "e_max": e_max}, go)


if __name__ == "__main__":
    main()
