"""Exact-arithmetic toolkit for the central-model combinatorics of rational
surfaces: Picard-lattice enumeration, regular CW complexes with integer
homology, surface central-model chain complexes, and a formal abelian-group
calculus with first-quadrant spectral sequences.

The six submodules load on first use: importing the package registers each
in sys.modules and binds it here, and a submodule runs its code the first
time one of its attributes is read, so a command executes only the modules
it calls.  The names in _SUBMODULES are read from their submodule on
first access (PEP 562)."""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_SUBMODULES = {
    "smith": "FGAbelianGroup SNFResult smith_normal_form",
    "lattice": "BlowupLattice DivisorClass IncidenceGraph cubic_summary",
    "complexes": "Cell IntegerChainComplex RegularCWComplex load_complex_file",
    "surfaces": "BaseCase GeneratorUniverse SurfaceCentralModel boundary"
    " elementary_transformation enumerate_generators row0_complex"
    " row0_homology syzygy_sphere_bl3 two_ray_game",
    "formal": "Atom FormalGroup FormalHom check_exact cokernel homology_at"
    " kernel solve_extension",
    "spectral": "KnownHomologyRegistry SpectralGrid cremona_assemble"
    " default_registry five_term k2_prime_candidates schur_aut_quadric"
    " schur_pgl seven_term",
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names.split()}

for _module in _SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
