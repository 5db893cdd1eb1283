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
from operator import attrgetter

__version__ = "0.1.0"


class _Value:
    """Base of the immutable value types.  A subclass lists its fields in
    ``__slots__`` in the order its ``__init__`` takes them, and sets them
    there with ``object.__setattr__``; it gets equality, a hash, a pickle and
    a dataclass-style repr over that field tuple, and refuses assignment."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._field_tuple = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_tuple(self) == self._field_tuple(other)

    def __hash__(self):
        return hash(self._field_tuple(self))

    def __reduce__(self):
        return (self.__class__, self._field_tuple(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self._field_tuple(self)))
        return f"{self.__class__.__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# submodule -> the names the package exports from it
_SUBMODULES = {
    "smith": "FGAbelianGroup SNFResult smith_normal_form",
    "lattice": "BlowupLattice DivisorClass IncidenceGraph cubic_summary",
    "complexes": "Cell IntegerChainComplex RegularCWComplex load_complex_file",
    "surfaces": "BaseCase GeneratorUniverse SurfaceCentralModel boundary"
    " enumerate_generators row0_complex row0_homology validated_sphere_bl3",
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
