"""Exact-arithmetic toolkit for the central-model combinatorics of rational
surfaces: Picard-lattice enumeration, regular CW complexes with integer
homology, surface central-model chain complexes, and a formal abelian-group
calculus with first-quadrant spectral sequences.

The six submodules load on first use: importing the package registers each
in sys.modules and binds it here, and a submodule runs its code the first
time one of its attributes is read, so a command executes only the modules
it calls.  The names in _SUBMODULES are read from their submodule on
first access (PEP 562).

Every JSON input, shipped table or user file, is read here: read_json
parses a file and unpack checks one object against its declared keys."""

import importlib.util
import json
import sys
from operator import attrgetter
from pathlib import Path

__version__ = "0.1.0"

DATA_DIR = Path(__file__).parent / "data"


def _refuse_repeated_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {key!r} is repeated in one object")
    return obj


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON value")


def read_json(path) -> object:
    """The JSON document in a UTF-8 file.  Text that does not decode or
    parse raises ValueError "<path> does not parse as JSON: <reason>", the
    reason being the decoder's message, json's line and column included, or
    one of the refusals json itself lacks: a key given twice in one object,
    which json would keep the last copy of, and the tokens NaN, Infinity and
    -Infinity, which json accepts though JSON has no such value.  A document
    nested too deeply for the decoder raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_refuse_repeated_keys,
                             parse_constant=_refuse_constant)
        except ValueError as exc:  # the decoders' errors and the hooks' refusals
            raise ValueError(f"{path} does not parse as JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path} nests arrays or objects too deeply to read") from None


_NAMES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


def _check(key: str, what: str, value, kind) -> None:
    """Refuse a value that is not of ``kind``, naming the key (see unpack)."""
    shape = type(kind) if isinstance(kind, (list, dict, set)) else kind
    fits = value in kind if shape is set and type(value) is str else type(value) is shape
    if not fits and shape is not object:
        name = f"one of {sorted(kind)}" if shape is set else _NAMES[shape]
        raise ValueError(f"{what}: {key!r} holds {value!r}, not {name}")
    if isinstance(kind, list):
        for item in value:
            _check(key, what, item, kind[0])
    elif isinstance(kind, dict):
        [(key_kind, item_kind)] = kind.items()
        for index, item in value.items():
            try:
                canonical = key_kind is str or str(int(index)) == index
            except ValueError:  # not decimal, or too long to convert
                canonical = False
            if not canonical:
                raise ValueError(f"{key} key {index!r} is not a canonical decimal integer")
            _check(key, what, item, item_kind)


def unpack(obj, what: str, required: dict, optional: dict | None = None) -> list:
    """The values of ``obj``, an object read by read_json, for the required
    keys, then the optional ones (None where absent), in declared order.
    Each key is declared with the kind of its value: int (never a bool),
    bool, str, list, dict, object (any value), a set of the strings allowed,
    ``[kind]`` for a list of that kind, ``{str: kind}`` for an object of that
    kind and ``{int: kind}`` for one keyed by canonical decimal integers.  A
    non-object, an unknown key, a value of another kind, and a missing
    required key or empty required string each raise ValueError naming
    ``what`` and the key."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be an object, got {obj!r}")
    declared = {**required, **(optional or {})}
    for key, value in obj.items():
        if key not in declared:
            raise ValueError(f"{what} has the unknown key {key!r}")
        _check(key, what, value, declared[key])
    for key, kind in required.items():
        if key not in obj or obj[key] == "" and kind is str:
            raise ValueError(f"{what} lacks {key!r}")
    return [obj.get(key) for key in declared]


class _Value:
    """Base of the immutable value types.  A subclass lists its fields in
    ``__slots__`` in the order its ``__init__`` takes them, and ends that
    ``__init__`` by passing their values to ``_Value.__init__`` in that order;
    it gets equality, a hash, a pickle and a dataclass-style repr over that
    field tuple, and refuses assignment."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)  # this class's own __setattr__ refuses

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
    "lattice": "BlowupLattice IncidenceGraph cubic_summary",
    "complexes": "IntegerChainComplex RegularCWComplex load_complex_file",
    "surfaces": "BaseCase GeneratorUniverse SurfaceCentralModel boundary"
    " enumerate_generators row0_complex row0_homology validated_sphere_bl3",
    "formal": "Atom FormalGroup FormalHom cokernel homology_at kernel solve_extension",
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
