"""The contract of the library's record classes.  Seven of them are values:
compared, hashed, and used as cache and dict keys, so equal fields give
equal objects with equal hashes, any one field told apart makes them
unequal, and no field can be reassigned.  A value's fields are its
``__slots__``, in the order its constructor takes them: its hash, its pickle
and its repr are read from them in that order.  The mutable records get a
fresh container for every defaulted list or dict field."""

import copy
import inspect
import pickle

import pytest

from syzygy import _Value
from syzygy.formal import Atom, FormalGroup
from syzygy.lattice import IncidenceGraph
from syzygy.smith import FGAbelianGroup, SNFResult
from syzygy.spectral import SpectralGrid
from syzygy.surfaces import (
    BaseCase,
    GeneratorUniverse,
    SurfaceCentralModel,
    row0_complex,
)

# class -> (keyword fields of one instance, one other value per field)
VALUES = {
    Atom: ({"name": "K2(C)", "torsion_rule": "none"}, {"name": "Q/Z", "torsion_rule": "cyclic"}),
    FormalGroup: ({"atoms": ("C*",), "cyclic": (2,), "free_rank": 1, "infinite": ()},
                  {"atoms": ("K2(C)",), "cyclic": (3,), "free_rank": 2,
                   "infinite": (("Z", FormalGroup(cyclic=(2,))),)}),
    IncidenceGraph: ({"vertices": ((0, 1), (1, -1)), "edges": ((0, 1),)},
                     {"vertices": ((0, 1),), "edges": ()}),
    SNFResult: ({"U": [[1]], "D": [[2]], "V": [[1]]},
                {"U": [[-1]], "D": [[3]], "V": [[-1]]}),
    FGAbelianGroup: ({"free_rank": 1, "torsion": (2, 4)}, {"free_rank": 0, "torsion": (3,)}),
    SurfaceCentralModel: (
        {"rank": 2, "base": BaseCase.RULED, "family": "blowup", "points": ("P1",), "e": 0,
         "partition": (1,), "modulus": None},
        {"rank": 3, "base": BaseCase.CREMONA, "family": "min_section", "points": ("P2",), "e": 1,
         "partition": (2,), "modulus": "l0"},
    ),
    GeneratorUniverse: (
        {"base": BaseCase.RULED, "labels": ("P1", "P2"), "e_max": 2, "r_max": 3},
        {"base": BaseCase.CREMONA, "labels": ("P1",), "e_max": 3, "r_max": 4},
    ),
}
UNHASHABLE = {SNFResult}  # it holds lists
FIELD_CASES = [(cls, name) for cls, (fields, _) in VALUES.items() for name in fields]


def _pair(cls):
    fields = VALUES[cls][0]
    return cls(**copy.deepcopy(fields)), cls(*copy.deepcopy(list(fields.values())))


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values(cls):
    a, b = _pair(cls)  # one by keyword, one positionally
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls, name", FIELD_CASES, ids=lambda v: getattr(v, "__name__", v))
def test_one_field_apart_gives_unequal_values(cls, name):
    fields, other = VALUES[cls]
    a = cls(**fields)
    b = cls(**{**fields, name: other[name]})
    assert a != b and not a == b
    assert a != tuple(fields.values())  # a value is not the tuple of its fields


@pytest.mark.parametrize("cls, name", FIELD_CASES, ids=lambda v: getattr(v, "__name__", v))
def test_fields_cannot_be_reassigned(cls, name):
    fields, other = VALUES[cls]
    a = cls(**fields)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(a, name, other[name])
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_constructor_parameters_are_the_slots_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__ == tuple(VALUES[cls][0])


def _field_tuple(value):
    return tuple(getattr(value, name) for name in value.__slots__)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    a = cls(**VALUES[cls][0])
    if cls in UNHASHABLE:
        assert cls.__hash__ is None
    else:
        assert hash(a) == hash(_field_tuple(a))


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_values_reduce_to_their_constructor_arguments(cls):
    a = cls(**VALUES[cls][0])
    assert a.__reduce__() == (cls, _field_tuple(a))


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_repr_names_each_field_in_slot_order(cls):
    a = cls(**VALUES[cls][0])
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, _field_tuple(a)))
    assert repr(a) == f"{cls.__name__}({shown})"


def test_repr_of_a_one_field_value():
    """No library value has one field; the base still reads it as a 1-tuple."""
    class One(_Value):
        __slots__ = ("coefficients",)

    one = One((1, -1))
    assert repr(one) == "One(coefficients=(1, -1))"
    assert one.__reduce__() == (One, ((1, -1),)) and hash(one) == hash(((1, -1),))


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_values_survive_copy_and_pickle(cls):
    a = cls(**VALUES[cls][0])
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_formal_group_normalizes_atoms_and_cyclic_part():
    a = FormalGroup(atoms=("K2(C)", "C*"), cyclic=(2, 3))
    assert a.atoms == ("C*", "K2(C)") and a.cyclic == (6,)
    assert a == FormalGroup(atoms=("C*", "K2(C)"), cyclic=(6,))
    assert hash(a) == hash(FormalGroup(atoms=("C*", "K2(C)"), cyclic=(6,)))
    assert FormalGroup(cyclic=(1, 3, 1)) == FormalGroup(cyclic=(3,))  # Z/1 = 0 is dropped


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: SpectralGrid(page=2, box=(1, 1)), ("entries", "differentials", "abutment", "notes")),
    ],
    ids=["SpectralGrid"],
)
def test_default_containers_are_fresh_per_instance(make, fields):
    a, b = make(), make()
    for name in fields:
        assert getattr(a, name) == type(getattr(a, name))()
        assert getattr(a, name) is not getattr(b, name)


def test_row0_complex_is_cached_for_an_equal_universe():
    u, v = GeneratorUniverse.ruled(3, 2, 3), GeneratorUniverse.ruled(3, 2, 3)
    assert u is not v
    assert row0_complex(u) is row0_complex(v)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Atom("X", "sometimes"), "bad torsion rule 'sometimes'"),
        (lambda: FGAbelianGroup(-1), "negative free rank"),
        (lambda: FGAbelianGroup(0, (2, 3)), "torsion (2, 3) is not a divisibility chain"),
        (lambda: FGAbelianGroup(0, (0, 2)), "torsion orders must be >= 2"),
        (lambda: GeneratorUniverse(BaseCase.CREMONA, (), 0, 5), "e_max must be >= 1"),
        (lambda: GeneratorUniverse(BaseCase.CREMONA, (), 1, 6), "r_max must be in [1, 5]"),
        (lambda: GeneratorUniverse(BaseCase.RULED, ("P1", "P1"), 1, 3), "labels must be distinct"),
        (lambda: FormalGroup(atoms=("nope",)), "unknown atom 'nope'"),
        (lambda: FormalGroup(free_rank=-1), "negative free rank"),
        (lambda: FormalGroup(cyclic=(0,)), "cyclic order below 1: (0,)"),
        (lambda: FormalGroup(cyclic=(2, -2)), "cyclic order below 1: (2, -2)"),
    ],
    ids=["atom-rule", "fg-rank", "fg-chain", "fg-order-zero", "e-max", "r-max",
         "labels", "formal-atom", "formal-rank", "formal-order-zero", "formal-order-negative"],
)
def test_constructor_checks_keep_their_messages(make, message):
    """An order 0 used to reach the chain check of FGAbelianGroup and divide
    by zero there, and FormalGroup dropped orders 0 and -2 as if they were 1,
    so Z/0, which is Z, became the zero group."""
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
