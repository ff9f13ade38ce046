"""Every public value type is a frozen slotted record (qstrange._record)
that copies and pickles to an equal value."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

from helpers import zeta
import qstrange
from qstrange import (
    CycloNum,
    IntPoly,
    RatPoly,
    dissect,
    get_character,
    match_expansion,
    parse_family,
    partial_sum,
    scan_congruences,
    twisted_sequence,
    verify_congruence,
    verify_theorem,
    xi_coeffs,
)
from qstrange._record import Record

KZ = parse_family("kz")
CHI = get_character("chi_kz")


def _samples():
    report = verify_theorem(KZ, CHI, 5, 9)
    return {
        "Character": CHI,
        "CongruenceReport": verify_congruence(KZ, 5, 1, 1, 30),
        "CycloNum": zeta(12, 5) + Fraction(1, 3),
        "Dissection": dissect(partial_sum(KZ, 6).value, 3),
        "DivisibilityReport": report,
        "DivisibilityRow": report.rows[3],  # carries a quotient
        "FamilySpec": parse_family("gk:k=2"),
        "IntPoly": IntPoly([1, -2, 0, 3]),
        "MatchReport": match_expansion(KZ, CHI, 2, 1, 3),
        "PartialSum": partial_sum(KZ, 6),
        "RatPoly": RatPoly([Fraction(1, 2), 0, -3]),
        "ScanReport": scan_congruences(KZ, 5, 1, 14),
        "TwistedSeq": twisted_sequence(CHI, 2, 1),
        "XiSequence": xi_coeffs(KZ, 5),
    }


SAMPLES = _samples()
CLASSES = [getattr(qstrange, name) for name in qstrange.__all__
           if isinstance(getattr(qstrange, name), type)
           and not issubclass(getattr(qstrange, name), BaseException)]


def test_every_public_class_has_a_sample():
    assert sorted(c.__name__ for c in CLASSES) == sorted(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen_slotted_dataclass(cls):
    assert issubclass(cls, Record)
    assert cls.__setattr__ is Record.__setattr__
    assert cls.__delattr__ is Record.__delattr__
    assert "__slots__" in vars(cls)
    x = SAMPLES[cls.__name__]
    assert not hasattr(x, "__dict__")
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        delattr(x, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_round_trip(cls, clone):
    x = SAMPLES[cls.__name__]
    assert clone(x) == x


def test_round_trip_keeps_coefficient_types():
    for x in (SAMPLES["IntPoly"], SAMPLES["RatPoly"]):
        y = pickle.loads(pickle.dumps(x))
        assert list(map(type, y.coeffs)) == list(map(type, x.coeffs))
        assert hash(y) == hash(x)


def _package_classes():
    for info in pkgutil.iter_modules(qstrange.__path__):
        module = importlib.import_module(f"qstrange.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def _slot_names(cls):
    slots = vars(cls).get("__slots__", ())
    return (slots,) if isinstance(slots, str) else tuple(slots)


@pytest.mark.parametrize("cls", list(_package_classes()),
                         ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_no_slot_name_repeats_along_the_mro(cls):
    # a repeated slot shadows the inherited one and leaves it dead
    names = [name for klass in cls.__mro__ for name in _slot_names(klass)]
    assert len(names) == len(set(names)), names
