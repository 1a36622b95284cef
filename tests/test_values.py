"""The value classes: repr, equality, hashing, immutability, construction.

BoundaryClass, RelativeClass, KahlerVector, WallRecord, ClosedInvariant,
GaussianRational, UnitAngle and PeriodPoint behave as frozen records of
their fields: equal only to an instance of the same class with equal
fields, hashed as the tuple of their fields, printed as
``Name(field=repr, ...)``, and closed to assignment.  RelativeClass keeps
its own equality: the same boundary and quotient coordinates.
"""

import copy
import inspect
from fractions import Fraction

import pytest

from k3dw import (
    BoundaryClass,
    ClosedInvariant,
    GaussianRational,
    KahlerVector,
    LatticeError,
    PeriodPoint,
    RelativeClass,
    UnitAngle,
    ValidationError,
    Vector,
    WallRecord,
)

A1 = Vector.basis(0)  # a root: the boundary class
E1, F1 = Vector.basis(16), Vector.basis(17)
B = BoundaryClass(A1)


def vec_repr(i, entry="1"):
    """Vector's repr of entry * basis(i)."""
    return "Vector([" + ", ".join(entry if j == i else "0" for j in range(22)) + "])"


# class -> (field names, field values, the repr of cls(*values))
CASES = {
    BoundaryClass: (("L",), (A1,), f"BoundaryClass(L={vec_repr(0)})"),
    RelativeClass: (
        ("representative", "boundary"),
        (E1, B),
        f"RelativeClass(representative={vec_repr(16)}, "
        f"boundary=BoundaryClass(L={vec_repr(0)}))",
    ),
    KahlerVector: (("coords",), (F1,), f"KahlerVector(coords={vec_repr(17)})"),
    WallRecord: (
        ("k", "lifting", "pairing_with_L", "closed_invariant"),
        (2, E1, -3, Fraction(1, 8)),
        f"WallRecord(k=2, lifting={vec_repr(16)}, pairing_with_L=-3, "
        "closed_invariant=Fraction(1, 8))",
    ),
    ClosedInvariant: (
        ("beta_square", "divisibility", "value"),
        (-2, 1, Fraction(1)),
        "ClosedInvariant(beta_square=-2, divisibility=1, value=Fraction(1, 1))",
    ),
    GaussianRational: (
        ("re", "im"),
        (Fraction(1), Fraction(-2, 3)),
        "GaussianRational(re=Fraction(1, 1), im=Fraction(-2, 3))",
    ),
    UnitAngle: (
        ("c", "s"),
        (Fraction(3, 5), Fraction(-4, 5)),
        "UnitAngle(c=Fraction(3, 5), s=Fraction(-4, 5))",
    ),
    PeriodPoint: (
        ("re", "im", "boundary"),
        (E1, F1, B),
        f"PeriodPoint(re={vec_repr(16)}, im={vec_repr(17)}, "
        f"boundary=BoundaryClass(L={vec_repr(0)}))",
    ),
}
CLASSES = list(CASES)
FIELD_HASHED = [cls for cls in CLASSES if cls is not RelativeClass]


def make(cls):
    return cls(*CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field_in_order(cls):
    assert repr(make(cls)) == CASES[cls][2]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_and_by_keyword(cls):
    fields, values, _ = CASES[cls]
    assert list(inspect.signature(cls).parameters) == list(fields)
    by_keyword = cls(**dict(zip(fields, values)))
    # the instance dict holds the fields and nothing else, until a cached
    # property of RelativeClass is read
    assert vars(by_keyword) == dict(zip(fields, values))
    assert tuple(getattr(by_keyword, f) for f in fields) == values
    assert by_keyword == make(cls)


def test_gaussian_rational_defaults_and_coercion():
    params = inspect.signature(GaussianRational).parameters
    assert [p.default for p in params.values()] == [0, 0]
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert GaussianRational(im=2) == GaussianRational(0, Fraction(2))
    assert type(GaussianRational(1, 2).re) is Fraction
    with pytest.raises(ValidationError, match="floating point input"):
        GaussianRational(0.5)
    with pytest.raises(ValidationError, match=r"\(1, 1\) is not on the unit circle"):
        UnitAngle(1, 1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_within_a_class(cls):
    x, y = make(cls), make(cls)
    assert x == y and not x != y and x is not y
    fields, values, _ = CASES[cls]
    if cls is UnitAngle:
        other = UnitAngle(values[0], -values[1])  # stays on the circle
    elif cls is RelativeClass:
        other = RelativeClass(F1, B)
    elif cls is BoundaryClass:
        other = BoundaryClass(Vector.basis(2))
    else:
        other = cls(*values[:-1], Fraction(7))
    assert x != other and not x == other


def test_equality_needs_the_same_class():
    assert GaussianRational(1, 0) != UnitAngle(1, 0)
    assert UnitAngle(1, 0) != GaussianRational(1, 0)
    assert BoundaryClass(A1) != KahlerVector(A1)
    assert KahlerVector(A1) != BoundaryClass(A1)
    assert not GaussianRational(1, 0) == UnitAngle(1, 0)
    assert not BoundaryClass(A1) == KahlerVector(A1)
    for cls in FIELD_HASHED:
        x = make(cls)
        assert x.__eq__(tuple(CASES[cls][1])) is NotImplemented
        assert x != tuple(CASES[cls][1])
        for other in CLASSES:
            if other is not cls:
                assert x.__eq__(make(other)) is NotImplemented


@pytest.mark.parametrize("cls", FIELD_HASHED, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    assert hash(make(cls)) == hash(CASES[cls][1])
    assert len({make(cls), make(cls)}) == 1


def test_relative_class_keeps_its_own_equality_and_hash():
    x, shifted = RelativeClass(E1, B), RelativeClass(E1 + 3 * A1, B)
    assert x == shifted and hash(x) == hash(shifted)
    assert x.representative != shifted.representative
    assert x != RelativeClass(E1, BoundaryClass(Vector.basis(2)))
    assert x.__eq__(E1) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    x = make(cls)
    for field, value in zip(*CASES[cls][:2]):
        with pytest.raises(AttributeError) as info:
            setattr(x, field, value)
        assert str(info.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as info:
            delattr(x, field)
        assert str(info.value) == f"cannot delete field {field!r}"
        assert getattr(x, field) == value
    with pytest.raises(AttributeError) as info:
        x.extra = 1
    assert str(info.value) == "cannot assign to field 'extra'"
    assert x == make(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_is_an_equal_instance(cls):
    x = make(cls)
    y = copy.copy(x)
    assert y == x and y is not x and type(y) is cls
    assert vars(y) == vars(x)


def test_copy_keeps_cached_coordinates():
    x = RelativeClass(E1 + 2 * A1, B)
    coords = x.completion_coords
    y = copy.copy(x)
    assert y.__dict__["completion_coords"] is coords
    assert y.quotient_coords == x.quotient_coords


def test_boundary_class_validation_order_and_texts():
    with pytest.raises(LatticeError) as info:
        BoundaryClass(Vector([Fraction(1, 2)] + [0] * 21))  # square -1/2 too
    assert str(info.value) == "boundary class must be integral"
    with pytest.raises(LatticeError) as info:
        BoundaryClass(2 * E1)  # content 2 too
    assert str(info.value) == "boundary class must have square -2, got 0"
    with pytest.raises(LatticeError) as info:
        BoundaryClass(E1 + F1)
    assert str(info.value) == "boundary class must have square -2, got 2"


def test_relative_class_validation_text():
    with pytest.raises(ValidationError) as info:
        RelativeClass(Vector([Fraction(1, 3)] + [0] * 21), B)
    assert str(info.value) == "relative classes must have integral representatives"
    assert RelativeClass(representative=E1, boundary=B) == RelativeClass(E1, B)
