"""Every immutable value class: no assignment, value equality, value hash."""

from fractions import Fraction
from itertools import combinations

import pytest

from cyclocone import (
    CircleElement,
    DimVector,
    FGAbelianGroup,
    IntMatrix,
    KappaParams,
    MultiPartition,
    OrbitLabel,
    Partition,
    RationalCharacter,
)
from cyclocone._frozen import Frozen

# Each entry builds a fresh, equal value on every call.
MAKERS = {
    DimVector: lambda: DimVector((1, 0, 1), framing=1),
    Partition: lambda: Partition([2, 1]),
    MultiPartition: lambda: MultiPartition([Partition([1]), Partition()]),
    IntMatrix: lambda: IntMatrix(1, 2, [1, 2]),
    FGAbelianGroup: lambda: FGAbelianGroup(1, (2,)),
    RationalCharacter: lambda: RationalCharacter(["1/2", "-3"]),
    KappaParams: lambda: KappaParams("1/3", "-1/3", ["1/4", "-1/4"]),
    CircleElement: lambda: CircleElement(Fraction(4, 3)),
    OrbitLabel: lambda: OrbitLabel(
        Partition(), MultiPartition([Partition([2])]), 2, 1
    ),
}


def test_every_frozen_class_is_covered():
    assert set(Frozen.__subclasses__()) == set(MAKERS)


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)
def test_frozen_value(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # The bare field values are not the value itself.
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert a != fields and fields != a
    assert a != fields[0] and fields[0] != a


@pytest.mark.parametrize(
    "first, second",
    list(combinations(MAKERS, 2)),
    ids=lambda cls: cls.__name__,
)
def test_different_classes_never_equal(first, second):
    a, b = MAKERS[first](), MAKERS[second]()
    assert a != b and b != a


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)
def test_trusted_rebuilds_a_validated_value(cls):
    # Frozen._trusted stores fields in slot order with no check, the one
    # way the package builds a value it already knows to be valid.
    value = MAKERS[cls]()
    trusted = cls._trusted(*(getattr(value, name) for name in cls.__slots__))
    assert type(trusted) is cls and trusted is not value
    assert trusted == value and hash(trusted) == hash(value)
