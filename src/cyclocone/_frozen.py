"""Base class of the package's immutable value objects, and the one owner of
building a value from fields known to be valid, unchecked (`_trusted`)."""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Immutable value whose equality and hash run over its `__slots__`.

    `__init__` stores the fields once, in slot order, with `_assign`.
    Values of different classes never compare equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        # The slot descriptors' setters get past the guard below.
        cls._setters = [getattr(cls, name).__set__ for name in cls.__slots__]

    @classmethod
    def _trusted(cls, *fields):
        """A value of cls from its fields in slot order, not re-validated."""
        value = object.__new__(cls)
        value._assign(*fields)
        return value

    def _assign(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))
