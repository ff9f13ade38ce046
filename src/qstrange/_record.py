"""Record, the base of every immutable value type in the package.

A record names its fields in __slots__, in constructor order; a subclass
adds its own after its parents'.  Assigning or deleting an attribute
raises AttributeError, so constructors fill the slots with
object.__setattr__.  The default constructor takes every field
positionally; a record that checks or derives fields writes its own.

Two records are equal when they have the same class and equal compared
fields, and a record hashes as the tuple of its compared fields, read by
one operator.attrgetter built per class.  Every field is compared unless
the class statement names the compared ones, as in
class FamilySpec(Record, compare=("label",)).  The default repr shows
every field.  A record may define __eq__, __hash__ or __repr__ itself.
Pickling and copying restore the slots directly, without running the
constructor again.
"""

import operator

_set = object.__setattr__


def _restore(cls, values):
    x = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set(x, name, value)
    return x


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in vars(klass).get("__slots__", ()))
        names = cls._fields if compare is None else tuple(compare)
        get = operator.attrgetter(*names)
        # attrgetter of one name gives the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(names) > 1 else lambda x: (get(x),))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, n) for n in self._fields))
