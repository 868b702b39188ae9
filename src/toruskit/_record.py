"""The base of the package's immutable records.

``__init__`` stores the fields with ``object.__setattr__``; assigning or
deleting an attribute then raises ``AttributeError`` (a ``cached_property``
still fills the instance ``__dict__``).  Unless a class writes its own, a
record equals one of the same type with equal ``_fields``, hashes those
fields and shows them in its repr.  Records compared or hashed in hot loops
write their own ``__eq__`` and ``__hash__``, which run faster.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            return
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in vars(cls):
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
