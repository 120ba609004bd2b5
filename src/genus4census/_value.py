"""Value, the base of the package's immutable records.

A frozen dataclass generates and compiles its methods when its class
statement runs, so every import of the package paid for them.  A Value
subclass names its fields in ``_fields`` (as a rule also its ``__slots__``)
and writes an ``__init__`` that sets each one with ``setfield``, then
validates.  An instance equals only an instance of the same class with equal
fields, hashes as the tuple of its fields, shows as ``Name(field=value,
...)``, refuses assignment and deletion, and pickles and copies by calling
its class on its fields, so the copy passes ``__init__``'s checks again.
"""

setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
