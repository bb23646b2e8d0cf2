"""Frozen records: the package's immutable value classes, with no generated code.

A record class derives from ``Record`` and declares its fields as annotations,
in order; a class attribute of a field's name is its default.  Only record
classes contribute fields (``Cone.group`` is none).  ``Record`` holds once what
a frozen dataclass generates per class: construction by position or keyword,
TypeError for a missing or unknown argument, then any ``__post_init__``; ``==``
within one class and ``hash``, both over the tuple of fields; the dataclass
``repr``; AttributeError on assigning or deleting.  Caches (``cached`` attributes,
dicts put in ``__dict__``) are not fields.  Query-path types write their own
``__init__``, as the generic one costs twice as much.  Fields go in by ``set_field``
unless caches fill ``__dict__`` anyway: reading it slows later attribute reads.
"""

set_field = object.__setattr__  # looked up once: a field write past Record.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__annotations__", {})  # this class's, not its bases'
        cls._fields += tuple(name for name in own if name not in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        given = dict(zip(fields, args), **kwargs)
        for name in fields:
            if name not in given and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            set_field(self, name, given[name] if name in given else getattr(cls, name))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """An attribute computed on its first read and kept in the instance ``__dict__``,
    which later reads, and a value put there first, find before this descriptor:
    ``functools.cached_property`` without the lock it takes on a first read."""

    def __init__(self, compute) -> None:
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value
