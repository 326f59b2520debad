"""Immutable value classes.

`@record` turns a class whose fields are annotated, in order, into an
immutable value:

  * the constructor takes every field, by position, and then runs the
    class's __post_init__, if any;
  * two instances of one class are equal when their tuples of fields
    are, and the hash is that of the tuple, computed on first use and
    kept outside the fields (a complex is looked up in several caches,
    and hashing it walks all its facets);
  * assigning or deleting an attribute raises AttributeError.

__post_init__ may store derived attributes with object.__setattr__;
they are not annotated, so they stay out of equality and hashing.
The methods are closures, not generated source: the standard library's
frozen classes load inspect and compile each class they build, and
every froblab command is a fresh process that would pay that at start.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls):
    fields = tuple(cls.__annotations__)
    post_init = getattr(cls, "__post_init__", None)
    values = attrgetter(*fields)

    def __init__(self, *args):
        if len(args) != len(fields):
            raise TypeError(f"{cls.__name__}() takes ({', '.join(fields)}), got {len(args)} arguments")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"{cls.__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
