"""The one base of the package's frozen value classes.

A subclass writes its own ``__init__``: it checks the arguments and stores
each field in ``self.__dict__``, in declaration order, which is the order of
the ``repr`` and of the hashed values.  Plain classes and not ``dataclasses``:
its import (with ``inspect``, ``ast``, ``dis`` and ``tokenize``) and the methods
it generates cost every command about 13 ms of start-up (CPython 3.11 on a
shared 2-vCPU VM).
"""


class Record:
    """A frozen value: equal only to an instance of its own class with equal
    fields, hashed by its field values, shown as ``Name(field=value, ...)``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {self.__class__.__name__}")
