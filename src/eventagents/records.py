"""The shared base of the package's value classes.

Every value class of the package, ``cli.RunConfig`` included, is built
on this base.  A value class writes its own constructor: it validates the arguments,
then stores them in declaration order, a :class:`Record` by plain
assignment and a :class:`FrozenRecord` with :func:`set_field`.  Either
way CPython keeps the fields in the instance's compact, key-sharing
storage rather than a dict of its own.  The base derives the rest from
the instance's fields: equality with an instance of the same class, a
``Name(field=value, ...)`` repr, and for :class:`FrozenRecord` a hash
and refusal of assignment.  This does what ``dataclasses`` did here
without importing it or generating code per class, which cost about a
third of ``import eventagents``.
"""

# Stores one field of a FrozenRecord under construction, past the
# class's refusing ``__setattr__``.
set_field = object.__setattr__


class Record:
    """A mutable value: equal to an instance of the same class whose
    fields are equal, and unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable value, hashed by its field values in declaration order."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple(vars(self).values()))
