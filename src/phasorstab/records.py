"""Value records built without code generation.

``@recordclass`` turns an annotated class into a value record: an
``__init__`` that takes the fields in declaration order, by position or by
keyword, then calls ``__post_init__`` when the class has one; a ``__repr__``
and an ``__eq__`` over the fields; and with ``frozen=True``, instances that
refuse assignment and deletion and hash by their field values.

It covers the part of :mod:`dataclasses` this package uses, and it exists
because ``dataclasses`` writes each of those methods as source text and
compiles it while the module is imported. That costs about a millisecond per
class on every start of the program, and cached bytecode does not save it.
Here the methods are closures over a field table read once from the class.

Fields are the annotated names of the class itself and those of its record
bases. A plain base's annotations are class attributes, not fields (as
``Component.positive_params`` is). An ``init=False`` field is not set by
``__init__``; ``__post_init__`` sets it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

__all__ = ["asdict", "field", "recordclass", "replace"]

_MISSING = object()
_FIELDS = "__record_fields__"


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr")

    def __init__(self, default, default_factory, init, repr):
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True) -> Any:
    """Declare a field with a default or a per-instance factory, or flags."""
    return Field(default, default_factory, init, repr)


def recordclass(cls=None, /, *, frozen: bool = False):
    """Class decorator; use bare or as ``@recordclass(frozen=True)``."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def replace(obj, /, **changes):
    """A new record like ``obj`` with ``changes``; validation runs again."""
    for f in getattr(type(obj), _FIELDS):
        if f.init:
            if f.name not in changes:
                changes[f.name] = getattr(obj, f.name)
        elif f.name in changes:
            raise ValueError(f"init=False field {f.name!r} cannot be replaced")
    return type(obj)(**changes)


def asdict(obj) -> dict[str, Any]:
    """Field name to value, shallow: nested values are not converted."""
    return {f.name: getattr(obj, f.name) for f in getattr(type(obj), _FIELDS)}


def _build(cls, frozen: bool):
    fields: dict[str, Field] = {}
    for base in reversed(cls.__mro__[1:]):
        for f in base.__dict__.get(_FIELDS, ()):
            fields[f.name] = f
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            f = value
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(value, _MISSING, True, True)
        f.name = name
        fields[name] = f
    table = tuple(fields.values())
    setattr(cls, _FIELDS, table)

    names = frozenset(fields)
    init_names = tuple(f.name for f in table if f.init)
    # (name, default, factory) of each init field, for those not given by position
    init_rest = tuple((f.name, f.default, f.default_factory) for f in table if f.init)
    repr_names = tuple(f.name for f in table if f.repr)
    get_all = attrgetter(*fields)
    values = get_all if len(fields) > 1 else lambda obj: (get_all(obj),)
    set_field = object.__setattr__
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(init_names):
            raise TypeError(
                f"{qualname}() takes {len(init_names)} positional arguments"
                f" but {len(args)} were given"
            )
        for name, value in zip(init_names, args):
            set_field(self, name, value)
        for name, default, factory in init_rest[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                if default is not _MISSING:
                    value = default
                elif factory is not _MISSING:
                    value = factory()
                else:
                    raise TypeError(f"{qualname}() missing required argument {name!r}")
            set_field(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            if name in init_names:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in repr_names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:

        def __setattr__(self, name, value):
            if type(self) is cls or name in names:
                raise AttributeError(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self, name):
            if type(self) is cls or name in names:
                raise AttributeError(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)

        def __hash__(self):
            return hash(values(self))

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__, __hash__=__hash__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
