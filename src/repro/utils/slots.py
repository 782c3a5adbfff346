"""A cheaper ``__init__`` for frozen slotted dataclasses.

A frozen dataclass's generated ``__init__`` stores every field with
``object.__setattr__(self, name, value)``: a lookup by name per field,
which is most of the cost of building a small record.  A slotted class
already holds one member descriptor per field, and :func:`slot_init`
gives the class an ``__init__`` of the same signature that stores
through those descriptors instead — about half the time for
:class:`~repro.obs.tracer.Span` and
:class:`~repro.farm.request.FrameRequest`, which a farm run builds once
per span and once per arrival.

Only construction changes.  The class stays frozen, and equality,
hashing, ``repr``, ``dataclasses.replace`` and pickling are the
dataclass's own.  Setting or deleting *any* name raises
:class:`dataclasses.FrozenInstanceError` (the ``__setattr__`` that
``@dataclass(frozen=True, slots=True)`` generates raised a
``TypeError`` from ``super()`` for a name that is not a field).
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, fields


def _frozen(self, name: str, *_value) -> None:  # __setattr__ and __delattr__
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


def slot_init(cls: type) -> type:
    """Class decorator, placed above ``@dataclass(..., slots=True)``."""
    params: list[str] = []
    body: list[str] = []
    namespace: dict = {}
    for f in fields(cls):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"slot_init: {cls.__name__}.{f.name} needs a plain init field")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
