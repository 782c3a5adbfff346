"""``slot_init`` changes how a frozen slotted dataclass is built, nothing else.

Each class it decorates is checked against a twin made by
``dataclasses.make_dataclass`` from the same fields, whose ``__init__``
is the dataclass's own: same signature, same stored values and hash,
and the same frozen, equality, ``replace`` and pickle behaviour.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.farm.request import FrameRequest
from repro.obs.tracer import CAT_FARM, Span
from repro.utils.slots import slot_init

CASES = {
    "span": (Span, (2, "serve", CAT_FARM, 0.5, 1.5, 3, ("req", "browse0/7", "nodes", 256))),
    "span-defaults": (Span, (2, "queue", CAT_FARM, 0.0, 0.5)),
    "request": (
        FrameRequest,
        ("browse0", 7, "vh1", 3, 30.0, 10.0, "pressure", 2048, "netcdf", "us",
         "gold", 1, 0.0, 1, 4, 2.5),
    ),
    "request-defaults": (FrameRequest, ("orbit0", 2, "vh1", 0, 45.0, 0.0)),
}


def _twin(cls):
    """``cls`` as a plain frozen slotted dataclass, generated ``__init__``."""
    spec = [
        (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(f"Plain{cls.__name__}", spec, frozen=True, slots=True)


def _params(cls):
    return [
        (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
    ]


@pytest.mark.parametrize("case", list(CASES))
class TestSameAsTheDataclassInit:
    def test_signature(self, case):
        cls, _ = CASES[case]
        assert _params(cls) == _params(_twin(cls))

    def test_values_and_hash(self, case):
        cls, args = CASES[case]
        fast, plain = cls(*args), _twin(cls)(*args)
        assert dataclasses.astuple(fast) == dataclasses.astuple(plain)
        assert hash(fast) == hash(plain)
        assert fast == cls(*args) and hash(fast) == hash(cls(*args))

    def test_keywords(self, case):
        cls, args = CASES[case]
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls(**dict(zip(names, args))) == cls(*args)
        with pytest.raises(TypeError):
            cls(*args[:2])

    def test_frozen(self, case):
        cls, args = CASES[case]
        obj = cls(*args)
        assert not hasattr(obj, "__dict__")
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)
        assert obj == cls(*args)

    def test_frozen_for_names_that_are_not_fields(self, case):
        cls, args = CASES[case]
        obj = cls(*args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obj.extra
        assert obj == cls(*args)

    def test_replace(self, case):
        cls, args = CASES[case]
        obj = cls(*args)
        first = dataclasses.fields(cls)[1].name
        moved = dataclasses.replace(obj, **{first: args[1] * 2})
        assert moved != obj
        assert dataclasses.replace(moved, **{first: args[1]}) == obj

    @pytest.mark.parametrize(
        "clone", [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies(self, case, clone):
        cls, args = CASES[case]
        obj = cls(*args)
        back = clone(obj)
        assert back == obj and type(back) is cls
        assert hash(back) == hash(obj)


def test_request_post_init_still_runs():
    assert FrameRequest("browse0", 7, "vh1", 3, 30.0, 10.0).rid == "browse0/7"


def test_rejects_a_default_factory():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Bag:
        items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="Bag.items"):
        slot_init(Bag)
