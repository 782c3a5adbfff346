"""Payload sizing and snapshot semantics."""

import sys
from collections import OrderedDict, defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs import Tracer
from repro.obs.tracer import CAT_COMM
from repro.render.image import PartialImage
from repro.utils.errors import CommunicationError
from repro.vmpi import MPIWorld
from repro.vmpi.payload import VirtualPayload, payload_nbytes, snapshot

Pair = namedtuple("Pair", "left right")


class Tagged(np.ndarray):
    """An ndarray subclass: sized and copied by the ``isinstance`` ladder."""


class Bag(dict):
    """A dict subclass with an attribute of its own."""


class TestVirtualPayload:
    def test_size_preserved(self):
        assert payload_nbytes(VirtualPayload(12345)) == 12345

    def test_negative_rejected(self):
        with pytest.raises(CommunicationError):
            VirtualPayload(-1)

    def test_equality_by_size(self):
        assert VirtualPayload(10) == VirtualPayload(10)
        assert VirtualPayload(10) != VirtualPayload(11)


class TestPayloadNbytes:
    def test_numpy_exact(self):
        a = np.zeros((10, 10), dtype=np.float32)
        assert payload_nbytes(a) == 400

    def test_bytes_exact(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars_have_envelope(self):
        assert payload_nbytes(3) == 16
        assert payload_nbytes(None) == 16

    def test_containers_sum(self):
        a = np.zeros(10, dtype=np.float64)
        assert payload_nbytes([a, a]) == 16 + 2 * 80
        assert payload_nbytes({"k": a}) == 16 + (1 + 16) + 80

    @given(st.integers(min_value=0, max_value=1000))
    def test_string_size_grows(self, n):
        assert payload_nbytes("x" * n) == n + 16

    def test_object_with_nbytes_attr(self):
        class Img:
            nbytes = 4096

        assert payload_nbytes(Img()) == 4096


class TestSnapshot:
    def test_ndarray_copied(self):
        a = np.arange(5)
        s = snapshot(a)
        a[0] = 99
        assert s[0] == 0

    def test_nested_containers_copied(self):
        a = np.arange(3)
        s = snapshot({"x": [a, (a,)]})
        a[:] = -1
        assert s["x"][0][0] == 0
        assert s["x"][1][0][0] == 0

    def test_scalars_pass_through(self):
        assert snapshot(5) == 5
        assert snapshot("s") == "s"

    def test_virtual_payload_passes_through(self):
        v = VirtualPayload(7)
        assert snapshot(v) is v


class TestSnapshotKeepsClasses:
    """Containers keep their class through snapshot (a received
    namedtuple answers attribute access); only the leaves are copied."""

    def test_namedtuple_stays_namedtuple(self):
        a = np.arange(3)
        s = snapshot(Pair(1, a))
        assert type(s) is Pair and s.left == 1
        a[:] = -1
        assert s.right.tolist() == [0, 1, 2]

    def test_defaultdict_keeps_factory(self):
        a = np.arange(2)
        s = snapshot(defaultdict(list, {"k": a}))
        assert type(s) is defaultdict and s.default_factory is list
        a[:] = -1
        assert s["k"].tolist() == [0, 1]
        assert s["missing"] == []

    def test_ordered_dict_keeps_order(self):
        s = snapshot(OrderedDict([("b", np.zeros(1)), ("a", np.ones(1))]))
        assert type(s) is OrderedDict and list(s) == ["b", "a"]

    def test_dict_and_list_subclasses(self):
        a = np.arange(2)
        bag = Bag(x=[a])
        bag.note = "kept"
        s = snapshot(bag)
        assert type(s) is Bag and s.note == "kept"
        a[:] = -1
        assert s["x"][0].tolist() == [0, 1]

        class Row(list):
            pass

        r = snapshot(Row([a]))
        assert type(r) is Row and not np.shares_memory(r[0], a)

    def test_source_is_not_touched(self):
        a = np.arange(2)
        d = defaultdict(list, {"k": a})
        snapshot(d)
        assert d["k"] is a


def _reference_nbytes(obj):
    """``payload_nbytes`` as one ``isinstance`` ladder, before the
    exact-class fast paths: the oracle for every size."""
    if isinstance(obj, VirtualPayload):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, complex, np.generic)) or obj is None:
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) + 16
    if isinstance(obj, (tuple, list)):
        return 16 + sum(_reference_nbytes(v) for v in obj)
    if isinstance(obj, dict):
        return 16 + sum(_reference_nbytes(k) + _reference_nbytes(v) for k, v in obj.items())
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return max(sys.getsizeof(obj), 16)


def _partial(h, w, depth):
    return PartialImage((1, 2, w, h), np.full((h, w, 4), 0.5, np.float32), depth)


_arrays = hnp.arrays(
    st.sampled_from([np.float32, np.float64, np.int16, np.uint8]),
    hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.str_, st.text(max_size=4)),
    st.builds(np.bytes_, st.binary(max_size=4)),
    _arrays,
    _arrays.map(lambda a: a.view(Tagged)),
    _arrays.map(lambda a: a.T),
    st.builds(VirtualPayload, st.integers(0, 1 << 40)),
    st.builds(_partial, st.integers(0, 3), st.integers(0, 3), st.floats(0, 1)),
)
_keys = st.one_of(st.integers(0, 99), st.text(max_size=3))
payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(_keys, inner, max_size=3),
        st.dictionaries(_keys, inner, max_size=3).map(lambda d: defaultdict(list, d)),
        st.dictionaries(_keys, inner, max_size=3).map(OrderedDict),
        st.dictionaries(_keys, inner, max_size=3).map(Bag),
    ),
    max_leaves=12,
)


def _assert_detached(copy, orig):
    """Same classes and values at every level; no array shares memory."""
    assert type(copy) is type(orig)
    if isinstance(orig, np.ndarray):
        assert np.array_equal(copy, orig) and not np.shares_memory(copy, orig)
    elif isinstance(orig, (tuple, list)):
        assert len(copy) == len(orig)
        for c, o in zip(copy, orig):
            _assert_detached(c, o)
    elif isinstance(orig, dict):
        assert list(copy) == list(orig)
        for k in orig:
            _assert_detached(copy[k], orig[k])
    else:
        assert copy is orig


class TestPayloadContract:
    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_sizes_match_the_ladder(self, obj):
        assert payload_nbytes(obj) == _reference_nbytes(obj)

    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_snapshot_detaches_and_keeps_size(self, obj):
        s = snapshot(obj)
        _assert_detached(s, obj)
        assert payload_nbytes(s) == _reference_nbytes(obj)

    def test_numpy_scalar_counts_envelope_not_nbytes(self):
        assert np.float64(1.0).nbytes == 8
        assert payload_nbytes(np.float64(1.0)) == 16
        assert payload_nbytes((np.float64(1.0),)) == 32


def _dict_gather(ctx, value, root, tag):
    """The binomial gather as it stood before subtrees were sent
    detached: the collected dict itself goes up, re-snapshotted and
    re-sized at every level.  The oracle for message sizes."""
    p = ctx.size
    rel = (ctx.rank - root) % p
    collected = {ctx.rank: value}
    mask = 1
    while mask < p:
        if rel & mask:
            yield from ctx.send(collected, ((rel & ~mask) + root) % p, tag)
            return None
        if rel | mask < p:
            collected.update((yield from ctx.recv(source=((rel | mask) + root) % p, tag=tag)))
        mask <<= 1
    return [collected[r] for r in range(p)]


def _gather_value(rank):
    a = np.arange(rank + 1, dtype=np.float32)
    return [(rank, a), Pair(a[:1], None), {"x": np.float64(rank)}, None][rank % 4]


def _messages(p, program):
    """The run's result and its per-message ``(src, dst, nbytes, t0, t1)``."""
    tracer = Tracer(enabled=True)
    res = MPIWorld.for_cores(p, tracer=tracer).run(program)
    wire = [(s.rank, s.args["dst"], s.args["nbytes"], s.t0, s.t1)
            for s in tracer.spans if s.cat == CAT_COMM]
    return res, wire


class TestGatherSubtrees:
    @pytest.mark.parametrize("p", (1, 2, 3, 8, 13))
    @pytest.mark.parametrize("root", (0, 1))
    def test_subtree_sizes_equal_the_dict(self, p, root):
        root = min(root, p - 1)

        def detached(ctx):
            return (yield from ctx.gather(_gather_value(ctx.rank), root=root))

        def as_dicts(ctx):
            return (yield from _dict_gather(ctx, _gather_value(ctx.rank), root, tag=5))

        got, got_wire = _messages(p, detached)
        want, want_wire = _messages(p, as_dicts)
        # Every message at every tree level: same endpoints, bytes and times.
        assert got_wire == want_wire and len(got_wire) == p - 1
        assert (got.messages, got.bytes_sent, got.elapsed_s) == (
            want.messages, want.bytes_sent, want.elapsed_s)
        for g, w in zip(got[root], want[root]):
            _assert_equal_values(g, w)

    def test_copy_on_send(self):
        """A sender that mutates its array after its gather returned
        does not change what the root collects."""
        p = 8

        def program(ctx):
            arr = np.full(3, ctx.rank, dtype=np.int64)
            out = yield from ctx.gather(Pair(ctx.rank, arr), root=0)
            arr[:] = -1
            yield from ctx.compute(1e-3)
            yield from ctx.barrier()
            return out

        res = MPIWorld.for_cores(p).run(program)
        assert [type(v) for v in res[0]] == [Pair] * p
        assert [v.right.tolist() for v in res[0][1:]] == [[r] * 3 for r in range(1, p)]


def _assert_equal_values(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        for x, y in zip(a, b, strict=True):
            _assert_equal_values(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            _assert_equal_values(a[k], b[k])
    else:
        assert a == b


class TestOps:
    def test_named_ops(self):
        from repro.vmpi.ops import resolve_op

        assert resolve_op("sum")(2, 3) == 5
        assert resolve_op("prod")(2, 3) == 6
        assert resolve_op("max")(2, 3) == 3
        assert resolve_op("min")(2, 3) == 2

    def test_named_ops_elementwise_on_arrays(self):
        from repro.vmpi.ops import resolve_op

        a = np.array([1.0, 5.0])
        b = np.array([4.0, 2.0])
        assert np.array_equal(resolve_op("max")(a, b), [4.0, 5.0])
        assert np.array_equal(resolve_op("prod")(a, b), [4.0, 10.0])

    def test_callable_passthrough(self):
        from repro.vmpi.ops import resolve_op

        fn = lambda a, b: a - b  # noqa: E731
        assert resolve_op(fn) is fn

    def test_unknown_op_rejected(self):
        from repro.utils.errors import CommunicationError
        from repro.vmpi.ops import resolve_op

        with pytest.raises(CommunicationError, match="unknown reduce op"):
            resolve_op("median")
