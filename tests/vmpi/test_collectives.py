"""Collective algorithms against their mathematical definitions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.errors import CommunicationError
from repro.vmpi import MPIWorld

SIZES = (2, 3, 4, 7, 8, 16)


def run(nprocs, program):
    return MPIWorld.for_cores(nprocs).run(program)


class TestBarrier:
    @pytest.mark.parametrize("p", SIZES)
    def test_barrier_synchronizes(self, p):
        def program(ctx):
            yield from ctx.compute(0.01 * ctx.rank)
            yield from ctx.barrier()
            return ctx.now

        res = run(p, program)
        # Nobody leaves before the slowest rank's compute finished.
        assert min(res.values) >= 0.01 * (p - 1)


class TestBcast:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("root", (0, 1))
    def test_bcast_delivers_everywhere(self, p, root):
        def program(ctx):
            data = {"v": 42} if ctx.rank == root else None
            return (yield from ctx.bcast(data, root=root))

        res = run(p, program)
        assert all(v == {"v": 42} for v in res.values)

    def test_bcast_numpy(self):
        def program(ctx):
            data = np.arange(100) if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0)
            return out.sum()

        res = run(8, program)
        assert all(v == 4950 for v in res.values)

    def test_bad_root_rejected(self):
        def program(ctx):
            yield from ctx.bcast(1, root=9)

        with pytest.raises(CommunicationError, match="root"):
            run(4, program)


class TestReduceAllreduce:
    @pytest.mark.parametrize("p", SIZES)
    def test_reduce_sum(self, p):
        def program(ctx):
            return (yield from ctx.reduce(ctx.rank + 1, op="sum", root=0))

        res = run(p, program)
        assert res[0] == p * (p + 1) // 2
        assert all(v is None for v in res.values[1:])

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("op,expected", [("max", lambda p: p - 1), ("min", lambda p: 0)])
    def test_allreduce_named_ops(self, p, op, expected):
        def program(ctx):
            return (yield from ctx.allreduce(ctx.rank, op=op))

        res = run(p, program)
        assert all(v == expected(p) for v in res.values)

    @pytest.mark.parametrize("p", SIZES)
    def test_allreduce_arrays_bitwise_identical(self, p):
        def program(ctx):
            local = np.full(16, float(ctx.rank))
            return (yield from ctx.allreduce(local, op="sum"))

        res = run(p, program)
        for v in res.values[1:]:
            assert np.array_equal(v, res[0])
        assert np.array_equal(res[0], np.full(16, sum(range(p))))

    def test_reduce_non_commutative_op_ordered(self):
        """String concatenation: associative, not commutative."""

        def program(ctx):
            return (yield from ctx.reduce(str(ctx.rank), op=lambda a, b: a + b, root=0))

        res = run(8, program)
        assert res[0] == "01234567"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_allreduce_matches_numpy(self, p):
        if p % 4:
            p = 4 * ((p // 4) + 1)

        def program(ctx):
            local = np.arange(8) * (ctx.rank + 1)
            return (yield from ctx.allreduce(local, op="sum"))

        res = MPIWorld.for_cores(p).run(program)
        expected = np.arange(8) * sum(range(1, p + 1))
        assert np.array_equal(res[0], expected)


class TestGatherScatter:
    @pytest.mark.parametrize("p", SIZES)
    def test_gather_ordered(self, p):
        def program(ctx):
            return (yield from ctx.gather(ctx.rank * 2, root=0))

        res = run(p, program)
        assert res[0] == [2 * r for r in range(p)]


class TestAlltoall:
    @pytest.mark.parametrize("p", (2, 4, 8))
    def test_alltoallv_sparse(self, p):
        def program(ctx):
            by_dest = {(ctx.rank + 1) % ctx.size: ctx.rank, ctx.rank: "self"}
            return (yield from ctx.alltoallv(by_dest))

        res = run(p, program)
        for r, out in enumerate(res.values):
            assert out == {(r - 1) % p: (r - 1) % p, r: "self"}

    def test_alltoallv_empty(self):
        def program(ctx):
            return (yield from ctx.alltoallv({}))

        res = run(4, program)
        assert all(v == {} for v in res.values)

    def test_alltoallv_bad_dest(self):
        def program(ctx):
            yield from ctx.alltoallv({99: 1})

        with pytest.raises(CommunicationError, match="out of range"):
            run(4, program)


class TestCollectiveSequencing:
    def test_back_to_back_collectives_do_not_cross_talk(self):
        def program(ctx):
            a = yield from ctx.allreduce(1, op="sum")
            b = yield from ctx.allreduce(ctx.rank, op="max")
            c = yield from ctx.bcast("z" if ctx.rank == 0 else None, root=0)
            return (a, b, c)

        res = run(8, program)
        assert all(v == (8, 7, "z") for v in res.values)
