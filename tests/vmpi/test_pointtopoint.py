"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.sim.parallel import ParallelConfig
from repro.utils.errors import CommunicationError, ConfigError
from repro.vmpi import ANY_SOURCE, ANY_TAG, MPIWorld, VirtualPayload


def run(nprocs, program, **kwargs):
    return MPIWorld.for_cores(nprocs, **kwargs).run(program)


class TestSendRecv:
    def test_basic_send_recv(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send({"a": 1}, dest=1, tag=5)
                return None
            if ctx.rank == 1:
                data = yield from ctx.recv(source=0, tag=5)
                return data
            return None

        res = run(4, program)
        assert res[1] == {"a": 1}

    def test_numpy_payload_copied_on_send(self):
        """Mutating the send buffer after isend must not corrupt delivery."""

        def program(ctx):
            if ctx.rank == 0:
                buf = np.arange(4)
                req = ctx.isend(buf, dest=1, tag=1)
                buf[:] = -1  # sender reuses the buffer immediately
                yield from ctx.wait(req)
                return None
            if ctx.rank == 1:
                return (yield from ctx.recv(source=0, tag=1))
            return None

        res = run(4, program)
        assert np.array_equal(res[1], [0, 1, 2, 3])

    def test_tag_matching(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send("first", dest=1, tag=10)
                yield from ctx.send("second", dest=1, tag=20)
                return None
            if ctx.rank == 1:
                b = yield from ctx.recv(source=0, tag=20)
                a = yield from ctx.recv(source=0, tag=10)
                return (a, b)
            return None

        res = run(4, program)
        assert res[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def program(ctx):
            if ctx.rank != 0:
                yield from ctx.send(ctx.rank, dest=0, tag=ctx.rank)
                return None
            got = set()
            for _ in range(ctx.size - 1):
                payload, status = yield from ctx.recv_status(source=ANY_SOURCE, tag=ANY_TAG)
                assert payload == status.source == status.tag
                got.add(payload)
            return got

        res = run(4, program)
        assert res[0] == {1, 2, 3}

    def test_message_order_preserved_same_pair(self):
        def program(ctx):
            if ctx.rank == 0:
                for i in range(10):
                    yield from ctx.send(i, dest=1, tag=3)
                return None
            if ctx.rank == 1:
                out = []
                for _ in range(10):
                    out.append((yield from ctx.recv(source=0, tag=3)))
                return out
            return None

        res = run(2, program)
        assert res[1] == list(range(10))

    def test_sendrecv_swaps(self):
        def program(ctx):
            partner = ctx.rank ^ 1
            other = yield from ctx.sendrecv(ctx.rank * 10, dest=partner, source=partner, tag=2)
            return other

        res = run(4, program)
        assert res.values == [10, 0, 30, 20]

    def test_irecv_posted_before_send(self):
        def program(ctx):
            if ctx.rank == 1:
                req = ctx.irecv(source=0, tag=9)
                yield from ctx.barrier()
                payload, _status = yield req.future
                return payload
            yield from ctx.barrier()
            if ctx.rank == 0:
                yield from ctx.send("late", dest=1, tag=9)
            return None

        res = run(2, program)
        assert res[1] == "late"

    def test_bad_destination_raises(self):
        def program(ctx):
            yield from ctx.send(1, dest=99)

        with pytest.raises(CommunicationError, match="out of range"):
            run(2, program)

    def test_unreceived_message_detected(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send("orphan", dest=1, tag=1)
            return None

        with pytest.raises(CommunicationError, match="never received"):
            run(2, program)

    def test_unreceived_error_names_each_endpoint(self):
        """The leak diagnostic lists every orphaned (src, dst, tag)
        triple so a hung collective can be localized from the message."""

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send("a", dest=1, tag=7)
                yield from ctx.send("b", dest=2, tag=3)
            return None

        with pytest.raises(CommunicationError) as exc:
            run(3, program)
        msg = str(exc.value)
        assert "2 messages" in msg
        assert "(src=0, dst=1, tag=7)" in msg
        assert "(src=0, dst=2, tag=3)" in msg

    def test_unreceived_error_truncates_long_lists(self):
        def program(ctx):
            if ctx.rank == 0:
                for t in range(25):
                    yield from ctx.send(t, dest=1, tag=t)
            return None

        with pytest.raises(CommunicationError) as exc:
            run(2, program)
        msg = str(exc.value)
        assert "25 messages" in msg
        assert "(src=0, dst=1, tag=19)" in msg  # 20th triple shown
        assert "(src=0, dst=1, tag=20)" not in msg
        assert "... and 5 more" in msg

    def test_sharded_world_reports_leaks_identically(self):
        """One leak formatter: the sharded backend raises the same text."""
        from repro.sim.parallel import ParallelConfig

        def program(ctx):
            if ctx.rank == 0:
                for t in range(21):
                    yield from ctx.send(t, dest=1, tag=t)
                yield from ctx.send("last", dest=2, tag=99)
            return None

        messages = []
        for kwargs in ({}, {"parallel": ParallelConfig(workers=1)}):
            with pytest.raises(CommunicationError) as exc:
                MPIWorld.for_cores(3).run(program, **kwargs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "22 messages" in messages[0] and "... and 2 more" in messages[0]

    def test_deadlock_names_ranks_in_order_and_keeps_the_trace(self):
        """Both worlds report a hung run the same way: blocked ranks in
        rank order, and the spans recorded before the hang survive."""
        from repro.obs.tracer import Tracer
        from repro.sim.parallel import ParallelConfig
        from repro.utils.errors import DeadlockError

        def program(ctx):
            if ctx.rank % 5 == 0:
                yield from ctx.recv(source=ANY_SOURCE, tag=9)  # nobody sends tag 9
            else:
                yield from ctx.send(ctx.rank, dest=ctx.rank - ctx.rank % 5, tag=1)

        messages, spans = [], []
        for kwargs in ({}, {"parallel": ParallelConfig(workers=1)}):
            world = MPIWorld.for_cores(64, tracer=Tracer())
            with pytest.raises(DeadlockError) as exc:
                world.run(program, **kwargs)
            assert exc.value.blocked == [f"rank{r}" for r in range(0, 64, 5)]
            messages.append(str(exc.value))
            spans.append(sorted((sp.rank, sp.name) for sp in world.tracer.spans))
        assert messages[0] == messages[1]
        assert "rank0, rank5, rank10" in messages[0]
        assert spans[0] == spans[1]
        assert sum(name.startswith("msg->") for _r, name in spans[0]) == 51

    def test_waitall_returns_payloads(self):
        def program(ctx):
            if ctx.rank == 0:
                reqs = [ctx.irecv(source=s, tag=1) for s in range(1, ctx.size)]
                vals = yield from ctx.waitall(reqs)
                return vals
            yield from ctx.send(ctx.rank**2, dest=0, tag=1)
            return None

        res = run(4, program)
        assert res[0] == [1, 4, 9]


class TestIsendManyReadsItsBatchOnce:
    """``isend_many`` takes any iterable of ``(dest, payload)``: the
    monolithic board used to validate a ``zip`` or generator to
    exhaustion and then send nothing, leaving the receivers to deadlock
    while the sharded board worked."""

    SHAPES = {
        "list": lambda dests, items: list(zip(dests, items)),
        "zip": zip,
        "generator": lambda dests, items: ((d, p) for d, p in zip(dests, items)),
    }

    @pytest.mark.parametrize("parallel", [None, ParallelConfig(workers=1)])
    def test_same_requests_messages_and_bytes(self, parallel):
        def program(ctx, shape):
            nreq = 0
            if ctx.rank == 0:
                dests = list(range(1, ctx.size))
                items = [VirtualPayload(100 * d) for d in dests]
                reqs = ctx.isend_many(shape(dests, items), tag=4)
                nreq = len(reqs)
                yield from ctx.waitall(reqs)
            else:
                yield from ctx.recv(source=0, tag=4)
            return nreq

        runs = {
            name: MPIWorld.for_cores(8).run(program, shape, parallel=parallel)
            for name, shape in self.SHAPES.items()
        }
        for res in runs.values():
            assert (res[0], res.messages, res.bytes_sent) == (7, 7, 2800)
            assert res.elapsed_s == runs["list"].elapsed_s

    def test_bad_destination_sends_nothing(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.isend_many(zip([1, 99], [b"a", b"b"]), tag=4)
            yield from ctx.compute(1e-6)

        from repro.obs.tracer import Tracer

        world = MPIWorld.for_cores(4, tracer=Tracer(enabled=True))
        with pytest.raises(CommunicationError, match="dest rank 99"):
            world.run(program)
        assert not world.tracer.spans


class TestRanksSubset:
    """``run(ranks=...)`` names existing ranks, each once — checked once,
    before either world is built."""

    @pytest.mark.parametrize(
        "ranks,text",
        [
            ([64], "ranks: rank 64 out of range [0, 64)"),
            ([-1, 0], "ranks: rank -1 out of range [0, 64)"),
            ([0, 0], "ranks: rank 0 listed more than once"),
        ],
    )
    def test_bad_ranks_rejected_identically_by_both_worlds(self, ranks, text):
        def program(ctx):
            yield from ctx.compute(1e-6)
            return ctx.rank

        world = MPIWorld.for_cores(64)
        for kwargs in ({}, {"parallel": ParallelConfig(workers=1)}):
            with pytest.raises(ConfigError) as exc:
                world.run(program, ranks=ranks, **kwargs)
            assert str(exc.value) == text

    def test_valid_subset_runs_on_both_worlds(self):
        def program(ctx):
            yield from ctx.compute(1e-6)
            return ctx.rank

        world = MPIWorld.for_cores(64)
        for kwargs in ({}, {"parallel": ParallelConfig(workers=1)}):
            assert world.run(program, ranks=[63, 5], **kwargs).values == [63, 5]


class TestTiming:
    def test_simulated_time_advances_with_traffic(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(np.zeros(1 << 18), dest=1)
            elif ctx.rank == 1:
                yield from ctx.recv(source=0)
            return ctx.now

        res = run(2, program)
        assert res.elapsed_s > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_compute_rejects_negative_and_non_finite_times(self, bad):
        # compute(nan) used to be accepted: elapsed_s and every rank's
        # clock came back nan.
        def program(ctx):
            yield from ctx.compute(bad)
            return ctx.now

        with pytest.raises(CommunicationError, match=repr(bad)):
            run(4, program)

    def test_compute_advances_local_clock(self):
        def program(ctx):
            yield from ctx.compute(0.25 * (ctx.rank + 1))
            return ctx.now

        res = run(2, program)
        assert res[0] == pytest.approx(0.25)
        assert res[1] == pytest.approx(0.5)
        assert res.compute_seconds == [0.25, 0.5]
