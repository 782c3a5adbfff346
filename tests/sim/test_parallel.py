"""Partition invariance of the conservative-parallel backend.

The backend's contract (DESIGN.md §12): for a fixed shard count, ANY
worker count produces bitwise-identical results — same per-rank
values, same simulated clock, same message/byte counts, same image.
The shard layout is fixed by the machine (not the worker count), so
these tests pin the whole observable surface of a run against the
1-worker reference, including under a non-zero fault plan.
"""

import hashlib

import numpy as np
import pytest

from repro.sim.parallel import ParallelConfig
from repro.sim.partition import ShardLayout
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld, VirtualPayload

WORKER_COUNTS = (1, 2, 4, 8)


def _directsend_program(schedule):
    from repro.compositing.directsend import COMPOSITE_TAG

    def program(ctx):
        batch = []
        for msg in schedule.outgoing(ctx.rank):
            dest = schedule.compositor_rank(msg.tile)
            if dest == ctx.rank:
                continue
            batch.append((dest, VirtualPayload(msg.nbytes)))
        reqs = ctx.isend_many(batch, COMPOSITE_TAG) if batch else []
        if ctx.rank < schedule.num_compositors:
            expected = [
                m for m in schedule.incoming(ctx.rank) if m.src != ctx.rank
            ]
            for _ in range(len(expected)):
                yield from ctx.recv(tag=COMPOSITE_TAG)
        yield from ctx.waitall(reqs)
        return ctx.rank

    return program


def _virtual_schedule(ranks: int, m: int):
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    grid = (64, 64, 64)
    cam = Camera.looking_at_volume(grid, width=128, height=128)
    return schedule_from_geometry(BlockDecomposition(grid, ranks), cam, m)


def _fingerprint(res) -> tuple:
    return (
        res.elapsed_s,
        res.messages,
        res.bytes_sent,
        tuple(res.values),
        tuple(res.compute_seconds),
    )


class TestWorkerInvariance:
    def test_mixed_traffic_program(self):
        """p2p + collectives at 64 ranks: every surface field matches."""

        def program(ctx):
            right = (ctx.rank + 1) % ctx.size
            req = ctx.isend(np.arange(8) + ctx.rank, dest=right, tag=3)
            data = yield from ctx.recv(tag=3)
            yield from ctx.wait(req)
            total = yield from ctx.allreduce(int(data[0]), op="sum")
            yield from ctx.barrier()
            return total

        world = MPIWorld.for_cores(64)
        base = None
        for w in WORKER_COUNTS:
            res = world.run(program, parallel=ParallelConfig(workers=w))
            fp = _fingerprint(res)
            if base is None:
                base = fp
            else:
                assert fp == base, f"workers={w} diverged"

    @pytest.mark.parametrize("ranks,m", [(512, 512), (2048, 256)])
    def test_directsend_frame(self, ranks, m):
        """The paper's compositing pattern at 512 and 2048 ranks."""
        schedule = _virtual_schedule(ranks, m)
        program = _directsend_program(schedule)
        world = MPIWorld.for_cores(ranks)
        base = None
        for w in WORKER_COUNTS:
            res = world.run(program, parallel=ParallelConfig(workers=w))
            fp = _fingerprint(res)
            if base is None:
                base = fp
            else:
                assert fp == base, f"workers={w} diverged at n={ranks}"
        assert base[1] > 0  # the schedule actually moved messages

    def test_pipeline_frame_bitwise(self):
        """Full rendering pipeline: FrameResult timing, message/byte
        counts and the image hash are identical for every worker count
        (and the image matches the monolithic engine's)."""
        from repro.core import ParallelVolumeRenderer
        from repro.data import SupernovaModel, extract_variable_raw
        from repro.pio import RawHandle
        from repro.render import Camera, TransferFunction

        grid = (16, 16, 16)
        model = SupernovaModel(grid, seed=9, time=0.4)
        handle = RawHandle(extract_variable_raw(model, "density"))
        camera = Camera.looking_at_volume(grid, width=32, height=32)
        tf = TransferFunction.supernova(*model.value_range("density"))

        def frame(parallel):
            renderer = ParallelVolumeRenderer(
                MPIWorld.for_cores(512), camera, tf, parallel=parallel
            )
            result = renderer.render_frame(handle)
            digest = hashlib.sha256(
                np.ascontiguousarray(result.image).tobytes()
            ).hexdigest()
            return result, digest

        base = None
        for w in WORKER_COUNTS:
            result, digest = frame(ParallelConfig(workers=w))
            fp = (
                float(result.timing.total_s),
                float(result.timing.composite_s),
                result.messages,
                result.bytes_sent,
                digest,
            )
            if base is None:
                base = fp
            else:
                assert fp == base, f"workers={w} diverged"
        # The parallel backend changes send-completion semantics, so
        # simulated time differs slightly from the monolithic engine —
        # but the rendered pixels must be identical.
        mono, mono_digest = frame(None)
        assert mono_digest == base[4]

    def test_fault_plan_invariance(self):
        """A mid-stream node crash: in-flight messages to the dead
        node are lost, and the merged FaultReport (counts, dead set,
        availability/goodput) matches for every worker count."""
        from repro.fault import FaultPlan
        from repro.fault.plan import IOStraggler, NodeCrash
        from repro.utils.errors import RankFailed

        def program(ctx):
            # Fire-and-forget stream at a fixed offset; senders wait on
            # injection completion only, so a dead receiver loses the
            # message without blocking anyone.
            target = (ctx.rank + 16) % ctx.size
            reqs = []
            for _ in range(5):
                yield 1e-5
                try:
                    reqs.append(ctx.isend(VirtualPayload(2048), dest=target, tag=1))
                except RankFailed:
                    return -1
            yield from ctx.waitall(reqs)
            return ctx.rank

        plan = FaultPlan(
            node_crashes=(NodeCrash(3.3e-5, node=3),),
            io_stragglers=(IOStraggler(5, 1e-3),),
        )
        world = MPIWorld.for_cores(128)
        base = None
        for w in (1, 2, 4, 8):
            res = world.run(
                program, fault=plan, check_leaks=False,
                parallel=ParallelConfig(workers=w),
            )
            r = res.fault
            fp = _fingerprint(res) + (
                r.crashes, tuple(r.dead_ranks), r.messages_lost,
                r.straggler_delay_s, r.availability, r.goodput, r.mttr_s,
            )
            if base is None:
                base = fp
            else:
                assert fp == base, f"workers={w} diverged under faults"
        assert base[5] == 1  # the crash fired
        assert base[7] > 0  # and in-flight messages were actually lost


class TestConfigValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            ParallelConfig(workers=0)

    def test_message_faults_rejected(self):
        from repro.fault import FaultPlan

        plan = FaultPlan(drop_prob=0.1)
        world = MPIWorld.for_cores(8)
        with pytest.raises(ConfigError, match="drop/dup"):
            world.run(
                lambda ctx: iter(()), fault=plan,
                parallel=ParallelConfig(workers=2),
            )


class TestShardLayout:
    def test_contiguous_covers_all_nodes(self):
        layout = ShardLayout.contiguous(13, 4)
        seen = []
        for s in range(layout.num_shards):
            block = list(layout.nodes_of(s))
            assert all(layout.shard_of_node(n) == s for n in block)
            seen.extend(block)
        assert seen == list(range(13))

    def test_worker_groups_partition_shards(self):
        layout = ShardLayout.contiguous(64)
        for workers in (1, 2, 3, 4, 8, 16):
            groups = layout.workers_for(workers)
            flat = [s for g in groups for s in g]
            assert flat == list(range(layout.num_shards))
            assert all(g for g in groups)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ConfigError):
            ShardLayout.contiguous(4, 8)
