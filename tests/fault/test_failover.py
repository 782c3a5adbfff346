"""Compositor failover: conservation property + the 2048-rank acceptance run.

The conservation invariant: after re-partitioning dead compositors'
tiles among survivors, the owned rectangles — surviving tiles plus
adopted strips — tile the image exactly (full union, zero overlap).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compositing.dfb import dfb_compose_failover
from repro.compositing.directsend import (
    assemble_tiles,
    direct_send_compose_failover,
)
from repro.compositing.schedule import schedule_from_geometry
from repro.fault import FaultPlan, NodeCrash, compile_fault_plan
from repro.fault.failover import (
    check_exact_cover,
    coverage_rects,
    failover_assignments,
    split_rect_rows,
)
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage
from repro.vmpi.runner import MPIWorld


def _schedule(ranks: int, grid: int, image: int):
    cam = Camera.looking_at_volume((grid,) * 3, width=image, height=image)
    dec = BlockDecomposition((grid,) * 3, ranks)
    return schedule_from_geometry(dec, cam, ranks)


class TestSplitRectRows:
    def test_partitions_exactly(self):
        strips = split_rect_rows((3, 5, 10, 7), 3)
        check_exact_cover([(x - 3, y - 5, w, h) for x, y, w, h in strips], 10, 7)

    def test_degenerate_rects_yield_nothing(self):
        assert split_rect_rows((0, 0, 0, 5), 2) == []
        assert split_rect_rows((0, 0, 5, 0), 2) == []
        assert split_rect_rows((0, 0, 5, 5), 0) == []

    def test_never_more_strips_than_rows(self):
        assert len(split_rect_rows((0, 0, 8, 3), 16)) == 3


class TestConservationProperty:
    """Randomized dead sets over real schedules: exact cover always holds."""

    @pytest.mark.parametrize("ranks,image", [(16, 64), (64, 128)])
    def test_exact_cover_under_random_dead_sets(self, ranks, image):
        sched = _schedule(ranks, 32, image)
        rng = np.random.default_rng(ranks * 1000 + image)
        for trial in range(25):
            # Kill between 1 and all-but-one compositors.
            k = int(rng.integers(1, sched.num_compositors))
            dead = rng.choice(sched.num_compositors, size=k, replace=False)
            assignments = failover_assignments(sched, dead)
            rects = coverage_rects(sched, dead, assignments)
            check_exact_cover(rects, image, image)

    def test_all_dead_is_total_loss(self):
        sched = _schedule(16, 32, 64)
        dead = range(sched.num_compositors)
        assert failover_assignments(sched, dead) == {}

    def test_deterministic_and_local(self):
        # Every rank computes assignments independently; the function
        # must be a pure function of (schedule, dead set).
        sched = _schedule(16, 32, 64)
        a = failover_assignments(sched, [3, 7, 11])
        b = failover_assignments(sched, [11, 3, 7])
        assert a == b


#: The small crash scenario, captured against the pre-refactor source:
#: backend -> (canvas sha256, messages, bytes_sent, elapsed_s,
#: messages_lost, mttr_s).  Direct-send batches its fan-out at t=0, so
#: 33 pieces die with their compositors; DFB streams under a 10 ms
#: march, learns of the crash first, and never posts them.
FAILOVER_PINS = {
    "directsend": (
        "543aa2b7a854dfd8e06326347b97b5397345c421fb9fb3b8c0c2559172797ab6",
        205, 467968, 0.0012755341176470586, 33, 0.0008801700490196074,
    ),
    "dfb": (
        "543aa2b7a854dfd8e06326347b97b5397345c421fb9fb3b8c0c2559172797ab6",
        172, 332800, 0.010933143529411755, 0, 0.01048436014705882,
    ),
}

DFB_RENDER_S = 0.01  # a real march time, so the crash lands mid-stream

FAILOVER_COMPOSERS = {
    "directsend": direct_send_compose_failover,
    "dfb": lambda ctx, partial, sched: dfb_compose_failover(
        ctx, partial, sched, DFB_RENDER_S
    ),
}


@pytest.mark.parametrize("backend", sorted(FAILOVER_PINS))
class TestTileFailover:
    """Both tile-routed backends share one failover protocol."""

    RANKS, IMAGE = 16, 64

    def _run(self, backend, paint, plan):
        image = self.IMAGE
        sched = _schedule(self.RANKS, 32, image)
        compose = FAILOVER_COMPOSERS[backend]

        def program(ctx):
            px = np.zeros((image, image, 4), np.float32)
            paint(px, ctx.rank)
            partial = PartialImage((0, 0, image, image), px, float(ctx.rank))
            return (yield from compose(ctx, partial, sched))

        return sched, MPIWorld.for_cores(self.RANKS).run(program, fault=plan)

    def test_small_world_recovers_full_canvas(self, backend):
        """Real pixels: crash one node's compositors, canvas stays fully owned."""
        image = self.IMAGE

        def paint(px, rank):
            # A solid-colour footprint covering the whole image keeps
            # the geometry trivial while exercising the full protocol.
            px[..., rank % 3] = 0.05
            px[..., 3] = 0.05

        plan = FaultPlan(
            node_crashes=(NodeCrash(1e-5, 0),), detect_s=1e-4, seed=11
        )
        sched, res = self._run(backend, paint, plan)

        # One node in VN mode carries 4 ranks; all must be dead.
        dead = {r for r, v in enumerate(res.values) if v is None}
        assert len(dead) == 4
        rects = [rect for v in res.values if v for rect, _ in v]
        check_exact_cover(rects, image, image)
        canvas = assemble_tiles(res.values, image, image)
        assert canvas.shape == (image, image, 4)
        # Survivors' radiance reaches every pixel, so nothing is blank.
        assert float(canvas[..., 3].min()) > 0.0
        rep = res.fault
        assert rep is not None
        assert rep.crashes == 1
        # Each dead compositor tile yields at least one recovered strip.
        dead_tiles = {t for t in dead if t < sched.num_compositors}
        assert rep.recoveries >= len(dead_tiles) > 0

        sha, messages, nbytes, elapsed_s, lost, mttr_s = FAILOVER_PINS[backend]
        assert hashlib.sha256(canvas.tobytes()).hexdigest() == sha
        assert res.messages == messages
        assert res.bytes_sent == nbytes
        assert res.elapsed_s == elapsed_s
        assert rep.dead_ranks == (0, 4, 8, 12)
        assert rep.messages_lost == lost
        assert rep.recoveries == 48
        assert rep.mttr_s == mttr_s

    def test_no_crash_plan_delegates_to_fast_path(self, backend):
        def paint(px, rank):
            px[...] = 0.03

        _sched, res = self._run(backend, paint, FaultPlan(drop_prob=0.0, seed=1))
        rects = [rect for v in res.values if v for rect, _ in v]
        check_exact_cover(rects, self.IMAGE, self.IMAGE)
        assert res.fault is not None and res.fault.crashes == 0


class TestAcceptance2048:
    def test_directsend_2048_survives_one_percent_crashes(self):
        """The ISSUE acceptance run: 2048 ranks, 512^2 image, 1% of
        nodes crash mid-frame; the frame completes via failover with
        full coverage and a fault report carrying availability/MTTR."""
        ranks, image = 2048, 512
        sched = _schedule(ranks, 96, image)
        plan = compile_fault_plan(
            29,
            num_nodes=ranks // 4,  # VN mode: 4 ranks per node
            duration_s=0.05,
            crash_frac=0.01,
        )
        assert len(plan.node_crashes) == 5  # 1% of 512 nodes

        def program(ctx):
            # partial=None: virtual geometry-only phase, same protocol.
            res = yield from direct_send_compose_failover(ctx, None, sched)
            return res

        world = MPIWorld.for_cores(ranks)
        res = world.run(program, fault=plan)

        dead = {r for r, v in enumerate(res.values) if v is None}
        assert len(dead) == 20  # 5 nodes x 4 ranks
        rects = [rect for v in res.values if v for rect, _ in v]
        check_exact_cover(rects, image, image)

        rep = res.fault
        assert rep is not None
        assert rep.crashes == 5
        assert 0.0 < rep.availability < 1.0
        assert rep.mttr_s > 0.0
        dead_tiles = {r for r in dead if r < sched.num_compositors}
        assert rep.recoveries >= len(dead_tiles) > 0
