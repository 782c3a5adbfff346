"""Composite model: the all-block footprint pass against one box at a
time, and the contention behaviours behind Figs. 3-4.  (Message-for-message equality
of the schedule with its brute-force oracle lives in
``tests/compositing/test_schedule_oracle.py``.)"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compositing.policy import IDENTITY_POLICY, PAPER_POLICY
from repro.compositing.schedule import CompositeSchedule
from repro.compositing.tiles import TileDecomposition
from repro.model.composite import CompositeTimeModel
from repro.model.pipeline import DATASETS, FrameModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition


class TestVectorizedScheduleConsistency:
    def test_footprints_match_camera(self):
        grid = (16, 16, 16)
        cam = Camera.looking_at_volume(grid, width=64, height=48)
        dec = BlockDecomposition(grid, 8)
        rects = cam.footprints(*dec.world_bounds())
        for b in dec.blocks():
            z, y, x = b.start
            lo = np.array([x, y, z], dtype=float)
            hi = np.array(
                [
                    min(x + b.count[2], 15),
                    min(y + b.count[1], 15),
                    min(z + b.count[0], 15),
                ],
                dtype=float,
            )
            expected = cam.footprint(lo, hi)
            assert expected == tuple(rects[b.index])


class TestContentionBehaviours:
    @pytest.fixture(scope="class")
    def fm(self):
        return FrameModel(DATASETS["1120"])

    def test_original_flat_through_1k(self, fm):
        times = [fm.composite_stage(c, IDENTITY_POLICY).seconds for c in (64, 256, 1024)]
        assert max(times) < 2.5 * min(times)
        assert max(times) < 0.3

    def test_original_blows_up_beyond_8k(self, fm):
        """Fig. 3: beyond 8K the compositing time exceeds rendering."""
        c16 = fm.composite_stage(16384, IDENTITY_POLICY).seconds
        r16 = fm.render_stage(16384).seconds
        assert c16 > r16
        c8 = fm.composite_stage(8192, IDENTITY_POLICY).seconds
        r8 = fm.render_stage(8192).seconds
        assert c8 < 1.2 * r8  # at 8K they are comparable, not yet blown up

    def test_improvement_factor_at_32k(self, fm):
        """~30x faster compositing with 2K compositors at 32K cores."""
        orig = fm.composite_stage(32768, IDENTITY_POLICY).seconds
        improved = fm.composite_stage(32768, PAPER_POLICY).seconds
        assert 15 < orig / improved < 60

    def test_frame_reduction_around_24pct(self, fm):
        e = fm.estimate(32768)
        o = fm.estimate_original(32768)
        reduction = 1 - e.total_s / o.total_s
        assert 0.12 < reduction < 0.35

    def test_improved_stays_subsecond_everywhere(self, fm):
        for cores in (1024, 4096, 16384, 32768):
            assert fm.composite_stage(cores, PAPER_POLICY).seconds < 0.5

    def test_message_size_shrinks_with_cores(self, fm):
        """Fig. 4's x-axis pairing: more processors, smaller messages."""
        s1 = fm.composite_stage(1024, IDENTITY_POLICY).mean_message_bytes
        s32 = fm.composite_stage(32768, IDENTITY_POLICY).mean_message_bytes
        assert s32 < s1 / 8

    def test_achieved_bandwidth_falls_off_peak(self, fm):
        """Fig. 4: original scheme's bandwidth collapses at scale."""
        small = fm.composite_stage(1024, IDENTITY_POLICY)
        big = fm.composite_stage(32768, IDENTITY_POLICY)
        assert big.achieved_bandwidth_Bps < small.achieved_bandwidth_Bps

    def test_empty_schedule_priced_as_setup(self):
        m = CompositeTimeModel()
        empty = CompositeSchedule(4, 2, TileDecomposition(8, 8, 2), [], [], [])
        assert m.price(empty).seconds == m.c.setup_s


def _endpoint_oracle(model: CompositeTimeModel, schedule: CompositeSchedule) -> float:
    """Busiest endpoint, in plain Python: each renderer's sends and each
    compositor's receives cost ``sw_overhead + wire`` apiece, in order."""
    link = model.c.link
    busy: dict[tuple[str, int], float] = {}
    for msg in schedule.messages:
        s = max(float(msg.nbytes), 1.0)
        eta = s / (s + link.s_half_bytes)
        cost = link.sw_overhead_s + msg.nbytes / (link.bandwidth_Bps * eta)
        for key in (("send", msg.src), ("recv", msg.tile)):
            busy[key] = busy.get(key, 0.0) + cost
    return max(busy.values(), default=0.0)


@st.composite
def _schedules(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    k = draw(st.integers(0, 40))
    src = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    tile = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    pixels = draw(st.lists(st.integers(0, 1 << 16), min_size=k, max_size=k))
    return CompositeSchedule(n, m, TileDecomposition(16, 16, m), src, tile, pixels)


class TestEndpointOracle:
    @settings(max_examples=60, deadline=None)
    @given(_schedules())
    def test_endpoint_matches_per_message_sum(self, schedule):
        m = CompositeTimeModel()
        assert m.price(schedule).endpoint_s == _endpoint_oracle(m, schedule)

    def test_hot_spot_receiver_dominates(self):
        """Many renderers, one tile: the compositor's serialized receive
        is the endpoint time, 32 renderers' worth of messages."""
        n = 32
        schedule = CompositeSchedule(
            n, 1, TileDecomposition(16, 16, 1), range(n), [0] * n, [3125] * n
        )
        m = CompositeTimeModel()
        priced = m.price(schedule).endpoint_s
        assert priced == _endpoint_oracle(m, schedule)
        one = m.c.link.sw_overhead_s + m.c.link.wire_s(float(schedule.sizes[0]))
        assert priced == pytest.approx(n * one, rel=1e-12)
