"""The one schedule builder against the brute-force oracle.

``repro.compositing.schedule`` enumerates every block-footprint x tile
overlap in one vectorised pass; ``_schedule_oracle`` is the per-block,
per-tile loop it replaced.  The contract is element-wise equality of
``(src, tile, pixels)`` *in order* — every message-order-dependent pin
(DES timings, contract digests) rests on that order.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _schedule_oracle import oracle_footprints, oracle_messages, oracle_schedule
from repro.compositing import schedule as schedule_module
from repro.compositing.schedule import build_schedule, schedule_from_geometry
from repro.compositing.tiles import TileDecomposition
from repro.model.composite import CompositeTimeModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError

PRIME_DIMS = [6, 7, 11, 13, 17, 23, 29, 31, 37, 40]
BLOCK_COUNTS = [1, 2, 3, 4, 5, 8, 12, 16, 27, 30, 64]
IMAGE_DIMS = [17, 33, 47, 64, 95, 129]


def triples(schedule):
    return list(zip(schedule.src.tolist(), schedule.tile.tolist(), schedule.pixels.tolist()))


@st.composite
def configurations(draw):
    """(decomposition, camera, m, strips): uneven bricks, m <= n, odd
    images, perspective / orthographic views, eyes inside the volume."""
    grid = tuple(draw(st.sampled_from(PRIME_DIMS)) for _ in range(3))
    n = draw(st.sampled_from(BLOCK_COUNTS))
    try:
        dec = BlockDecomposition(grid, n)
    except ConfigError:  # more blocks than voxels along an axis
        assume(False)
    width, height = draw(st.sampled_from(IMAGE_DIMS)), draw(st.sampled_from(IMAGE_DIMS))
    view = dict(
        width=width,
        height=height,
        azimuth_deg=draw(st.floats(-180, 180)),
        elevation_deg=draw(st.floats(-85, 85)),
        fov_deg=draw(st.sampled_from([20.0, 30.0, 60.0])),
        # < ~0.5 puts the eye inside the volume: boxes reach behind it.
        distance_factor=draw(st.sampled_from([0.05, 0.2, 0.45, 0.8, 1.5, 2.2, 4.0])),
    )
    cam = Camera.looking_at_volume(grid, **view)
    if draw(st.booleans()):
        cam = Camera(
            tuple(cam.eye), tuple(cam.center), fov_deg=cam.fov_deg,
            width=width, height=height, orthographic=True,
        )
    m, strips = draw(st.integers(1, n)), draw(st.booleans())
    try:
        TileDecomposition(width, height, m, strips=strips)
    except ConfigError:  # a prime m wider than the image
        assume(False)
    return dec, cam, m, strips


class TestAgainstOracle:
    @settings(max_examples=250, deadline=None)
    @given(configurations())
    def test_messages_equal_oracle_in_order(self, config):
        dec, cam, m, strips = config
        sched = schedule_from_geometry(dec, cam, m, strips=strips, cache=False)
        expected = oracle_schedule(dec, cam, m, strips=strips)
        assert triples(sched) == expected
        assert [tuple(msg) for msg in sched.messages] == expected
        assert [msg.nbytes for msg in sched.messages] == sched.sizes.tolist()
        assert sched.total_messages == len(expected)
        assert sched.total_bytes == sum(msg.nbytes for msg in sched.messages)
        # The grouped views are order-preserving filters of the one list.
        for t in range(-1, m + 1):
            assert sched.incoming(t) == [msg for msg in sched.messages if msg.tile == t]
        for s in range(-1, dec.num_blocks + 1):
            assert sched.outgoing(s) == [msg for msg in sched.messages if msg.src == s]

    def test_eye_inside_volume_takes_the_whole_frame(self):
        """A block that reaches behind the eye gets the conservative
        full-frame footprint (what the functional path always did),
        not the model builder's old "blocks project behind the camera"
        error."""
        grid = (16, 16, 16)
        dec = BlockDecomposition(grid, 8)
        cam = Camera((7.5, 7.5, 7.5), (7.5, 7.5, 30.0), width=48, height=40)
        footprints = oracle_footprints(dec, cam)
        assert (0, 0, 48, 40) in footprints
        assert [cam.footprint(*bounds) for bounds in zip(*dec.world_bounds())] == footprints
        sched = schedule_from_geometry(dec, cam, 6, cache=False)
        assert triples(sched) == oracle_schedule(dec, cam, 6)
        whole = footprints.index((0, 0, 48, 40))
        assert sum(msg.pixels for msg in sched.outgoing(whole)) == 48 * 40

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_build_schedule_with_none_footprints(self, data):
        width, height = data.draw(st.sampled_from(IMAGE_DIMS)), data.draw(st.sampled_from(IMAGE_DIMS))
        m = data.draw(st.integers(1, 12))
        tiles = TileDecomposition(width, height, m, strips=data.draw(st.booleans()))
        rect = st.builds(
            lambda x0, y0, x1, y1: (min(x0, x1), min(y0, y1), abs(x1 - x0), abs(y1 - y0)),
            st.integers(0, width), st.integers(0, height),
            st.integers(0, width), st.integers(0, height),
        )
        footprints = data.draw(st.lists(st.none() | rect, min_size=m, max_size=m + 6))
        sched = build_schedule(footprints, tiles, m)
        assert sched.num_renderers == len(footprints)
        assert triples(sched) == oracle_messages(footprints, tiles)


class TestModelReadsArraysOnly:
    def test_pricing_8192_ranks_builds_no_message_record(self, monkeypatch):
        class Forbidden:
            @staticmethod
            def _make(_fields):
                raise AssertionError("the model path materialised a CompositeMessage")

        monkeypatch.setattr(schedule_module, "CompositeMessage", Forbidden)
        grid = (1120, 1120, 1120)
        sched = schedule_from_geometry(
            BlockDecomposition(grid, 8192),
            Camera.looking_at_volume(grid, width=1600, height=1600),
            8192,
            cache=False,
        )
        priced = CompositeTimeModel().price(sched)
        assert priced.num_messages == sched.total_messages == 341_588
        assert priced.total_bytes == int(sched.sizes.sum())
        with pytest.raises(AssertionError, match="materialised"):
            sched.messages
