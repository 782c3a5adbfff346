"""The pipeline's compositor plumbing: pins and parity.

The bitwise pins are the PR's non-regression contract: a zero-fault
default (direct-send) frame must be byte-identical to the pre-registry
pipeline — same pixels, same message totals, same stage seconds.  The
hashes below were captured from the pipeline before the backend
registry existed and verified identical after it.  The 16^3 / 8-rank
frame was re-pinned once, when partials began to sort by
``Camera.visibility_key`` instead of their box centre's distance: 84 of
its 2,304 pixels moved by one float32 ulp, and its error against the
whole-volume render stayed 9.95e-4.
"""

import hashlib

import numpy as np
import pytest

from repro.core import ParallelVolumeRenderer
from repro.data import SupernovaModel, write_vh1_netcdf
from repro.pio import IOHints, NetCDFHandle
from repro.render import Camera, TransferFunction
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

#: (grid, cores, image, step) -> sha256 of the float32 RGBA frame,
#: messages, bytes on the wire.  Captured pre-registry (see module doc).
PINNED = {
    (16, 8, 48, 0.8): (
        "df7282e34c95e9caf31cea3c9fdcc005f7d20d94d09d6414358ac8d67fead6d5",
        69, 147216,
    ),
    (24, 16, 64, 0.7): (
        "aca1c761789ecbc440810e90a026a431ca9af1f06897589bf1d44b38cb07c0cd",
        181, 347440,
    ),
}


def render(grid, cores, image, step, **kwargs):
    model = SupernovaModel((grid,) * 3, seed=1530)
    cam = Camera.looking_at_volume((grid,) * 3, width=image, height=image)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
    pvr = ParallelVolumeRenderer(
        MPIWorld.for_cores(cores), cam, tf, step=step,
        hints=IOHints(cb_buffer_size=1 << 16, cb_nodes=cores // 4),
        **kwargs,
    )
    return pvr.render_frame(handle)


class TestBitwisePins:
    @pytest.mark.parametrize("config", sorted(PINNED))
    def test_default_directsend_frame_is_frozen(self, config):
        sha, messages, nbytes = PINNED[config]
        res = render(*config)
        assert res.compositor == "directsend"
        assert hashlib.sha256(res.image.tobytes()).hexdigest() == sha
        assert res.messages == messages
        assert res.bytes_sent == nbytes

    def test_dfb_reproduces_the_pinned_frame(self):
        """Same ownership map, same pixels — only the timing moves."""
        config = (16, 8, 48, 0.8)
        sha, messages, nbytes = PINNED[config]
        res = render(*config, compositor="dfb")
        assert hashlib.sha256(res.image.tobytes()).hexdigest() == sha
        assert res.messages == messages
        assert res.bytes_sent == nbytes

    def test_zero_budget_puzzlepiece_reproduces_the_pinned_frame(self):
        config = (16, 8, 48, 0.8)
        sha, messages, _nbytes = PINNED[config]
        res = render(*config, compositor="puzzlepiece")
        assert hashlib.sha256(res.image.tobytes()).hexdigest() == sha
        assert res.messages == messages


class TestBackendSelection:
    def test_unknown_compositor_fails_at_construction(self):
        model = SupernovaModel((12,) * 3, seed=1)
        cam = Camera.looking_at_volume((12,) * 3, width=16, height=16)
        tf = TransferFunction.supernova(*model.value_range("vx"))
        with pytest.raises(ConfigError, match="unknown compositor"):
            ParallelVolumeRenderer(
                MPIWorld.for_cores(4), cam, tf, compositor="spl4tting"
            )

    def test_result_carries_compositor_and_stats(self):
        res = render(16, 8, 48, 0.8, compositor="puzzlepiece", error_budget=0.05)
        assert res.compositor == "puzzlepiece"
        assert res.compose_stats is not None
        assert res.compose_stats["pieces_dropped"] > 0
        assert res.compose_stats["error_bound"] <= 0.05

    def test_every_backend_renders_the_same_scene(self):
        exact = render(16, 8, 48, 0.8)
        for name in ("dfb", "binaryswap", "radixk", "serial"):
            res = render(16, 8, 48, 0.8, compositor=name)
            assert np.allclose(res.image, exact.image, atol=1e-5), name

    def test_frame_timing_reconciles_across_backends(self):
        for name in ("directsend", "dfb", "puzzlepiece"):
            res = render(16, 8, 48, 0.8, compositor=name)
            t = res.timing
            assert t.io_s > 0 and t.render_s > 0 and t.composite_s > 0
            assert t.total_s == pytest.approx(t.io_s + t.render_s + t.composite_s)
