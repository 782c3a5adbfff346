"""In-situ coupling: frames match post-hoc rendering, no I/O in loop."""

import numpy as np
import pytest

from repro.data.synthetic import supernova_field
from repro.insitu import AdvectionDiffusionSim, InSituPipeline
from repro.render import Camera, TransferFunction, render_volume_serial
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

GRID = (12, 12, 12)
STEP = 0.8


@pytest.fixture
def setup():
    sim = AdvectionDiffusionSim(GRID, omega=0.1, kappa=0.04)
    cam = Camera.looking_at_volume(GRID, width=28, height=28)
    tf = TransferFunction.grayscale_ramp(0, 1.6)
    field = supernova_field(GRID, "density", seed=6)
    world = MPIWorld.for_cores(8)
    return sim, cam, tf, field, world


class TestInSitu:
    def test_frames_match_posthoc_render(self, setup):
        """The in-situ image of step k equals rendering the serial
        solver's step-k state after the fact."""
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=3, render_every=1)
        assert len(result.frames) == 3
        u = field
        for k, frame in enumerate(result.frames, start=1):
            u = sim.step_serial(u)
            ref = render_volume_serial(cam, u, tf, step=STEP)
            assert np.abs(frame - ref).max() < 5e-3, f"frame {k}"
        assert np.array_equal(result.final_field, u)

    def test_render_every_skips_frames(self, setup):
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=4, render_every=2)
        assert len(result.frames) == 2

    def test_no_io_stage(self, setup):
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=2, render_every=2)
        assert result.vis_seconds > 0
        assert result.sim_seconds > 0
        assert result.exchange_seconds > 0

    def test_invalid_args(self, setup):
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        with pytest.raises(ConfigError):
            pipe.run(field, steps=0)
        with pytest.raises(ConfigError):
            pipe.run(np.zeros((4, 4, 4), np.float32), steps=1)
