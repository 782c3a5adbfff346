"""The package's front door: top-level imports and versioning."""

import os
import subprocess
import sys

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_one_liner_workflow(self):
        """The README quickstart, minified."""
        grid = (8, 8, 8)
        model = repro.SupernovaModel(grid, seed=1)
        handle = repro.NetCDFHandle(repro.write_vh1_netcdf(model), "vx")
        cam = repro.Camera.looking_at_volume(grid, width=12, height=12)
        tf = repro.TransferFunction.supernova(*model.value_range("vx"))
        pvr = repro.ParallelVolumeRenderer(repro.MPIWorld.for_cores(4), cam, tf)
        frame = pvr.render_frame(handle)
        assert frame.image.shape == (12, 12, 4)
        assert frame.timing.total_s > 0

    def test_model_entry_point(self):
        fm = repro.FrameModel(repro.DATASETS["1120"])
        assert fm.estimate(64).total_s > 0

    def test_import_does_not_load_scipy(self):
        """scipy is a test-only dependency: with it blocked, a dataset is
        synthesized, written as netCDF and rendered on 8 ranks."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import repro, repro.cli\n"
            "grid = (16, 16, 16)\n"
            "model = repro.SupernovaModel(grid, seed=1530, time=0.5)\n"
            "handle = repro.NetCDFHandle(repro.write_vh1_netcdf(model), 'vx')\n"
            "cam = repro.Camera.looking_at_volume(grid, width=16, height=16)\n"
            "tf = repro.TransferFunction.supernova(*model.value_range('vx'))\n"
            "pvr = repro.ParallelVolumeRenderer(repro.MPIWorld.for_cores(8), cam, tf)\n"
            "frame = pvr.render_frame(handle)\n"
            "assert frame.image.shape == (16, 16, 4) and frame.image.any()\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
