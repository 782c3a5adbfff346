"""Fig. 1 — "Visualization of the X component of velocity in a
core-collapse supernova."

Renders the synthetic supernova's vx field through the full functional
pipeline (collective netCDF read -> parallel ray casting -> direct-send
compositing).  The result file records the sha256 of the float RGBA
image, so regenerating it diffs the whole pipeline's pixels; the PPM
beside it is for viewing and is not tracked.
"""

import hashlib

from benchmarks.conftest import write_result
from repro.core import ParallelVolumeRenderer
from repro.data import SupernovaModel, write_vh1_netcdf
from repro.pio import IOHints, NetCDFHandle
from repro.render import Camera, TransferFunction
from repro.render.image import image_to_ppm
from repro.vmpi import MPIWorld

GRID = (32, 32, 32)
IMAGE = 96


def test_fig01_supernova_image(benchmark, results_dir):
    model = SupernovaModel(GRID, seed=1530, time=0.8)
    nc = write_vh1_netcdf(model)
    handle = NetCDFHandle(nc, "vx")
    cam = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE, azimuth_deg=35, elevation_deg=20)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    pvr = ParallelVolumeRenderer(
        MPIWorld.for_cores(16),
        cam,
        tf,
        step=0.7,
        hints=IOHints(cb_buffer_size=1 << 16, cb_nodes=4),
    )

    result = benchmark.pedantic(pvr.render_frame, args=(handle,), rounds=1, iterations=1)

    image = result.image
    assert image.shape == (IMAGE, IMAGE, 4)
    alpha = image[..., 3]
    assert alpha.max() > 0.5, "the supernova should be clearly visible"
    assert alpha.min() == 0.0, "background stays transparent"
    # Signed velocity -> both warm and cold lobes must appear.
    warm = image[..., 0] > image[..., 2] + 0.05
    cold = image[..., 2] > image[..., 0] + 0.05
    assert warm.any() and cold.any(), "vx should show positive and negative lobes"

    (results_dir / "fig01_supernova.ppm").write_bytes(image_to_ppm(image))
    coverage = float((alpha > 0.05).mean())
    write_result(
        results_dir,
        "fig01_quickstart_image",
        "Fig. 1 reproduction: synthetic supernova, X velocity\n"
        f"  grid {GRID}, image {IMAGE}^2, 16 ranks, direct-send compositing\n"
        f"  frame timing: {result.timing}\n"
        f"  image coverage: {100 * coverage:.1f}% of pixels non-empty\n"
        f"  image sha256 (float32 RGBA): {hashlib.sha256(image.tobytes()).hexdigest()}\n"
        f"  saved: fig01_supernova.ppm",
    )
    benchmark.extra_info["coverage"] = coverage
