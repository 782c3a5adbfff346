"""Parallel ray-casting volume rendering (the paper's Sec. III-B2).

The renderer is sort-last: the volume is divided into regular blocks,
each rank ray-casts its own block into a *partial image* over the
block's screen footprint, and compositing (a separate package) blends
partial images in depth order.

Correctness invariant, enforced by property tests: rendering N blocks
and compositing them equals rendering the whole volume as one block,
because samples are taken at *globally aligned* ray parameters — every
sample point belongs to exactly one block, and the over operator is
associative over the resulting per-block segments.
"""

from repro.render.transfer import TransferFunction
from repro.render.camera import Camera
from repro.render.volume import VolumeBlock
from repro.render.decomposition import BlockDecomposition, Block3D
from repro.render.image import PartialImage, composite_over, blank_image, image_to_ppm
from repro.render.raycast import (
    RayPlan,
    build_ray_plan,
    render_block,
    render_volume_serial,
)
from repro.render.multivariate import (
    MultivariateTransfer,
    render_block_multivar,
    render_multivar_serial,
)
from repro.render.ghost import ghost_exchange

__all__ = [
    "MultivariateTransfer",
    "render_block_multivar",
    "render_multivar_serial",
    "ghost_exchange",
    "TransferFunction",
    "Camera",
    "VolumeBlock",
    "BlockDecomposition",
    "Block3D",
    "PartialImage",
    "composite_over",
    "blank_image",
    "image_to_ppm",
    "RayPlan",
    "build_ray_plan",
    "render_block",
    "render_volume_serial",
]
