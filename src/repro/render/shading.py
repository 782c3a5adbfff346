"""Gradient (Phong/Lambert) shading for the ray caster.

Levoy's classic display of surfaces from volume data — the paper's
ref. [8] — shades samples by the local gradient of the scalar field.
``render_block_shaded`` mirrors :func:`repro.render.raycast.render_block`
with a central-difference normal per sample and a headlight-style
directional light; with one ghost layer the gradients at block faces
agree with the serial renderer exactly (the gradient stencil reaches at
most one voxel into the neighbour).
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.image import PartialImage
from repro.render.raycast import _march_dense, _whole_frame
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError


def gradient_at(block: VolumeBlock, points: np.ndarray, h: float = 1.0) -> np.ndarray:
    """Central-difference gradient of the field at world points."""
    if h <= 0:
        raise ConfigError(f"gradient step must be positive, got {h}")
    p = np.asarray(points, dtype=np.float64)
    g = np.empty_like(p)
    for axis in range(3):
        lo = p.copy()
        hi = p.copy()
        lo[..., axis] -= h
        hi[..., axis] += h
        g[..., axis] = (block.sample_world(hi) - block.sample_world(lo)) / (2 * h)
    return g


def _lambert(rgb: np.ndarray, grad: np.ndarray, light_dir: np.ndarray,
             ambient: float, diffuse: float) -> np.ndarray:
    norm = np.linalg.norm(grad, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        n = np.where(norm > 1e-9, grad / norm, 0.0)
    lam = np.abs(n @ light_dir)  # two-sided: volume "surfaces" face both ways
    shade = ambient + diffuse * lam
    return rgb * shade[..., None]


def render_block_shaded(
    camera: Camera,
    block: VolumeBlock,
    tf: TransferFunction,
    step: float = 1.0,
    light_dir: tuple[float, float, float] | None = None,
    ambient: float = 0.35,
    diffuse: float = 0.65,
    gradient_h: float = 1.0,
    early_termination: float = 0.999,
) -> PartialImage | None:
    """Ray-cast one block with gradient shading.

    ``light_dir`` defaults to a headlight (the camera's forward axis).
    Requires ghost >= ``gradient_h`` for exact block-parallel ==
    serial agreement.
    """
    light = np.asarray(
        light_dir if light_dir is not None else -camera.forward, dtype=np.float64
    )
    n = np.linalg.norm(light)
    if n == 0:
        raise ConfigError("light direction cannot be zero")
    light = light / n

    def classify(pts: np.ndarray):
        rgb, extinction = tf.sample(block.sample_world(pts))
        rgb = _lambert(rgb, gradient_at(block, pts, gradient_h), light, ambient, diffuse)
        return rgb, extinction

    return _march_dense(camera, block, step, early_termination, classify)


def render_shaded_serial(
    camera: Camera,
    data: np.ndarray,
    tf: TransferFunction,
    step: float = 1.0,
    **kwargs,
) -> np.ndarray:
    """Whole-volume shaded reference renderer."""
    return _whole_frame(
        camera, render_block_shaded(camera, VolumeBlock.whole(data), tf, step, **kwargs)
    )
