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
from repro.render.raycast import check_early_termination, check_step, ray_box_intersect
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
    check_step(step)
    check_early_termination(early_termination)
    light = np.asarray(
        light_dir if light_dir is not None else -camera.forward, dtype=np.float64
    )
    n = np.linalg.norm(light)
    if n == 0:
        raise ConfigError("light direction cannot be zero")
    light = light / n

    lo = block.world_lo
    hi = block.world_hi
    rect = camera.footprint(lo, hi)
    if rect is None:
        return None
    _x0, _y0, w, h = rect
    origins, dirs = camera.rays_for_rect(rect)
    t_enter, t_exit = ray_box_intersect(origins, dirs, lo, hi)
    hit = t_exit > t_enter
    if not np.any(hit):
        return None
    k_lo = np.where(hit, np.ceil(t_enter / step - 0.5), 0).astype(np.int64)
    k_hi = np.where(hit, np.ceil(t_exit / step - 0.5), 0).astype(np.int64)
    color = np.zeros((h, w, 3), dtype=np.float64)
    transmittance = np.ones((h, w), dtype=np.float64)
    samples = 0
    for k in range(int(k_lo[hit].min()), int(k_hi[hit].max())):
        active = hit & (k >= k_lo) & (k < k_hi) & (transmittance > 1.0 - early_termination)
        n_active = int(np.count_nonzero(active))
        if not n_active:
            continue
        samples += n_active
        t = (k + 0.5) * step
        pts = origins[active] + t * dirs[active]
        values = block.sample_world(pts)
        rgb, extinction = tf.sample(values)
        rgb = _lambert(rgb, gradient_at(block, pts, gradient_h), light, ambient, diffuse)
        alpha = 1.0 - np.exp(-extinction * step)
        contrib = transmittance[active] * alpha
        color[active] += contrib[:, None] * rgb
        transmittance[active] *= 1.0 - alpha
    alpha_total = 1.0 - transmittance
    if not np.any(alpha_total > 0):
        return None
    rgba = np.concatenate([color, alpha_total[..., None]], axis=-1).astype(np.float32)
    return PartialImage(rect, rgba, depth=camera.depth_of(block.world_center), samples=samples)


def render_shaded_serial(
    camera: Camera,
    data: np.ndarray,
    tf: TransferFunction,
    step: float = 1.0,
    **kwargs,
) -> np.ndarray:
    """Whole-volume shaded reference renderer."""
    from repro.render.image import blank_image, composite_over

    partial = render_block_shaded(camera, VolumeBlock.whole(data), tf, step, **kwargs)
    canvas = blank_image(camera.width, camera.height)
    if partial is None:
        return canvas
    return composite_over(canvas, [partial])
