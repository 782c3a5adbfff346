"""Multivariate volume rendering — the paper's Sec. V motivation.

"Reading these formats directly in the visualization eliminates the
need for costly preprocessing and affords the possibility to perform
multivariate visualizations in the future."

Two pieces:

* :class:`MultivariateTransfer` — colour from a primary field, opacity
  modulated by a second field (the classic two-field classification:
  e.g. colour by velocity, reveal only the dense shock shell).
* :func:`render_block_multivar` — the ray caster sampling both fields
  at the same globally aligned points, so block-parallel multivariate
  rendering composites exactly like the scalar case.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.image import PartialImage
from repro.render.raycast import check_early_termination, check_step, ray_box_intersect
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError


class MultivariateTransfer:
    """Colour/extinction from a primary field, gated by a modulator.

    ``extinction = primary_extinction * gate(modulator)`` where the
    gate ramps linearly from 0 to 1 over [gate_lo, gate_hi] of the
    modulating field's value range.
    """

    def __init__(
        self,
        primary: TransferFunction,
        gate_lo: float,
        gate_hi: float,
    ):
        if not gate_hi > gate_lo:
            raise ConfigError(f"gate_hi ({gate_hi}) must exceed gate_lo ({gate_lo})")
        self.primary = primary
        self.gate_lo = float(gate_lo)
        self.gate_hi = float(gate_hi)

    def sample(self, primary_values: np.ndarray, modulator_values: np.ndarray):
        rgb, extinction = self.primary.sample(primary_values)
        m = np.asarray(modulator_values, dtype=np.float64)
        gate = np.clip((m - self.gate_lo) / (self.gate_hi - self.gate_lo), 0.0, 1.0)
        return rgb, extinction * gate


def render_block_multivar(
    camera: Camera,
    primary: VolumeBlock,
    modulator: VolumeBlock,
    transfer: MultivariateTransfer,
    step: float = 1.0,
    early_termination: float = 0.999,
) -> PartialImage | None:
    """Ray-cast one block of a two-field dataset.

    Both blocks must describe the same region (same start/count); they
    may carry different ghost extents.
    """
    check_step(step)
    check_early_termination(early_termination)
    if primary.start != modulator.start or primary.count != modulator.count:
        raise ConfigError("primary and modulator blocks must cover the same region")
    lo = primary.world_lo
    hi = primary.world_hi
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
    k_min = int(k_lo[hit].min())
    k_max = int(k_hi[hit].max())
    color = np.zeros((h, w, 3), dtype=np.float64)
    transmittance = np.ones((h, w), dtype=np.float64)
    samples = 0
    for kk in range(k_min, k_max):
        active = hit & (kk >= k_lo) & (kk < k_hi) & (transmittance > 1.0 - early_termination)
        n_active = int(np.count_nonzero(active))
        if not n_active:
            continue
        samples += n_active
        t = (kk + 0.5) * step
        pts = origins[active] + t * dirs[active]
        rgb, extinction = transfer.sample(
            primary.sample_world(pts), modulator.sample_world(pts)
        )
        alpha = 1.0 - np.exp(-extinction * step)
        contrib = transmittance[active] * alpha
        color[active] += contrib[:, None] * rgb
        transmittance[active] *= 1.0 - alpha
    alpha_total = 1.0 - transmittance
    if not np.any(alpha_total > 0):
        return None
    rgba = np.concatenate([color, alpha_total[..., None]], axis=-1).astype(np.float32)
    return PartialImage(
        rect, rgba, depth=camera.depth_of(primary.world_center), samples=samples
    )


def render_multivar_serial(
    camera: Camera,
    primary_data: np.ndarray,
    modulator_data: np.ndarray,
    transfer: MultivariateTransfer,
    step: float = 1.0,
) -> np.ndarray:
    """Whole-volume multivariate reference renderer."""
    from repro.render.image import blank_image, composite_over

    p = VolumeBlock.whole(primary_data)
    m = VolumeBlock.whole(modulator_data)
    partial = render_block_multivar(camera, p, m, transfer, step)
    canvas = blank_image(camera.width, camera.height)
    if partial is None:
        return canvas
    return composite_over(canvas, [partial])
