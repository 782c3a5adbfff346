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
from repro.render.raycast import _march_dense, _whole_frame
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
    if primary.start != modulator.start or primary.count != modulator.count:
        raise ConfigError("primary and modulator blocks must cover the same region")
    return _march_dense(
        camera, primary, step, early_termination,
        lambda pts: transfer.sample(primary.sample_world(pts), modulator.sample_world(pts)),
    )


def render_multivar_serial(
    camera: Camera,
    primary_data: np.ndarray,
    modulator_data: np.ndarray,
    transfer: MultivariateTransfer,
    step: float = 1.0,
) -> np.ndarray:
    """Whole-volume multivariate reference renderer."""
    p = VolumeBlock.whole(primary_data)
    m = VolumeBlock.whole(modulator_data)
    return _whole_frame(camera, render_block_multivar(camera, p, m, transfer, step))
