"""Synthetic core-collapse supernova fields.

The model mimics the structures visible in the paper's Fig. 1 (the X
component of velocity in a standing-accretion-shock simulation): a
roughly spherical shock front, a turbulent interior with low-order
spherical-harmonic-like lobes (the SASI sloshing modes), signed
velocity components antisymmetric across the core, and a quiet
exterior.  Everything is deterministic in ``seed`` and ``time``.

These fields are *structurally* representative — value distributions
spanning positive and negative lobes, smooth large-scale structure
plus fine turbulence — which is what the rendering and I/O experiments
need; no astrophysics is claimed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.validation import check_shape3

VARIABLES = ("pressure", "density", "vx", "vy", "vz")


class SupernovaModel:
    """Generates the five VH-1 variables on demand."""

    def __init__(self, grid_shape: tuple[int, int, int], seed: int = 1530, time: float = 0.0):
        self.grid_shape = check_shape3("grid_shape", grid_shape)
        self.seed = int(seed)
        self.time = float(time)

    # -- geometry helpers ---------------------------------------------------

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        nz, ny, nx = self.grid_shape
        z, y, x = np.meshgrid(
            np.linspace(-1.0, 1.0, nz),
            np.linspace(-1.0, 1.0, ny),
            np.linspace(-1.0, 1.0, nx),
            indexing="ij",
        )
        r = np.sqrt(x * x + y * y + z * z) + 1e-12
        return x, y, z, r

    def _turbulence(self, channel: int, smooth_vox: float) -> np.ndarray:
        """Band-limited noise: white noise, Gaussian smoothed, normalized."""
        # Here, not at module top: `import repro` must not pay scipy's
        # ~0.3 s and ~30 MB for commands that never build a dataset.
        from scipy import ndimage

        rng = np.random.default_rng(self.seed * 7 + channel)
        noise = rng.standard_normal(self.grid_shape)
        smooth = ndimage.gaussian_filter(noise, sigma=smooth_vox, mode="nearest")
        scale = smooth.std()
        return smooth / scale if scale > 0 else smooth

    def _shock(self, r: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Interior mask with an aspherical (SASI-distorted) shock radius."""
        shock_r = 0.72 + 0.08 * np.sin(2.3 * self.time) * z / np.maximum(r, 1e-12)
        shock_r = shock_r + 0.05 * np.cos(1.7 * self.time + 1.0) * y / np.maximum(r, 1e-12)
        return 0.5 * (1.0 - np.tanh((r - shock_r) / 0.04))

    # -- fields ------------------------------------------------------------

    def field(self, variable: str) -> np.ndarray:
        """One variable, float32, shaped ``grid_shape``."""
        if variable not in VARIABLES:
            raise ConfigError(f"unknown variable {variable!r}; choose from {VARIABLES}")
        x, y, z, r = self._coords()
        inside = self._shock(r, z, y)
        smooth_vox = max(2.0, min(self.grid_shape) / 28.0)
        if variable in ("vx", "vy", "vz"):
            axis = {"vx": x, "vy": y, "vz": z}[variable]
            channel = {"vx": 1, "vy": 2, "vz": 3}[variable]
            # Infall outside the shock, turbulent sloshing inside; tanh
            # squashes turbulence tails into the declared [-1, 1] range.
            radial = -0.55 * axis / r * np.exp(-((r - 0.8) ** 2) / 0.2)
            turb = self._turbulence(channel, smooth_vox)
            out = np.tanh(radial * (1.0 - inside) + inside * (0.6 * turb + 0.35 * axis / r))
        elif variable == "density":
            channel = 4
            turb = self._turbulence(channel, smooth_vox)
            out = 0.15 + 0.75 * inside * (0.8 + 0.2 * turb) + 0.4 * np.exp(-r / 0.15)
            out = np.clip(out, 0.01, 1.6)
        else:  # pressure
            channel = 5
            turb = self._turbulence(channel, smooth_vox)
            out = 0.1 + 0.8 * inside * (0.85 + 0.15 * turb) + 0.6 * np.exp(-r / 0.1)
            out = np.clip(out, 0.01, 1.6)
        return np.ascontiguousarray(out, dtype=np.float32)

    def all_fields(self) -> dict[str, np.ndarray]:
        return {v: self.field(v) for v in VARIABLES}

    def value_range(self, variable: str) -> tuple[float, float]:
        """Sensible transfer-function domain for a variable."""
        if variable in ("vx", "vy", "vz"):
            return (-1.0, 1.0)
        return (0.0, 1.6)


def supernova_field(
    grid_shape: tuple[int, int, int],
    variable: str = "vx",
    seed: int = 1530,
    time: float = 0.0,
) -> np.ndarray:
    """Convenience wrapper: one synthetic supernova field."""
    return SupernovaModel(grid_shape, seed, time).field(variable)
