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

import math

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.validation import check_int, check_shape3

VARIABLES = ("pressure", "density", "vx", "vy", "vz")

#: Output values per block in :func:`_gaussian_smooth`.  With its padded
#: input and scratch that is ~0.5 MB, small enough to stay in a typical
#: L2 cache across the 3r + 1 numpy passes a block takes.
_BLOCK = 16384


def _gaussian_smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(a, sigma, mode="nearest")`` for a
    3-D float64 array, bit for bit.

    It repeats scipy's arithmetic operation for operation: the same
    normalized kernel of radius ``int(4 sigma + 0.5)``; axes 0, 1, 2 in
    turn, each on the previous axis's float64 output, with edge-replicated
    padding; and, per output value, the symmetric correlation
    ``x[0] w[r]`` followed by ``+ (x[-k] + x[k]) w[r-k]`` for ``k = r .. 1``.
    The filtered axis is moved to the middle of a padded copy, so every
    tap is one numpy pass over contiguous slabs of a cache-sized block.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w / w.sum()
    for axis in range(3):
        b = np.moveaxis(a, axis, 1)
        u, n, v = b.shape
        padded = np.empty((u, n + 2 * r, v))
        padded[:, r : r + n] = b
        padded[:, :r] = b[:, :1]
        padded[:, r + n :] = b[:, -1:]
        out = np.empty((u, n, v))
        rows = max(1, _BLOCK // (n * v))
        tmp = np.empty((rows, n, v))
        for i in range(0, u, rows):
            src = padded[i : i + rows]
            acc = out[i : i + rows]
            pair = tmp[: len(src)]
            np.multiply(src[:, r : r + n], w[r], out=acc)
            for k in range(r, 0, -1):
                np.add(src[:, r - k : r - k + n], src[:, r + k : r + k + n], out=pair)
                pair *= w[r - k]
                acc += pair
        a = np.moveaxis(out, 1, axis)
    return np.ascontiguousarray(a)


class SupernovaModel:
    """Generates the five VH-1 variables on demand."""

    def __init__(self, grid_shape: tuple[int, int, int], seed: int = 1530, time: float = 0.0):
        self.grid_shape = check_shape3("grid_shape", grid_shape)
        self.seed = check_int("seed", seed, 0)
        self.time = float(time)
        if not math.isfinite(self.time):
            raise ConfigError(f"time must be finite, got {time!r}")

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
        rng = np.random.default_rng(self.seed * 7 + channel)
        noise = rng.standard_normal(self.grid_shape)
        smooth = _gaussian_smooth(noise, smooth_vox)
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
