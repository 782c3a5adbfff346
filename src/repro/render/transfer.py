"""Transfer functions: scalar value -> colour and extinction.

A transfer function maps normalized scalar values to RGB colour and an
extinction coefficient (opacity per unit length).  During ray marching
a sample over a step of length dt contributes alpha
``1 - exp(-extinction * dt)``, which makes rendering independent of
step size in the limit and — crucially for sort-last compositing —
makes per-block segments compose exactly under the over operator.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigError


class TransferFunction:
    """Piecewise-linear RGBA transfer function over [vmin, vmax]."""

    def __init__(
        self,
        points: np.ndarray,
        vmin: float = 0.0,
        vmax: float = 1.0,
        max_extinction: float = 4.0,
    ):
        """``points`` is (N, 5): value in [0, 1], r, g, b, opacity in [0, 1].

        Opacity scales ``max_extinction`` to give the extinction
        coefficient.  Control values must be strictly increasing.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 5 or pts.shape[0] < 2:
            raise ConfigError("transfer function needs an (N>=2, 5) control array")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise ConfigError("transfer function control values must be increasing")
        if not vmax > vmin:
            raise ConfigError(f"vmax ({vmax}) must exceed vmin ({vmin})")
        self.points = pts
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.max_extinction = float(max_extinction)
        # Precompute a lookup table; 1024 bins is plenty for float32 data.
        xs = np.linspace(0.0, 1.0, 1024)
        self._lut = np.stack(
            [np.interp(xs, pts[:, 0], pts[:, 1 + c]) for c in range(4)], axis=1
        )
        self._march_tables: dict[float, np.ndarray] = {}

    def bin_index(self, values: np.ndarray) -> np.ndarray:
        """Lookup-table bin (0..1023) of each raw scalar value.

        float32 inputs stay float32 (the ray march feeds float32
        samples; the bin resolution, 1/1024, is far coarser than
        float32 rounding).  NaN/inf data (failed simulations happen)
        never poisons the cast: ``fmax``/``fmin`` ignore NaN and clamp
        before the integer conversion, so NaN and -inf land in bin 0
        and +inf in bin 1023.  The clamp-then-cast order also defines
        the one case a cast-then-clip leaves to the C compiler — a
        finite value scaled beyond the int64 range — as the nearer end
        bin.
        """
        v = np.asarray(values)
        dtype = np.float32 if v.dtype == np.float32 else np.float64
        v = (v - dtype(self.vmin)) * dtype(1.0 / (self.vmax - self.vmin))
        return np.fmin(np.fmax(v * dtype(1023.0), 0), 1023).astype(np.intp)

    def march_table(self, step: float) -> np.ndarray:
        """Per-bin marching table for a given step: (1025, 4) float32.

        Column 0-2 hold the premultiplied per-sample contribution
        ``alpha * rgb``; column 3 holds ``alpha = 1 - exp(-extinction
        * step)``.  Folding the step into the table turns the inner
        march into two gathers — no per-sample exp — while computing
        exactly the same alpha a per-sample evaluation would (alpha
        depends on the value only through its bin).

        The last row (index 1024, one past the bins) is all zero: the
        fragment of a window slot no ray owns, so padding needs no
        masking pass after the gather.
        """
        tbl = self._march_tables.get(float(step))
        if tbl is None:
            alpha = 1.0 - np.exp(-self._lut[:, 3] * self.max_extinction * float(step))
            tbl = np.zeros((self._lut.shape[0] + 1, 4), dtype=np.float32)
            tbl[:-1, :3] = self._lut[:, :3] * alpha[:, None]
            tbl[:-1, 3] = alpha
            self._march_tables[float(step)] = tbl
        return tbl

    def sample(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map raw scalar values -> (rgb (..., 3), extinction (...,))."""
        rgba = self._lut[self.bin_index(values)]
        return rgba[..., :3], rgba[..., 3] * self.max_extinction

    @classmethod
    def grayscale_ramp(cls, vmin: float = 0.0, vmax: float = 1.0) -> "TransferFunction":
        """Transparent black -> opaque white; handy for tests."""
        pts = np.array([[0.0, 0, 0, 0, 0.0], [1.0, 1, 1, 1, 1.0]])
        return cls(pts, vmin, vmax)

    @classmethod
    def supernova(cls, vmin: float = -1.0, vmax: float = 1.0) -> "TransferFunction":
        """Blue/white/orange diverging map like the paper's Fig. 1.

        The X-velocity field is signed; negative lobes render blue,
        positive orange, near-zero nearly transparent.
        """
        pts = np.array(
            [
                [0.00, 0.05, 0.15, 0.60, 0.85],
                [0.25, 0.15, 0.45, 0.90, 0.45],
                [0.45, 0.70, 0.80, 0.95, 0.08],
                [0.50, 1.00, 1.00, 1.00, 0.00],
                [0.55, 0.98, 0.85, 0.60, 0.08],
                [0.75, 0.95, 0.55, 0.15, 0.45],
                [1.00, 0.80, 0.25, 0.05, 0.85],
            ]
        )
        return cls(pts, vmin, vmax)
