"""Pinhole camera: ray generation and point projection.

World coordinates are volume index coordinates (voxel (i, j, k) of a
(nz, ny, nx) grid sits at world (x=k, y=j, z=i)).  Image pixel (0, 0)
is the lower-left corner; rays pass through pixel centres.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.utils.errors import ConfigError


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise ConfigError("zero-length camera vector")
    return v / n


class Camera:
    """Perspective (default) or orthographic camera, square pixels.

    Orthographic mode fires parallel rays through a world-space window
    of height ``ortho_height`` centred on the view axis — the classic
    sci-vis projection when relative sizes must be preserved.
    """

    def __init__(
        self,
        eye: tuple[float, float, float],
        center: tuple[float, float, float],
        up: tuple[float, float, float] = (0.0, 1.0, 0.0),
        fov_deg: float = 30.0,
        width: int = 256,
        height: int = 256,
        orthographic: bool = False,
        ortho_height: float | None = None,
    ):
        if width <= 0 or height <= 0:
            raise ConfigError("image dimensions must be positive")
        if not (0.0 < fov_deg < 180.0):
            raise ConfigError(f"fov must be in (0, 180) degrees, got {fov_deg}")
        self.eye = np.asarray(eye, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)
        self.width = int(width)
        self.height = int(height)
        self.fov_deg = float(fov_deg)
        self.orthographic = bool(orthographic)
        self.forward = _normalize(self.center - self.eye)
        right = np.cross(self.forward, np.asarray(up, dtype=np.float64))
        self.right = _normalize(right)
        self.up = np.cross(self.right, self.forward)
        if self.orthographic:
            if ortho_height is None:
                # Frame the same extent a perspective camera would at
                # the centre's distance.
                dist = float(np.linalg.norm(self.center - self.eye))
                ortho_height = 2.0 * dist * np.tan(np.radians(self.fov_deg) / 2.0)
            if ortho_height <= 0:
                raise ConfigError(f"ortho_height must be positive, got {ortho_height}")
            self._half_h = float(ortho_height) / 2.0  # world units
        else:
            # Half-extents of the image plane at unit distance.
            self._half_h = float(np.tan(np.radians(self.fov_deg) / 2.0))
        self._half_w = self._half_h * self.width / self.height
        self._plan_key: tuple | None = None
        self._frame_rays: tuple[np.ndarray, np.ndarray] | None = None

    def scaled(self, factor: float) -> "Camera":
        """The same view rendered at ``factor`` times the resolution.

        Used for the progressive ladder's coarse levels: ``scaled(0.5)``
        halves both image dimensions (floored, min 1 pixel) while preserving
        the eye, view basis, field of view, and projection mode.
        """
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return Camera(
            tuple(self.eye),
            tuple(self.center),
            up=tuple(self.up),
            fov_deg=self.fov_deg,
            width=max(1, int(self.width * factor)),
            height=max(1, int(self.height * factor)),
            orthographic=self.orthographic,
            ortho_height=(2.0 * self._half_h if self.orthographic else None),
        )

    @classmethod
    def looking_at_volume(
        cls,
        grid_shape: tuple[int, int, int],
        width: int = 256,
        height: int = 256,
        azimuth_deg: float = 30.0,
        elevation_deg: float = 20.0,
        distance_factor: float = 2.2,
        fov_deg: float = 30.0,
    ) -> "Camera":
        """A camera orbiting the volume centre, framing the whole grid."""
        nz, ny, nx = grid_shape
        center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0])
        radius = distance_factor * max(nx, ny, nz)
        az = np.radians(azimuth_deg)
        el = np.radians(elevation_deg)
        offset = radius * np.array(
            [np.cos(el) * np.sin(az), np.sin(el), np.cos(el) * np.cos(az)]
        )
        return cls(tuple(center + offset), tuple(center), (0, 1, 0), fov_deg, width, height)

    def plan_key(self) -> tuple:
        """Hashable identity for plan caching.

        Two cameras with equal keys generate identical rays, footprints,
        and depth keys, so any geometry derived from one is valid for
        the other.  Built from the *derived* frame (eye, basis, image
        plane half-extents), so equivalent constructions share a key.

        Memoized: a camera's frame is fixed at construction, and warm
        plan-cache lookups call this once per rendered frame.
        """
        key = self._plan_key
        if key is None:
            key = self._plan_key = (
                self.orthographic,
                self.width,
                self.height,
                tuple(self.eye.tolist()),
                tuple(self.forward.tolist()),
                tuple(self.right.tolist()),
                tuple(self.up.tolist()),
                self._half_w,
                self._half_h,
            )
        return key

    # -- rays --------------------------------------------------------------

    def rays_for_pixels(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ray (origins, unit directions) through pixel centres.

        ``px``/``py`` are integer arrays; returns arrays shaped
        (..., 3).  Directions are unit length, so the ray parameter t
        is world distance from the eye — the globally aligned sampling
        coordinate shared by all blocks.
        """
        u = ((np.asarray(px, dtype=np.float64) + 0.5) / self.width * 2.0 - 1.0) * self._half_w
        v = ((np.asarray(py, dtype=np.float64) + 0.5) / self.height * 2.0 - 1.0) * self._half_h
        if self.orthographic:
            origins = self.eye + u[..., None] * self.right + v[..., None] * self.up
            return origins, np.broadcast_to(self.forward, origins.shape)
        d = (
            self.forward
            + u[..., None] * self.right
            + v[..., None] * self.up
        )
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        origins = np.broadcast_to(self.eye, d.shape)
        return origins, d

    def rays_for_rect(self, rect: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Rays through every pixel of ``rect`` = (x0, y0, w, h), shaped
        (h, w, 3); views into the frame's ray table when this camera
        carries one (see :meth:`with_frame_rays`)."""
        x0, y0, w, h = rect
        if self._frame_rays is not None:
            origins, dirs = self._frame_rays
            return origins[y0 : y0 + h, x0 : x0 + w], dirs[y0 : y0 + h, x0 : x0 + w]
        px, py = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
        return self.rays_for_pixels(px, py)

    def with_frame_rays(self) -> "Camera":
        """This camera plus the ray of every image pixel, computed once.

        Block footprints overlap several times over, so whoever builds
        ray geometry for many blocks of one frame asks through the
        returned copy and gets slices of one table.  A ray depends on
        its own pixel only, so a slice is bit-identical to rays
        generated for that rectangle alone.  The table lives as long as
        the copy does; the camera itself stays table-free.
        """
        cam = copy.copy(self)
        cam._frame_rays = self.rays_for_rect((0, 0, self.width, self.height))
        return cam

    # -- projection ---------------------------------------------------------

    def project(self, points: np.ndarray) -> np.ndarray:
        """World points (..., 3) -> pixel coordinates (..., 2) (float).

        Points behind the eye project to NaN (callers expand footprints
        conservatively in that case; it does not occur for volumes in
        front of the camera).
        """
        rel = np.asarray(points, dtype=np.float64) - self.eye
        z = rel @ self.forward
        x = rel @ self.right
        y = rel @ self.up
        if self.orthographic:
            u, v = x, y
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(z > 0, x / z, np.nan)
                v = np.where(z > 0, y / z, np.nan)
        px = (u / self._half_w + 1.0) / 2.0 * self.width - 0.5
        py = (v / self._half_h + 1.0) / 2.0 * self.height - 0.5
        return np.stack([px, py], axis=-1)

    def footprints(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Clipped pixel bboxes of n world-space AABBs (corners ``(n, 3)``):
        ``(n, 4)`` int64 rows ``(x0, y0, w, h)``.

        A box entirely off screen gets zero width and height; one that
        reaches behind the eye conservatively covers the whole frame.
        """
        # Corner ci takes hi on world axis a where bit a of ci is set.
        upper = (np.arange(8)[:, None] >> np.arange(3) & 1).astype(bool)
        corners = np.where(upper, hi[:, None, :], lo[:, None, :])
        pix = self.project(corners.reshape(-1, 3)).reshape(-1, 8, 2)
        behind = np.isnan(pix).any(axis=(1, 2))[:, None]
        p0 = np.where(behind, -np.inf, np.floor(pix.min(axis=1)))
        p1 = np.where(behind, np.inf, np.ceil(pix.max(axis=1)) + 1.0)
        # Clip as floats: a corner just in front of the eye projects
        # far outside what int64 holds.
        frame = (self.width, self.height)
        p0 = np.clip(p0, 0, frame).astype(np.int64)
        p1 = np.clip(p1, 0, frame).astype(np.int64)
        size = np.where((p1 > p0).all(axis=1, keepdims=True), p1 - p0, 0)
        return np.concatenate([p0, size], axis=1)

    def footprint(self, lo: np.ndarray, hi: np.ndarray) -> tuple[int, int, int, int] | None:
        """Pixel bbox (x0, y0, w, h) of one world-space AABB, clipped;
        None when the box projects entirely off screen."""
        x0, y0, w, h = self.footprints(np.asarray(lo)[None], np.asarray(hi)[None])[0].tolist()
        return (x0, y0, w, h) if w else None

    def visibility_key(self, lo: np.ndarray, hi: np.ndarray) -> float:
        """The sort-last blending order: the key of the world AABB a
        piece covers; smaller composites in front.

        Perspective: the L1 gap from the eye to the box,
        ``sum_a max(lo_a - e_a, 0, e_a - hi_a)``.  A ray crossing an
        axis-aligned cut keeps the other axes' gaps and raises the cut
        axis's (every coordinate is monotonic along it), so the key
        rises strictly along every ray — uneven cuts and an eye inside
        the volume included.  Orthographic: the box centre's coordinate
        along the view axis, which parallel rays all share.
        """
        lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
        if self.orthographic:
            return float((lo + hi) / 2.0 @ self.forward)
        return float(np.maximum(np.maximum(lo - self.eye, self.eye - hi), 0.0).sum())
