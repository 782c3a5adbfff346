"""Frozen kernels the render tests compare the live code against.

Two kinds of copy live here, both verbatim from ``src/`` as of the
commit that added this file and never edited afterwards:

* ``frozen_*`` — the production ray caster (``render_block`` body,
  ``VolumeBlock.sample_world_f32``, ``TransferFunction._bin_index``,
  ``build_ray_plan``, ``ray_box_intersect``) exactly as it stood before
  the ragged-window kernel.  ``test_render_contract.py`` requires the
  live kernel to reproduce these **bit for bit**; a frozen copy is the
  platform-independent form of that pin (a hex digest would encode
  one BLAS build's rounding).
* :func:`render_block_reference` — the plain per-sample float64 loop,
  the tolerance oracle of ``test_raycast_compaction.py``.

One line of each was edited on purpose: a piece's ``depth`` is
``Camera.visibility_key`` of its box, the blending order every
compositor sorts by, which replaced the box-centre distance.  And the
frozen plan is its own record, :class:`FrozenRayPlan` (the ``RayPlan``
fields as they stood: float64 ``(n, 3)`` origins and directions, int64
indices), so a change to the live plan's layout cannot reach it.

Only the stable public surface of ``repro.render`` is used (camera
rays/footprint/depth, ``VolumeBlock.data`` / ``sample_world``,
``TransferFunction.march_table`` / ``sample``, ``PartialImage``), so
the copies keep running while the code they were taken from is
rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.image import PartialImage
from repro.utils.errors import ConfigError

_TARGET_BATCH = 1 << 19
_MIN_CHUNK = 4
_MAX_CHUNK = 64


@dataclass(frozen=True)
class FrozenRayPlan:
    rect: tuple
    pix: np.ndarray  # (n,) int64 flat footprint indices of hit rays
    origins: np.ndarray  # (n, 3) float64
    dirs: np.ndarray  # (n, 3) float64 unit directions
    k_lo: np.ndarray  # (n,) int64 first global sample index (inclusive)
    k_hi: np.ndarray  # (n,) int64 last global sample index (exclusive)
    k_min: int
    k_max: int
    depth: float
    step: float

    @property
    def num_rays(self) -> int:
        return int(self.pix.size)


def frozen_ray_box_intersect(origins, dirs, lo, hi):
    """Slab-method intersection: (t_enter, t_exit) per ray; miss if t_exit <= t_enter."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo - origins) * inv
        t1 = (hi - origins) * inv
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    # Axis-parallel rays: if the origin is outside the slab, miss.
    par = dirs == 0.0
    if np.any(par):
        outside = par & ((origins < lo) | (origins > hi))
        tmin = np.where(par, np.where(outside, np.inf, -np.inf), tmin)
        tmax = np.where(par, np.where(outside, -np.inf, np.inf), tmax)
    t_enter = np.maximum(tmin.max(axis=-1), 0.0)
    t_exit = tmax.min(axis=-1)
    return t_enter, t_exit


def frozen_build_ray_plan(camera, world_lo, world_hi, step):
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    lo = np.asarray(world_lo, dtype=np.float64)
    hi = np.asarray(world_hi, dtype=np.float64)
    rect = camera.footprint(lo, hi)
    if rect is None:
        return None
    x0, y0, w, h = rect
    px, py = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
    origins, dirs = camera.rays_for_pixels(px, py)
    t_enter, t_exit = frozen_ray_box_intersect(origins, dirs, lo, hi)
    hit = t_exit > t_enter
    if not np.any(hit):
        return None
    # Globally aligned sample indices: sample k sits at (k + 1/2) step.
    flat = np.flatnonzero(hit.ravel())
    te = t_enter.ravel()[flat]
    tx = t_exit.ravel()[flat]
    k_lo = np.ceil(te / step - 0.5).astype(np.int64)
    k_hi = np.ceil(tx / step - 0.5).astype(np.int64)  # exclusive
    nonempty = k_hi > k_lo
    if not np.any(nonempty):
        return None
    if not np.all(nonempty):
        flat = flat[nonempty]
        k_lo = k_lo[nonempty]
        k_hi = k_hi[nonempty]
    return FrozenRayPlan(
        rect=rect,
        pix=flat,
        origins=origins.reshape(-1, 3)[flat],
        dirs=dirs.reshape(-1, 3)[flat],
        k_lo=k_lo,
        k_hi=k_hi,
        k_min=int(k_lo.min()),
        k_max=int(k_hi.max()),
        depth=camera.visibility_key(lo, hi),
        step=float(step),
    )


def frozen_sample_world_f32(block, points):
    nz, ny, nx = block.data.shape
    if min(nz, ny, nx) < 2:
        # Degenerate axes need the clamped corner logic.
        return block.sample_world(points).astype(np.float32)
    p = np.asarray(points)
    if p.dtype != np.float32:
        p = p.astype(np.float32)
    iz = np.clip(p[..., 2] - np.float32(block.start[0] - block.ghost_lo[0]), 0.0, nz - 1.0)
    iy = np.clip(p[..., 1] - np.float32(block.start[1] - block.ghost_lo[1]), 0.0, ny - 1.0)
    ix = np.clip(p[..., 0] - np.float32(block.start[2] - block.ghost_lo[2]), 0.0, nx - 1.0)
    z0 = np.minimum(iz.astype(np.int64), nz - 2)
    y0 = np.minimum(iy.astype(np.int64), ny - 2)
    x0 = np.minimum(ix.astype(np.int64), nx - 2)
    fz = (iz - z0).astype(np.float32)
    fy = (iy - y0).astype(np.float32)
    fx = (ix - x0).astype(np.float32)
    flat = block.data.reshape(-1)
    base = (z0 * ny + y0) * nx + x0
    c00 = flat[base] * (1 - fx) + flat[base + 1] * fx
    base += nx
    c01 = flat[base] * (1 - fx) + flat[base + 1] * fx
    base += ny * nx - nx
    c10 = flat[base] * (1 - fx) + flat[base + 1] * fx
    base += nx
    c11 = flat[base] * (1 - fx) + flat[base + 1] * fx
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def frozen_bin_index(tf, values):
    v = np.asarray(values)
    # Keep float32 inputs in float32: the hot path feeds float32
    # samples and the bin resolution (1/1024) is far coarser than
    # float32 rounding.
    dtype = np.float32 if v.dtype == np.float32 else np.float64
    v = (v - dtype(tf.vmin)) * dtype(1.0 / (tf.vmax - tf.vmin))
    # NaN/inf data (failed simulations happen) maps to the low end
    # rather than poisoning the cast.
    v = np.nan_to_num(v, nan=0.0, posinf=1.0, neginf=0.0)
    return np.clip((v * dtype(1023.0)).astype(np.int64), 0, 1023)


def frozen_render_block(camera, block, tf, step=1.0, early_termination=0.999, plan=None):
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    if plan is None:
        plan = frozen_build_ray_plan(camera, block.world_lo, block.world_hi, step)
    elif plan.step != step:
        raise ConfigError(
            f"ray plan was built for step={plan.step}, rendering with step={step}"
        )
    if plan is None:
        return None
    x0, y0, w, h = plan.rect

    pix = plan.pix
    origins = plan.origins.astype(np.float32)
    dirs = plan.dirs.astype(np.float32)
    k_hi = plan.k_hi
    cur = plan.k_lo.copy()
    threshold = np.float32(1.0 - early_termination)
    step32 = np.float32(step)
    # The 1024 bins only: later tables may carry extra rows.
    march = tf.march_table(step)[:1024]
    trans = np.ones(pix.size, dtype=np.float32)
    color = np.zeros((pix.size, 3), dtype=np.float32)
    out_trans = np.ones(h * w, dtype=np.float32)
    out_color = np.zeros((h * w, 3), dtype=np.float32)
    samples = 0

    while pix.size:
        c = min(
            max(_TARGET_BATCH // pix.size, _MIN_CHUNK),
            _MAX_CHUNK,
            int((k_hi - cur).max()),
        )
        kk = cur[:, None] + np.arange(c, dtype=np.int64)[None, :]  # (n, c)
        valid = kk < k_hi[:, None]
        t = (kk.astype(np.float32) + np.float32(0.5)) * step32
        pts = origins[:, None, :] + t[..., None] * dirs[:, None, :]
        values = frozen_sample_world_f32(block, pts)
        frag = march[frozen_bin_index(tf, values)]  # (n, c, 4): alpha*rgb, alpha
        alpha = frag[..., 3]
        alpha[~valid] = 0.0
        one_minus = 1.0 - alpha
        t_before = np.empty_like(one_minus)
        t_before[:, 0] = trans
        if c > 1:
            t_before[:, 1:] = trans[:, None] * np.cumprod(one_minus[:, :-1], axis=1)
        applied = valid & (t_before > threshold)
        samples += int(np.count_nonzero(applied))
        weight = np.where(applied, t_before, np.float32(0.0))
        color += (weight[:, None, :] @ frag[..., :3])[:, 0, :]
        trans = trans * np.prod(np.where(applied, one_minus, np.float32(1.0)), axis=1)
        cur = cur + c
        finished = (cur >= k_hi) | (trans <= threshold)
        if np.any(finished):
            out_trans[pix[finished]] = trans[finished]
            out_color[pix[finished]] = color[finished]
            keep = ~finished
            pix = pix[keep]
            origins = origins[keep]
            dirs = dirs[keep]
            k_hi = k_hi[keep]
            cur = cur[keep]
            trans = trans[keep]
            color = color[keep]
    alpha_total = 1.0 - out_trans
    if not np.any(alpha_total > 0):
        return None
    rgba = np.concatenate(
        [out_color.reshape(h, w, 3), alpha_total.reshape(h, w, 1)], axis=-1
    )
    return PartialImage(plan.rect, rgba, depth=plan.depth, samples=samples)


def render_block_reference(camera, block, tf, step=1.0, early_termination=0.999):
    """The plain per-sample kernel: one Python iteration per global
    sample index, full-footprint masks, float64 accumulation.

    The correctness oracle for the production kernel: the property
    tests assert equivalence to float tolerance.
    """
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    lo = block.world_lo
    hi = block.world_hi
    rect = camera.footprint(lo, hi)
    if rect is None:
        return None
    x0, y0, w, h = rect
    px, py = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
    origins, dirs = camera.rays_for_pixels(px, py)
    t_enter, t_exit = frozen_ray_box_intersect(origins, dirs, lo, hi)
    hit = t_exit > t_enter
    if not np.any(hit):
        return None
    # Globally aligned sample indices: sample k sits at (k + 1/2) step.
    k_lo = np.where(hit, np.ceil(t_enter / step - 0.5), 0).astype(np.int64)
    k_hi = np.where(hit, np.ceil(t_exit / step - 0.5), 0).astype(np.int64)  # exclusive
    k_min = int(k_lo[hit].min())
    k_max = int(k_hi[hit].max())
    color = np.zeros((h, w, 3), dtype=np.float64)
    transmittance = np.ones((h, w), dtype=np.float64)
    samples = 0
    for k in range(k_min, k_max):
        active = hit & (k >= k_lo) & (k < k_hi) & (transmittance > 1.0 - early_termination)
        n_active = int(np.count_nonzero(active))
        if not n_active:
            continue
        samples += n_active
        t = (k + 0.5) * step
        pts = origins[active] + t * dirs[active]
        values = block.sample_world(pts)
        rgb, extinction = tf.sample(values)
        alpha = 1.0 - np.exp(-extinction * step)
        contrib = transmittance[active] * alpha
        color[active] += contrib[:, None] * rgb
        transmittance[active] *= 1.0 - alpha
    alpha_total = 1.0 - transmittance
    if not np.any(alpha_total > 0):
        return None
    rgba = np.concatenate([color, alpha_total[..., None]], axis=-1).astype(np.float32)
    return PartialImage(rect, rgba, depth=camera.visibility_key(lo, hi), samples=samples)
