"""The ray-casting core (Sec. III-B2 of the paper).

Each block renders its screen footprint: rays march front to back in
*globally aligned* steps — samples sit at ray parameters
``t = (k + 1/2) * step`` measured from the eye, so a sample point
belongs to exactly one block (the one whose [t_enter, t_exit) interval
contains it) and block-parallel rendering is exactly equivalent to
serial rendering.

The kernel (:func:`render_block`) marches with *active-ray
compaction*: rays that survive footprint clipping are gathered into a
dense working set, samples are taken in chunked windows (many sample
indices per NumPy call instead of one Python iteration per global
sample index), and rays that terminate — early-termination opacity or
block exit — are periodically compacted out of the working set.  The
global sample alignment is what makes this safe: compaction only
changes *which rays* participate in a window, never *where* any ray is
sampled, so the kernel computes the same integral as a plain
per-sample loop (the oracle of ``tests/render``).

A window is *ragged*: rays leave the block after different numbers of
samples, so positions, trilinear values and transfer-function bins are
computed only for the (ray, sample) pairs that exist, as flat
ray-major vectors.  Only the bins are then scattered into the padded
``(rays, window)`` rectangle the front-to-back accumulation runs on;
slots no ray owns hold the march table's all-zero row.

The per-block ray geometry (footprint, ray origins/directions, entry
and exit sample indices) depends only on the camera, the block's world
bounds, and the step — not on the data — so it can be computed once
per (camera, decomposition) and reused across time steps; see
:class:`RayPlan` and :func:`build_ray_plan` (used by the frame-plan
cache in :mod:`repro.core.plan`).

The shaded and multivariate renderers march densely instead — one
sample index per iteration over the whole footprint — through
:func:`_march_dense`, which they parameterise by how a sample point
becomes colour and extinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.image import PartialImage, Rect, composite_tile
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError

# Chunked-march tuning: target number of sample points per batch and
# the window-width clamp.  Wider windows amortize NumPy call overhead
# but waste more samples past early termination; narrower windows do
# the opposite.
_TARGET_BATCH = 1 << 19
_MIN_CHUNK = 4
_MAX_CHUNK = 64


def ray_box_intersect(
    origins: np.ndarray, dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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
    # Pairwise over the three slabs: a length-3 ``.max(axis=-1)``
    # costs ~20x more in reduction set-up and returns the same values.
    t_enter = np.maximum(
        np.maximum(np.maximum(tmin[..., 0], tmin[..., 1]), tmin[..., 2]), 0.0
    )
    t_exit = np.minimum(np.minimum(tmax[..., 0], tmax[..., 1]), tmax[..., 2])
    return t_enter, t_exit


def check_step(step: float) -> None:
    """Reject a sampling distance no march can use (<= 0, NaN, inf)."""
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError(f"step must be positive and finite, got {step}")


def check_early_termination(early_termination: float) -> None:
    """Reject an opacity cutoff outside (0, 1]; at 0 or NaN no ray samples."""
    if not 0.0 < early_termination <= 1.0:  # also rejects NaN
        raise ConfigError(f"early_termination must be in (0, 1], got {early_termination}")


@dataclass(frozen=True)
class RayPlan:
    """Data-independent ray geometry for one (camera, block, step), in
    the form :func:`render_block` reads.

    Arrays are compacted over the rays that actually hit the block's
    AABB; ``pix`` holds each surviving ray's flat index into the
    footprint rectangle (row-major over (h, w)).  ``k_lo``/``k_hi``
    are the globally aligned sample-index bounds per ray.  Indices are
    int32 when they fit (with one window of headroom), int64 otherwise.
    ``origins``/``dirs`` are float32 ``(3, n)`` rows, or a ``(3, 1)``
    column every ray shares — the eye under perspective, the view
    direction under orthographic — which broadcasts: 24 bytes a ray.
    """

    rect: Rect
    pix: np.ndarray  # (n,) int32/int64 flat footprint indices of hit rays
    origins: np.ndarray  # (3, n) or shared (3, 1) float32
    dirs: np.ndarray  # (3, n) or shared (3, 1) float32 unit directions
    k_lo: np.ndarray  # (n,) int32/int64 first global sample index (inclusive)
    k_hi: np.ndarray  # (n,) int32/int64 last global sample index (exclusive)
    k_min: int
    k_max: int
    depth: float  # Camera.visibility_key of the block's box
    step: float

    @property
    def num_rays(self) -> int:
        return int(self.pix.size)


def _narrow(index: np.ndarray, bound: int) -> np.ndarray:
    """``index`` as int32 when ``bound`` (>= every value it will hold) fits."""
    return index.astype(np.int32) if bound < 2**31 else index


def build_ray_plan(
    camera: Camera,
    world_lo: np.ndarray,
    world_hi: np.ndarray,
    step: float,
) -> RayPlan | None:
    """Ray geometry for a block AABB; None when nothing can contribute.

    Everything here depends only on the camera, the box, and the step,
    so frame-plan caches may reuse the result across time steps.
    """
    check_step(step)
    lo = np.asarray(world_lo, dtype=np.float64)
    hi = np.asarray(world_hi, dtype=np.float64)
    rect = camera.footprint(lo, hi)
    if rect is None:
        return None
    origins, dirs = camera.rays_for_rect(rect)
    t_enter, t_exit = ray_box_intersect(origins, dirs, lo, hi)
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
    k_max = int(k_hi.max())
    # The projection names the vector every ray shares: one (1, 3) row.
    if camera.orthographic:
        origins, dirs = origins.reshape(-1, 3)[flat], camera.forward[None]
    else:
        origins, dirs = camera.eye[None], dirs.reshape(-1, 3)[flat]
    return RayPlan(
        rect=rect,
        pix=_narrow(flat, rect[2] * rect[3]),
        origins=np.ascontiguousarray(origins.T, dtype=np.float32),
        dirs=np.ascontiguousarray(dirs.T, dtype=np.float32),
        # The kernel's cursor runs up to one window past k_max.
        k_lo=_narrow(k_lo, k_max + _MAX_CHUNK),
        k_hi=_narrow(k_hi, k_max + _MAX_CHUNK),
        k_min=int(k_lo.min()),
        k_max=k_max,
        depth=camera.visibility_key(lo, hi),
        step=float(step),
    )


def render_block(
    camera: Camera,
    block: VolumeBlock,
    tf: TransferFunction,
    step: float = 1.0,
    early_termination: float = 0.999,
    plan: RayPlan | None = None,
) -> PartialImage | None:
    """Ray-cast one block into a partial image over its footprint.

    Returns None when the block is entirely off screen or contributes
    no samples.  ``step`` is the global sampling distance in voxels
    (world units); all blocks of a frame must use the same value.
    ``early_termination`` in (0, 1] is the opacity at which a ray stops
    (1.0 never stops).  ``plan`` may carry precomputed ray geometry
    (from :func:`build_ray_plan` with the same camera/block/step);
    passing it skips the per-frame geometry setup entirely.
    """
    check_step(step)
    check_early_termination(early_termination)
    if plan is None:
        plan = build_ray_plan(camera, block.world_lo, block.world_hi, step)
    elif plan.step != step:
        raise ConfigError(
            f"ray plan was built for step={plan.step}, rendering with step={step}"
        )
    if plan is None:
        return None
    x0, y0, w, h = plan.rect

    # Dense working set over surviving rays.  Every ray marches at its
    # own pace: ``cur`` is its next global sample index, so a window
    # computes exactly each live ray's next run of samples — no
    # pre-entry or post-exit waste.  Finished rays (past their exit
    # index or below the termination threshold) are compacted out.
    pix = plan.pix
    # Float32 rows ox, oy, oz and dx, dy, dz, compacted together; a
    # shared (3, 1) column broadcasts and is never compacted.
    geom = [plan.origins, plan.dirs]
    k_hi = plan.k_hi
    cur = plan.k_lo.copy()
    threshold = np.float32(1.0 - early_termination)
    step32 = np.float32(step)
    # Per-bin marching table: rows are (alpha * rgb, alpha) with the
    # step folded into alpha, so the inner loop needs no exp and no
    # per-sample colour multiply.  Its last row is the all-zero
    # fragment of an unowned slot.
    march = tf.march_table(step)
    pad = march.shape[0] - 1
    trans = np.ones(pix.size, dtype=np.float32)
    color = np.zeros((pix.size, 3), dtype=np.float32)
    out_trans = np.ones(h * w, dtype=np.float32)
    out_color = np.zeros((h * w, 3), dtype=np.float32)
    samples = 0

    while pix.size:
        n = pix.size
        c = min(
            max(_TARGET_BATCH // n, _MIN_CHUNK),
            _MAX_CHUNK,
            int((k_hi - cur).max()),
        )
        # The ragged sample list, ray-major: ray r owns cnt[r] >= 1
        # entries; entry j of its run is global sample cur[r] + j and
        # lands in slot r*c + j of the padded window.
        cnt = np.minimum(k_hi - cur, c)
        ends = np.cumsum(cnt)
        seq = np.arange(ends[-1])
        starts = ends - cnt
        kk = np.repeat(cur - starts, cnt) + seq
        slot = np.repeat(np.arange(0, n * c, c) - starts, cnt) + seq
        t = (kk.astype(np.float32) + np.float32(0.5)) * step32
        (ox, oy, oz), (dx, dy, dz) = [
            g if g.shape[1] == 1 else np.repeat(g, cnt, axis=1) for g in geom
        ]
        values = block.sample_axes_f32(ox + t * dx, oy + t * dy, oz + t * dz)
        padded = np.full(n * c, pad, dtype=np.intp)
        padded[slot] = tf.bin_index(values)
        frag = march.take(padded, axis=0).reshape(n, c, 4)  # alpha*rgb, alpha
        valid = (padded != pad).reshape(n, c)
        one_minus = 1.0 - frag[..., 3]
        # Transmittance entering each sample of the window; a sample
        # applies while the ray stays above the termination threshold.
        # Termination is absorbing (alpha only reduces transmittance),
        # so the unmasked cumulative product is a valid stand-in for
        # the sequential per-sample check.
        t_before = np.empty_like(one_minus)
        t_before[:, 0] = trans
        t_before[:, 1:] = trans[:, None] * np.cumprod(one_minus[:, :-1], axis=1)
        applied = valid & (t_before > threshold)
        samples += int(np.count_nonzero(applied))
        weight = np.where(applied, t_before, np.float32(0.0))
        color += (weight[:, None, :] @ frag[..., :3])[:, 0, :]
        trans = trans * np.multiply.reduce(one_minus, axis=1, where=applied)
        cur = cur + c
        finished = (cur >= k_hi) | (trans <= threshold)
        if np.any(finished):
            out_trans[pix[finished]] = trans[finished]
            out_color[pix[finished]] = color[finished]
            keep = ~finished
            pix = pix[keep]
            geom = [g if g.shape[1] == 1 else g[:, keep] for g in geom]
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


def render_volume_serial(
    camera: Camera,
    data: np.ndarray,
    tf: TransferFunction,
    step: float = 1.0,
    early_termination: float = 0.999,
) -> np.ndarray:
    """Reference renderer: the whole volume as one block, full canvas.

    Returns a premultiplied RGBA canvas (height, width, 4).  The
    parallel pipeline's output must match this to float tolerance.
    """
    partial = render_block(camera, VolumeBlock.whole(data), tf, step, early_termination)
    return _whole_frame(camera, partial)


def _whole_frame(camera: Camera, partial: PartialImage | None) -> np.ndarray:
    """The full canvas holding one whole-volume partial (blank if None):
    the tail of every ``*_serial`` reference renderer."""
    return composite_tile(
        (0, 0, camera.width, camera.height), [] if partial is None else [partial]
    )


def _march_dense(
    camera: Camera,
    block: VolumeBlock,
    step: float,
    early_termination: float,
    classify,
) -> PartialImage | None:
    """Plain per-sample march of one block: every ray of the footprint,
    one globally aligned sample index per iteration.

    ``classify(points)`` turns the active rays' (n, 3) world sample
    points into ``(rgb, extinction)``; it is all the shaded and
    multivariate renderers differ in.
    """
    check_step(step)
    check_early_termination(early_termination)
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
        rgb, extinction = classify(origins[active] + t * dirs[active])
        alpha = 1.0 - np.exp(-extinction * step)
        contrib = transmittance[active] * alpha
        color[active] += contrib[:, None] * rgb
        transmittance[active] *= 1.0 - alpha
    alpha_total = 1.0 - transmittance
    if not np.any(alpha_total > 0):
        return None
    rgba = np.concatenate([color, alpha_total[..., None]], axis=-1).astype(np.float32)
    return PartialImage(rect, rgba, depth=camera.visibility_key(lo, hi), samples=samples)
