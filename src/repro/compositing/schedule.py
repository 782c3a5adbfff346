"""The static direct-send message schedule — the one every reader shares.

Every rank can compute the full schedule deterministically from the
block decomposition, the camera, and the tile decomposition — no
negotiation traffic.  :func:`build_schedule` is the only place that
enumerates block-footprint x tile overlaps; it does so in NumPy and the
resulting :class:`CompositeSchedule` holds the message list as three
int64 arrays ``(src, tile, pixels)``.  The analytic model
(:mod:`repro.model.composite`) prices those arrays directly; the six
compositing backends, ``insitu`` and :class:`repro.core.plan.FramePlanCache`
walk the same list through ``messages`` / ``incoming`` / ``outgoing``,
whose per-message records are built once, on first use.  Same list, same
order, both worlds — which is what makes the two modes comparable.

Pixel payload sizing: 4 channels x 4-byte float per pixel (premultiplied
RGBA float32), plus a small envelope per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.compositing.tiles import Rect, TileDecomposition
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError
from repro.utils.lru import LRU

BYTES_PER_PIXEL = 16  # 4 x float32, premultiplied RGBA
MESSAGE_ENVELOPE_BYTES = 64  # rect, depth, tags


class CompositeMessage(NamedTuple):
    """One renderer-to-compositor transfer."""

    src: int  # renderer rank
    tile: int  # tile index == compositor slot
    pixels: int  # overlap area

    @property
    def nbytes(self) -> int:
        return self.pixels * BYTES_PER_PIXEL + MESSAGE_ENVELOPE_BYTES


def _group(messages: list[CompositeMessage], keys: np.ndarray) -> dict[int, list[CompositeMessage]]:
    """key -> its messages in schedule order (stable sort + split)."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    ordered = [messages[i] for i in order.tolist()]
    bounds = starts.tolist() + [len(ordered)]
    return {k: ordered[a:b] for k, a, b in zip(uniq.tolist(), bounds, bounds[1:])}


@dataclass(eq=False)
class CompositeSchedule:
    """All messages of one compositing phase.

    The source of truth is three parallel int64 arrays in schedule
    order (renderer-major, each renderer's tiles row-major): ``src``,
    ``tile`` and ``pixels``.  ``messages``, ``incoming`` and
    ``outgoing`` present the same list as :class:`CompositeMessage`
    records, materialised and grouped once on first use; a reader that
    only needs sizes (the model) never creates one.
    """

    num_renderers: int
    num_compositors: int
    tiles: TileDecomposition
    src: np.ndarray  # (M,) renderer rank
    tile: np.ndarray  # (M,) tile index == compositor slot
    pixels: np.ndarray  # (M,) overlap area

    def __post_init__(self) -> None:
        if self.num_compositors > self.num_renderers:
            raise ConfigError(
                f"m={self.num_compositors} compositors cannot exceed "
                f"n={self.num_renderers} renderers (compositors render too)"
            )
        self.src, self.tile, self.pixels = (
            np.asarray(a, dtype=np.int64) for a in (self.src, self.tile, self.pixels)
        )

    @cached_property
    def messages(self) -> list[CompositeMessage]:
        # One int object per rank, shared by all its messages (tolist()
        # alone would allocate a fresh one per element).
        rank = list(range(self.num_renderers)).__getitem__
        return list(map(
            CompositeMessage._make,
            zip(map(rank, self.src.tolist()), map(rank, self.tile.tolist()), self.pixels.tolist()),
        ))

    @cached_property
    def _by_tile(self) -> dict[int, list[CompositeMessage]]:
        return _group(self.messages, self.tile)

    @cached_property
    def _by_src(self) -> dict[int, list[CompositeMessage]]:
        return _group(self.messages, self.src)

    def incoming(self, tile: int) -> list[CompositeMessage]:
        return self._by_tile.get(tile, [])

    def outgoing(self, src: int) -> list[CompositeMessage]:
        return self._by_src.get(src, [])

    def compositor_rank(self, tile: int) -> int:
        """Tile t is owned by rank t (compositors are the first m ranks)."""
        if not (0 <= tile < self.num_compositors):
            raise ConfigError(f"tile {tile} out of range")
        return tile

    @cached_property
    def sizes(self) -> np.ndarray:
        """Per-message bytes (payload + envelope), int64."""
        return self.pixels * BYTES_PER_PIXEL + MESSAGE_ENVELOPE_BYTES

    @property
    def total_messages(self) -> int:
        return int(self.pixels.size)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def mean_message_bytes(self) -> float:
        return self.total_bytes / self.total_messages if self.total_messages else 0.0


def build_schedule(
    footprints: Sequence[Rect | None] | np.ndarray,
    tiles: TileDecomposition,
    num_compositors: int,
) -> CompositeSchedule:
    """Schedule from per-renderer footprints ``(x0, y0, w, h)``.

    ``footprints`` is a sequence of rects (None = block off screen) or
    an ``(n, 4)`` int array whose off-screen rows have zero area.  Each
    renderer's tiles are enumerated row-major over its ``searchsorted``
    tile range — the order every message-order-dependent pin rests on.
    """
    if not isinstance(footprints, np.ndarray):
        footprints = np.array(
            [r if r is not None else (0, 0, 0, 0) for r in footprints], dtype=np.int64
        ).reshape(-1, 4)
    n = len(footprints)
    x0, y0, w, h = footprints.T
    x1, y1 = x0 + w, y0 + h
    xs, ys = tiles._xs, tiles._ys
    gx, gy = tiles.grid
    tx0 = np.maximum(np.searchsorted(xs, x0, side="right") - 1, 0)
    tx1 = np.minimum(np.searchsorted(xs, x1 - 1, side="right") - 1, gx - 1)
    ty0 = np.maximum(np.searchsorted(ys, y0, side="right") - 1, 0)
    ty1 = np.minimum(np.searchsorted(ys, y1 - 1, side="right") - 1, gy - 1)
    ntx = np.where((w > 0) & (h > 0), np.maximum(tx1 - tx0 + 1, 0), 0)
    k = ntx * np.maximum(ty1 - ty0 + 1, 0)
    src = np.repeat(np.arange(n), k)
    within = np.arange(src.size) - np.repeat(np.cumsum(k) - k, k)
    mty, mtx = np.divmod(within, ntx[src])
    mtx += tx0[src]
    mty += ty0[src]
    area = (
        np.maximum(np.minimum(x1[src], xs[mtx + 1]) - np.maximum(x0[src], xs[mtx]), 0)
        * np.maximum(np.minimum(y1[src], ys[mty + 1]) - np.maximum(y0[src], ys[mty]), 0)
    )
    keep = area > 0
    tile = (mty * gx + mtx)[keep]
    if tile.size and int(tile.max()) >= num_compositors:
        raise ConfigError("tile decomposition larger than compositor count")
    return CompositeSchedule(n, num_compositors, tiles, src[keep], tile, area[keep])


# Camera + decomposition keyed memoization of the geometric schedule.
# Time-series / orbit campaigns re-derive the identical schedule every
# frame otherwise (every rank of every frame, in the real system); the
# schedule is immutable once built, so sharing one instance is safe.
_SCHEDULE_CACHE = LRU(64)


def schedule_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the geometry-schedule memo."""
    cache = _SCHEDULE_CACHE
    return {"hits": cache.hits, "misses": cache.misses, "size": len(cache)}


def clear_schedule_cache() -> None:
    _SCHEDULE_CACHE.clear()
    _SCHEDULE_CACHE.hits = _SCHEDULE_CACHE.misses = 0


def schedule_from_geometry(
    decomposition: BlockDecomposition,
    camera: Camera,
    num_compositors: int,
    strips: bool = False,
    cache: bool = True,
) -> CompositeSchedule:
    """Schedule straight from block geometry (what every rank computes).

    Block i is rendered by rank i (one block per process, the paper's
    configuration); its footprint is the projected bounding box of its
    world AABB.  Results are memoized on (decomposition, camera, m,
    strips) — pass ``cache=False`` to force a cold build.
    """
    key = (decomposition.plan_key(), camera.plan_key(), int(num_compositors), strips)
    if cache:
        hit = _SCHEDULE_CACHE.get(key)
        if hit is not None:
            return hit
    tiles = TileDecomposition(camera.width, camera.height, num_compositors, strips=strips)
    footprints = camera.footprints(*decomposition.world_bounds())
    schedule = build_schedule(footprints, tiles, num_compositors)
    if cache:
        _SCHEDULE_CACHE.put(key, schedule)
    return schedule
