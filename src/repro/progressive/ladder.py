"""Resolution-ladder arithmetic and the multiresolution pyramid.

A ladder of ``L`` levels renders the same view at power-of-two scale
factors ``2^(L-1), ..., 2, 1`` (coarse first).  Each coarse level
renders a *precomputed* stride-subsampled copy of the volume — the
standard multiresolution-pyramid preprocessing, the progressive
analogue of the paper's upsampling step (Sec. IV-B, in reverse) — so a
level's I/O, render, and composite all shrink with its scale instead
of paying the full-resolution read before the first pixel.  The final
level renders the *original* handle through the *original* camera:
bitwise identity with a direct full-resolution render is a property of
the construction, not a tolerance.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.utils.errors import ConfigError


def ladder_scales(levels: int) -> tuple[int, ...]:
    """Scale factors coarse-to-fine: ``(2^(L-1), ..., 2, 1)``."""
    if levels < 1:
        raise ConfigError(f"a ladder needs levels >= 1, got {levels}")
    return tuple(2 ** (levels - 1 - k) for k in range(levels))


def level_edge(full_edge: int, scale: int) -> int:
    """Image edge of one level, matching :meth:`Camera.scaled` exactly."""
    if scale == 1:
        return int(full_edge)
    return max(1, int(full_edge / scale))


def ladder_edges(full_edge: int, levels: int) -> tuple[int, ...]:
    """Per-level image edges, coarse to fine (last is ``full_edge``)."""
    return tuple(level_edge(full_edge, f) for f in ladder_scales(levels))


def levels_before_move(level_end_s: Iterable[float], cancel_after_s: float | None) -> int:
    """How many levels a ladder delivers when the viewer moves the camera
    ``cancel_after_s`` into it (``None``: never).

    The level in flight completes — preempting mid-composite would tear
    a frame — and a level starts only if the move is later than the
    previous level's delivery, so a move at exactly a level's end stops
    the next one.  The coarsest level always lands.  ``level_end_s`` is
    each level's delivery time on the ladder clock, coarse first; it is
    read only as far as the rule needs, so a lazy iterable may render
    each level as its end is asked for.
    """
    delivered = 0
    for end in level_end_s:
        delivered += 1
        if cancel_after_s is not None and cancel_after_s <= end:
            break
    return delivered


def subsample(field: np.ndarray, scale: int) -> np.ndarray:
    """Stride-``scale`` subsample (contiguous) — one pyramid level.

    Strided views keep the original's corner voxel and every
    ``scale``-th sample after it; ``ceil(n / scale)`` voxels per axis.
    """
    if scale < 1:
        raise ConfigError(f"pyramid scale must be >= 1, got {scale}")
    if scale == 1:
        return np.ascontiguousarray(field)
    return np.ascontiguousarray(field[::scale, ::scale, ::scale])


def check_ladder_fits(grid: tuple[int, ...], levels: int) -> None:
    """Fail loudly when the coarsest level would collapse the volume."""
    coarsest = 2 ** (levels - 1)
    smallest = min(-(-int(g) // coarsest) for g in grid)
    if smallest < 2:
        raise ConfigError(
            f"a {levels}-level ladder subsamples grid {tuple(grid)} down to "
            f"under 2 voxels per axis at scale {coarsest}; use fewer levels"
        )


def build_pyramid(field: np.ndarray, levels: int) -> list[np.ndarray]:
    """Coarse-to-fine pyramid; the last entry is the full-res field.

    Only the coarse copies are materialized fresh — the final entry is
    the input array itself, so a renderer given ``pyramid[-1]`` reads
    the same bytes a direct render would.
    """
    arr = np.asarray(field)
    if arr.ndim != 3:
        raise ConfigError(f"expected a 3D volume, got shape {arr.shape}")
    check_ladder_fits(arr.shape, levels)
    out: list[np.ndarray] = []
    for f in ladder_scales(levels):
        out.append(arr if f == 1 else subsample(arr, f))
    return out
