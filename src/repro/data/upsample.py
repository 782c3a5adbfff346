"""Upsampling — the paper's preprocessing for 2240^3 and 4480^3 data.

"Because data in the desired scale do not exist ... we upsampled the
existing supernova raw data format.  Upsampling preserves the structure
of the data ...  performed efficiently, in parallel, with the same BG/P
architecture and collective I/O, but as a separate step prior to
executing the visualization." (Sec. IV-B)

``upsample_trilinear`` is the serial kernel; ``upsample_parallel_program``
is the SPMD version, where each rank upsamples one output block from
the input region it maps to (plus one interpolation ghost voxel).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError
from repro.utils.validation import check_positive


def upsample_trilinear(data: np.ndarray, factor: int) -> np.ndarray:
    """Trilinear upsampling by an integer factor along every axis.

    Output sample j maps to input coordinate ``j * (n_in - 1) /
    (n_out - 1)`` per axis (endpoints preserved), so upsampled data
    render to images "similar to those from the original data".
    """
    check_positive("factor", factor)
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 3:
        raise ConfigError(f"expected a 3D volume, got shape {arr.shape}")
    if factor == 1:
        return arr.copy()
    out_shape = tuple(s * factor for s in arr.shape)
    return _resample(arr, (0, 0, 0), out_shape, arr.shape, out_shape)


def _resample(
    src: np.ndarray,
    out_start: tuple[int, int, int],
    out_count: tuple[int, int, int],
    in_shape: tuple[int, int, int],
    out_shape: tuple[int, int, int],
    src_origin: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """Trilinear sample of the output window [out_start, out_start+out_count).

    ``src`` holds input voxels beginning at ``src_origin``; the global
    mapping is output j -> input j * (n_in - 1) / (n_out - 1).
    """
    coords = []
    for d in range(3):
        n_in, n_out = in_shape[d], out_shape[d]
        scale = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
        j = np.arange(out_start[d], out_start[d] + out_count[d], dtype=np.float64)
        coords.append(j * scale - src_origin[d])
    zz, yy, xx = np.meshgrid(*coords, indexing="ij")

    def clamp(v: np.ndarray, n: int) -> np.ndarray:
        return np.clip(v, 0, n - 1)

    z0 = clamp(np.floor(zz).astype(np.int64), src.shape[0])
    y0 = clamp(np.floor(yy).astype(np.int64), src.shape[1])
    x0 = clamp(np.floor(xx).astype(np.int64), src.shape[2])
    z1 = clamp(z0 + 1, src.shape[0])
    y1 = clamp(y0 + 1, src.shape[1])
    x1 = clamp(x0 + 1, src.shape[2])
    fz = np.clip(zz - z0, 0.0, 1.0)
    fy = np.clip(yy - y0, 0.0, 1.0)
    fx = np.clip(xx - x0, 0.0, 1.0)
    c00 = src[z0, y0, x0] * (1 - fx) + src[z0, y0, x1] * fx
    c01 = src[z0, y1, x0] * (1 - fx) + src[z0, y1, x1] * fx
    c10 = src[z1, y0, x0] * (1 - fx) + src[z1, y0, x1] * fx
    c11 = src[z1, y1, x0] * (1 - fx) + src[z1, y1, x1] * fx
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    return (c0 * (1 - fz) + c1 * fz).astype(np.float32)


def upsample_parallel_program(
    ctx: Any,
    input_blocks: list[np.ndarray],
    input_regions: list[tuple[tuple[int, int, int], tuple[int, int, int]]],
    in_shape: tuple[int, int, int],
    factor: int,
):
    """SPMD upsampling: rank r produces output block r.

    ``input_blocks[r]``/``input_regions[r]`` are the input voxels
    (start, count) each rank was handed by the collective read — the
    output block's preimage plus one ghost voxel.  Returns each rank's
    output block; callers write them back collectively.
    """
    out_shape = tuple(s * factor for s in in_shape)
    dec = BlockDecomposition(out_shape, ctx.size)  # type: ignore[arg-type]
    b = dec.block(ctx.rank)
    (src_start, _src_count) = input_regions[ctx.rank]
    out = _resample(
        input_blocks[ctx.rank], b.start, b.count, in_shape, out_shape, src_origin=src_start
    )
    # Charge compute time at the calibrated sampling rate: one
    # trilinear evaluation per output voxel, like a ray sample.
    yield from ctx.compute(out.size / 3.5e5)
    yield from ctx.barrier()
    return out


def input_region_for_output_block(
    out_start: tuple[int, int, int],
    out_count: tuple[int, int, int],
    in_shape: tuple[int, int, int],
    out_shape: tuple[int, int, int],
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Input (start, count) an output block's trilinear stencil touches."""
    start = []
    count = []
    for d in range(3):
        n_in, n_out = in_shape[d], out_shape[d]
        scale = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
        lo = int(np.floor(out_start[d] * scale))
        hi = int(np.floor((out_start[d] + out_count[d] - 1) * scale)) + 1
        lo = max(lo, 0)
        hi = min(hi + 1, n_in)
        start.append(lo)
        count.append(hi - lo)
    return tuple(start), tuple(count)  # type: ignore[return-value]
