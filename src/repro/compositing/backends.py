"""The compositing backend registry: one abstraction, two algorithm families.

Everything that composites a frame — the core pipeline, ``repro render
--compositor``, the farm's execute backend, and the shootout benches —
dispatches through this registry instead of hard-wiring direct-send.
A backend owns the *timed* part of a rank's frame after the partial
image exists numerically: it charges the priced render seconds (so
overlapping schemes can interleave sends with the march), runs its
communication pattern, records the ``render``/``composite`` stage
spans every path shares, and says how the per-rank return values
become the frame.

The contract that keeps the default path bitwise frozen: the
direct-send backend performs *exactly* the engine-event sequence the
pipeline inlined before the registry existed — one render compute,
the scheduled fan-out, the root gather — so a zero-fault direct-send
frame is reproduced bit for bit.

Backends:

================  =====  ========  ======================================
name              exact  failover  notes
================  =====  ========  ======================================
``directsend``    yes    yes       the paper's scheme, m <= n compositors
``dfb``           yes    yes       Distributed FrameBuffer: streamed
                                   tiles overlap compositing with render
``puzzlepiece``   no*    no        bounded-error drops; * exact at
                                   ``error_budget=0``; monolithic engine
``radixk``        yes    no        grouped rounds, radix <= k
``binaryswap``    yes    no        radix-k with k = 2 (pow2 block grid)
``serial``        yes    no        gather-to-root oracle
================  =====  ========  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.compositing.binaryswap import check_pow2_grid
from repro.compositing.dfb import dfb_compose, dfb_compose_failover
from repro.compositing.directsend import (
    assemble_tiles,
    direct_send_compose,
    direct_send_compose_failover,
    assemble_final_image,
)
from repro.compositing.puzzlepiece import puzzlepiece_compose
from repro.compositing.radixk import (
    check_one_block_per_rank,
    default_radices,
    radix_k_compose,
    radix_k_gather,
)
from repro.compositing.schedule import CompositeSchedule
from repro.compositing.serial import serial_compose
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage
from repro.utils.errors import ConfigError


@dataclass
class ComposeRequest:
    """Everything a backend needs for one rank's timed frame tail."""

    partial: PartialImage | None
    schedule: CompositeSchedule
    decomposition: BlockDecomposition
    camera: Camera
    render_seconds: float  # priced ray-march time for this rank
    error_budget: float = 0.0  # per-pixel error allowance (puzzlepiece)
    failover: bool = False  # a crash plan is armed this frame


class CompositingBackend:
    """Base class: capability flags, validation, compose, finalize."""

    name: str = "?"
    #: Reproduces the serial oracle (pixel-exact sort-last compositing).
    exact: bool = True
    #: Survives compositor crashes via quiescence + re-partition.
    supports_failover: bool = False
    #: Honors a nonzero ``error_budget``.
    supports_error_budget: bool = False
    #: Runs under the sharded conservative-parallel DES backend.
    supports_parallel: bool = True

    def validate(
        self,
        nprocs: int,
        decomposition: BlockDecomposition | None = None,
        parallel: Any = None,
        failover: bool = False,
        error_budget: float = 0.0,
    ) -> None:
        """Reject unsupported configurations with a clear error."""
        if failover and not self.supports_failover:
            raise ConfigError(
                f"compositor {self.name!r} does not support compositor "
                f"failover; use 'directsend' or 'dfb' with crash plans"
            )
        if error_budget and not self.supports_error_budget:
            raise ConfigError(
                f"compositor {self.name!r} is exact and ignores no error "
                f"budget; error_budget requires 'puzzlepiece'"
            )
        if parallel is not None and not self.supports_parallel:
            raise ConfigError(
                f"compositor {self.name!r} requires the monolithic DES "
                f"engine (its drain protocol uses the global-interrupt "
                f"barrier); drop the ParallelConfig"
            )

    def compose(self, ctx: Any, req: ComposeRequest) -> Generator:
        """One rank's render-charge + compositing phase (a generator).

        Charges the priced march, runs :meth:`communicate`, and records
        the ``render``/``composite`` stage spans around them.
        """
        tr = ctx.tracer
        t_io = ctx.now
        yield from ctx.compute(req.render_seconds)
        t_render = ctx.now
        if tr is not None:
            tr.stage(ctx.rank, "render", t_io, t_render)
        out = yield from self.communicate(ctx, req)
        if tr is not None:
            tr.stage(ctx.rank, "composite", t_render, ctx.now)
        return out

    def communicate(self, ctx: Any, req: ComposeRequest) -> Generator:
        """The backend's message pattern, after the march is charged."""
        raise NotImplementedError

    def finalize(
        self, values: list[Any], camera: Camera, failover: bool = False
    ) -> tuple[np.ndarray, dict | None]:
        """Per-rank return values -> (frame image, compose stats)."""
        if failover:
            # No root gather under a crash plan (rank 0 may be dead):
            # every survivor returned the regions it owns.
            return assemble_tiles(values, camera.width, camera.height), None
        return values[0], None


class DirectSendBackend(CompositingBackend):
    """The paper's direct-send with n renderers, m <= n compositors."""

    name = "directsend"
    supports_failover = True

    def communicate(self, ctx: Any, req: ComposeRequest) -> Generator:
        if req.failover:
            return (yield from direct_send_compose_failover(ctx, req.partial, req.schedule))
        tile = yield from direct_send_compose(ctx, req.partial, req.schedule)
        return (yield from assemble_final_image(ctx, tile, req.schedule, root=0))


class DFBBackend(CompositingBackend):
    """Distributed FrameBuffer: streamed tile routing, overlapped."""

    name = "dfb"
    supports_failover = True

    def compose(self, ctx: Any, req: ComposeRequest) -> Generator:
        # dfb_compose records the stage spans itself: the render stage
        # boundary falls between its interleaved chunks, not here.
        run = dfb_compose_failover if req.failover else dfb_compose
        return (yield from run(ctx, req.partial, req.schedule, req.render_seconds))


class PuzzlepieceBackend(CompositingBackend):
    """Approximate puzzlepiece: bounded-error sender-side drops."""

    name = "puzzlepiece"
    exact = False  # exact only at error_budget == 0
    supports_error_budget = True
    supports_parallel = False  # gi_barrier needs the monolithic engine

    def communicate(self, ctx: Any, req: ComposeRequest) -> Generator:
        return (yield from puzzlepiece_compose(ctx, req.partial, req.schedule, req.error_budget))

    def finalize(self, values, camera, failover=False):
        image = values[0][0] if values and values[0] is not None else None
        per_tile: dict[int, float] = {}
        pieces_dropped = 0
        bytes_saved = 0
        for v in values:
            if v is None:
                continue
            stats = v[1]
            pieces_dropped += stats["pieces_dropped"]
            bytes_saved += stats["bytes_saved"]
            for tile, err in stats["dropped"]:
                per_tile[tile] = per_tile.get(tile, 0.0) + err
        error_bound = max(per_tile.values()) if per_tile else 0.0
        return image, {
            "pieces_dropped": pieces_dropped,
            "bytes_saved": bytes_saved,
            "error_bound": error_bound,
        }


class RadixKBackend(CompositingBackend):
    """Radix-k rounds along the block grid axes (k = 4 by default)."""

    name = "radixk"
    k = 4

    def validate(self, nprocs, decomposition=None, parallel=None,
                 failover=False, error_budget=0.0):
        super().validate(nprocs, decomposition, parallel, failover, error_budget)
        self.check_grid(
            check_one_block_per_rank(f"compositor {self.name!r}", nprocs, decomposition)
        )

    def check_grid(self, grid: tuple[int, int, int]) -> None:
        for extent in grid:
            default_radices(extent, self.k)  # raises ConfigError if unfactorable

    def communicate(self, ctx: Any, req: ComposeRequest) -> Generator:
        region, image = yield from radix_k_compose(
            ctx, req.partial, req.decomposition, req.camera, k=self.k
        )
        return (yield from radix_k_gather(
            ctx, region, image, req.camera.width, req.camera.height, root=0
        ))


class BinarySwapBackend(RadixKBackend):
    """Binary swap: radix-2 rounds over a power-of-two block grid."""

    name = "binaryswap"
    k = 2

    def check_grid(self, grid: tuple[int, int, int]) -> None:
        check_pow2_grid(grid)


class SerialBackend(CompositingBackend):
    """Gather-to-root oracle: correct, unscalable, the measuring stick."""

    name = "serial"

    def communicate(self, ctx: Any, req: ComposeRequest) -> Generator:
        return (yield from serial_compose(
            ctx, req.partial, req.camera.width, req.camera.height, root=0
        ))


_REGISTRY: dict[str, CompositingBackend] = {}


def register_backend(backend: CompositingBackend) -> CompositingBackend:
    """Add a backend instance to the registry (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> CompositingBackend:
    """Look up a backend by name; ConfigError lists what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown compositor {name!r}; registered: {', '.join(backend_names())}"
        ) from None


def backend_names() -> list[str]:
    return sorted(_REGISTRY)


for _b in (
    DirectSendBackend(),
    DFBBackend(),
    PuzzlepieceBackend(),
    BinarySwapBackend(),
    RadixKBackend(),
    SerialBackend(),
):
    register_backend(_b)
