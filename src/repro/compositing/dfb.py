"""Distributed FrameBuffer compositing (Usher et al., after [DFB]).

The Distributed FrameBuffer decouples *who rendered a region* from
*who owns it on screen*: the image is split into tiles with a static
ownership map, and renderers route each finished tile piece to its
owner **as soon as that piece's rays are done**, instead of holding the
whole partial image until the render stage ends.  Tile owners overlap
receiving and blending with the tail of everyone else's ray-march, so
compositing hides inside the render stage rather than serializing
after it.

This implementation reuses the direct-send machinery deliberately:

* the ownership map *is* the direct-send schedule (tile ``t`` is owned
  by compositor rank ``t``, m <= n), so message counts and byte totals
  are identical to direct-send — what changes is *when* pieces enter
  the wire;
* the per-rank render time (``render_seconds``, priced from the actual
  sample count) is split across the rank's outgoing pieces in
  proportion to their pixel areas: the rays of a footprint∩tile piece
  are exactly the pixels of that piece, so finishing "the piece's
  share" of the march releases the piece;
* owners blend with the same depth-sorted :func:`composite_tile` the
  direct-send compositors use, so the result is pixel-identical.

Failover *is* direct-send's: after the streamed fan-out (which skips
owners already known dead) the shared :func:`~repro.compositing.
directsend.failover_tail` re-partitions dead tiles into survivor strips
with the deterministic :func:`~repro.fault.failover.failover_assignments`
map — the DFB ownership map is re-written locally, no coordination messages.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.compositing.directsend import (
    assemble_final_image,
    count_sent,
    enabled_tracer,
    failover_tail,
    piece_pixels,
    receive_and_blend,
    scheduled_piece,
)
from repro.compositing.schedule import CompositeSchedule
from repro.render.image import PartialImage

DFB_TAG = 7401
#: Failover pieces for dead tile ``t`` travel on ``DFB_FAILOVER_TAG_BASE + t``.
DFB_FAILOVER_TAG_BASE = 7500


def _streamed_fanout(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule,
    render_seconds: float, is_dead: Callable[[int], bool] | None = None,
) -> Generator:
    """DFB's fan-out rule: march in per-piece chunks, post each piece as
    its chunk completes.  Charges ``render_seconds`` in total, records
    the ``render`` stage span, and returns the outstanding sends.  The
    rank's own tile is marched like any other piece but never enters
    the wire, nor does a piece for an owner ``is_dead`` says is gone.
    """
    tr = enabled_tracer(ctx)
    t_io = ctx.now
    routed = [
        (schedule.compositor_rank(m.tile), scheduled_piece(partial, schedule.tiles.tile(m.tile)))
        for m in schedule.outgoing(ctx.rank)
    ]
    total_px = sum(piece_pixels(piece) for _dest, piece in routed)
    if total_px == 0:
        # Off-screen block (or an all-empty footprint): nothing to
        # stream, charge the march in one piece like direct-send does.
        yield from ctx.compute(render_seconds)
    reqs = []
    spent = 0.0
    for i, (dest, piece) in enumerate(routed):
        if total_px:
            if i == len(routed) - 1:
                chunk = max(0.0, render_seconds - spent)  # absorb rounding
            else:
                chunk = render_seconds * (piece_pixels(piece) / total_px)
            spent += chunk
            if chunk > 0:
                yield from ctx.compute(chunk)
        if dest == ctx.rank or (is_dead is not None and is_dead(dest)):
            continue
        count_sent(tr, piece)
        reqs.append(ctx.isend(piece, dest, tag=DFB_TAG))
    if ctx.tracer is not None:
        ctx.tracer.stage(ctx.rank, "render", t_io, ctx.now)
    return reqs


def dfb_compose(
    ctx: Any,
    partial: PartialImage | None,
    schedule: CompositeSchedule,
    render_seconds: float,
    root_gather: bool = True,
) -> Generator:
    """Overlapped render + compositing; returns the frame on rank 0.

    Charges ``render_seconds`` of ray-march time in per-piece chunks
    (proportional to piece pixel area) and posts each piece the moment
    its chunk completes, so early pieces travel while later rays still
    march.  Records the same ``render``/``composite`` stage spans and
    ``compose.*`` counters as the direct-send path — sends that land
    inside the render window are the overlap, visible in the trace.

    With ``root_gather`` (the default) finished tiles are collected at
    rank 0 inside the composite stage, exactly like the direct-send
    pipeline; with it off each owner returns its raw tile.
    """
    reqs = yield from _streamed_fanout(ctx, partial, schedule, render_seconds)
    t_render = ctx.now
    result = yield from receive_and_blend(ctx, partial, schedule, DFB_TAG)
    yield from ctx.waitall(reqs)
    if root_gather:
        result = yield from assemble_final_image(ctx, result, schedule, root=0)
    if ctx.tracer is not None:
        ctx.tracer.stage(ctx.rank, "composite", t_render, ctx.now)
    return result


def dfb_compose_failover(
    ctx: Any,
    partial: PartialImage | None,
    schedule: CompositeSchedule,
    render_seconds: float,
) -> Generator:
    """DFB compositing that survives compositor crashes.

    The four-phase protocol of :func:`~repro.compositing.directsend.
    failover_tail` with the DFB's chunked render overlap as phase 1.
    Returns ``[(rect, image), ...]`` — the regions this rank owns after
    failover.
    """
    fault = getattr(ctx, "fault", None)
    if fault is None or not fault.has_crashes:
        tile = yield from dfb_compose(ctx, partial, schedule, render_seconds, root_gather=False)
        return [] if tile is None else [(schedule.tiles.tile(ctx.rank), tile)]
    reqs = yield from _streamed_fanout(ctx, partial, schedule, render_seconds, fault.is_dead)
    t_render = ctx.now
    results = yield from failover_tail(ctx, partial, schedule, reqs, DFB_TAG, DFB_FAILOVER_TAG_BASE)
    if ctx.tracer is not None:
        ctx.tracer.stage(ctx.rank, "composite", t_render, ctx.now)
    return results
