"""Direct-send compositing with n renderers and m <= n compositors.

The algorithm (Sec. III-B3): each renderer crops its partial image
against every tile its footprint overlaps and sends the piece to that
tile's compositor.  Compositors — the first m ranks, which also render
— receive the pieces the static schedule predicts, sort them by their
block's :meth:`~repro.render.camera.Camera.visibility_key`, and blend
front to back.  "The reduction from n to m occurs automatically as
part of the compositing step and incurs no additional cost."

Every rank runs the same generator; the schedule tells it what to send
and (if it owns a tile) what to expect.

This module is also the core of the *tile-routed family*:
:mod:`~repro.compositing.dfb` and :mod:`~repro.compositing.puzzlepiece`
keep this ownership map and message set and change only the fan-out
rule — *when* a piece enters the wire, or *whether* it does.  What the
three share is written once here: :func:`scheduled_piece`,
:func:`receive_and_blend` and :func:`failover_tail`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.compositing.schedule import CompositeSchedule
from repro.render.image import PartialImage, Rect, blank_image, composite_over

COMPOSITE_TAG = 7001
#: Failover pieces for dead tile ``t`` travel on ``FAILOVER_TAG_BASE + t``
#: so a survivor can receive per-(sender, tile) without ambiguity.
FAILOVER_TAG_BASE = 7100


def enabled_tracer(ctx: Any):
    """The rank's tracer if it is recording spans and counters, else None."""
    tr = getattr(ctx, "tracer", None)
    return tr if tr is not None and tr.enabled else None


def scheduled_piece(partial: PartialImage | None, rect: Rect) -> PartialImage:
    """The piece of ``partial`` a schedule entry for ``rect`` puts on the wire.

    A block can be scheduled (its AABB projects onto the tile) yet
    render to nothing (fully transparent, ``partial=None``); it sends
    an empty piece so the compositor's expected count still balances.
    """
    if partial is None:
        return PartialImage((0, 0, 0, 0), np.zeros((0, 0, 4), np.float32), float("inf"))
    return partial.crop(rect)


def piece_pixels(piece: PartialImage) -> int:
    return int(piece.rgba.shape[0] * piece.rgba.shape[1])


def count_sent(tr: Any, piece: PartialImage) -> None:
    if tr is not None:
        tr.count("compose.pieces_sent")
        tr.count("compose.pixels_sent", piece_pixels(piece))


def _blend(rect: Rect, pieces: list[PartialImage]) -> np.ndarray:
    x0, y0, w, h = rect
    return composite_over(blank_image(w, h), pieces, canvas_origin=(x0, y0))


def _own_contribution(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule
) -> list[PartialImage]:
    """A compositor's piece of its own tile: cropped in place, never sent."""
    if partial is None or all(m.src != ctx.rank for m in schedule.incoming(ctx.rank)):
        return []
    return [partial.crop(schedule.tiles.tile(ctx.rank))]


def _batched_fanout(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule,
    compress: bool = False, is_dead: Callable[[int], bool] | None = None,
) -> list:
    """Direct-send's fan-out rule: every scheduled piece in one batch.
    ``is_dead`` (failover only) names owners already known to be dead."""
    tr = enabled_tracer(ctx)
    batch: list[tuple[int, Any]] = []
    for msg in schedule.outgoing(ctx.rank):
        dest = schedule.compositor_rank(msg.tile)
        if dest == ctx.rank or (is_dead is not None and is_dead(dest)):
            # A local contribution needs no wire transfer — and no
            # piece construction: the owner crops its own partial when
            # it blends, so building one here would be thrown away on
            # every self-message.  A known-dead owner gets nothing.
            continue
        piece = scheduled_piece(partial, schedule.tiles.tile(msg.tile))
        if compress:
            piece = piece.trimmed()
        count_sent(tr, piece)
        batch.append((dest, piece))
    # One bulk-vectorized wire timeline for the whole fan-out.
    return ctx.isend_many(batch, COMPOSITE_TAG) if batch else []


def receive_and_blend(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule, tag: int,
    count: int | None = None,
) -> Generator:
    """A tile owner's side: take ``count`` wire pieces, blend the tile.

    Returns None on a rank that owns no tile.  ``count`` defaults to
    every piece the schedule routes here from another rank.  Pieces are
    received wildcard and appended in *arrival* order — that order
    breaks depth ties in ``composite_over``'s stable sort, so every
    variant that wants direct-send's pixels must keep it.
    """
    if ctx.rank >= schedule.num_compositors:
        return None
    tr = enabled_tracer(ctx)
    pieces = _own_contribution(ctx, partial, schedule)
    if count is None:
        count = sum(m.src != ctx.rank for m in schedule.incoming(ctx.rank))
    for _ in range(count):
        t_wait = ctx.now
        piece = yield from ctx.recv(tag=tag)
        if tr is not None:
            # One span per received piece: the gap between posting
            # the receive and the piece landing is compositor wait.
            tr.span(
                ctx.rank, "recv piece", "compose", t_wait, ctx.now,
                tile=ctx.rank, pixels=piece_pixels(piece),
            )
        pieces.append(piece)
    return _blend(schedule.tiles.tile(ctx.rank), pieces)


def direct_send_compose(
    ctx: Any,
    partial: PartialImage | None,
    schedule: CompositeSchedule,
    compress: bool = False,
) -> Generator:
    """One compositing phase; returns this rank's finished tile (or None).

    The caller must pass the same schedule on every rank.  Ranks whose
    block fell entirely off screen pass ``partial=None``; the schedule
    already contains no messages from them.  ``compress`` trims each
    piece to its active-pixel bounding box before sending (the
    IceT-style optimization; same image, smaller messages).
    """
    reqs = _batched_fanout(ctx, partial, schedule, compress)
    tile = yield from receive_and_blend(ctx, partial, schedule, COMPOSITE_TAG)
    yield from ctx.waitall(reqs)
    return tile


def failover_tail(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule,
    reqs: list, tag: int, failover_tag_base: int,
) -> Generator:
    """Phases 2-4 of compositor failover, after any variant's fan-out.

    Returns ``[(rect, image), ...]`` — the image regions this rank owns
    after failover: its own tile (if it is a live compositor) plus any
    strips of dead compositors' tiles it adopted.  ``reqs`` are the
    fan-out's outstanding sends on ``tag``.

    The protocol (all receives deferred until after *quiescence*):

    1. **Send phase** (the caller's fan-out) — every renderer posts its
       scheduled pieces exactly as in the base algorithm, skipping
       destinations already known dead.  Pieces addressed to a
       compositor that dies before delivery are discarded by the
       message board and counted lost.
    2. **Quiescence** — every rank waits on the injector's quiescence
       future, which resolves once the last planned crash (plus
       detection latency) has fired.  The dead set is then a stable
       snapshot: every rank computes the *same*
       :func:`~repro.fault.failover.failover_assignments` locally, so
       re-partitioning a dead tile into survivor strips requires no
       coordination messages (the Distributed FrameBuffer trick).
    3. **Failover sends** — renderers crop their partial against each
       adopted strip of a dead tile they contribute to and send it to
       the strip's new owner on ``failover_tag_base + tile``.
    4. **Receive + composite** — a live compositor receives its own
       tile's pieces source-by-source (``probe`` distinguishes "landed
       before the sender died" from "lost with the sender"), then each
       adopted strip's pieces from surviving contributors.  Radiance
       from crashed renderers is lost; the strip still composites from
       the survivors, trading image completeness for availability (the
       Approximate Puzzlepiece bargain).

    The final image is assembled *outside* the engine from the per-rank
    return values — there is no root gather to die with rank 0.
    """
    from repro.fault.failover import failover_assignments

    tr = enabled_tracer(ctx)
    fault = ctx.fault

    # Phase 2: wait out the failure detector; snapshot the dead set.
    yield fault.quiescent()
    dead = frozenset(fault.dead_ranks())
    assignments = failover_assignments(schedule, dead)

    # Phase 3: contribute to adopted strips of dead tiles.
    my_tiles = {m.tile for m in schedule.outgoing(ctx.rank)}
    local_pieces: dict[Rect, PartialImage] = {}
    for owner in sorted(assignments):
        for t, rect in assignments[owner]:
            if t not in my_tiles:
                continue  # footprint does not touch this dead tile
            piece = scheduled_piece(partial, rect)
            if owner == ctx.rank:
                local_pieces[rect] = piece
            else:
                reqs.append(ctx.isend(piece, owner, tag=failover_tag_base + t))
            if tr is not None:
                tr.count("compose.failover_pieces")

    # Phase 4: receive and composite everything this rank now owns.
    results: list[tuple[Rect, np.ndarray]] = []
    if ctx.rank < schedule.num_compositors:
        pieces = _own_contribution(ctx, partial, schedule)
        for m in schedule.incoming(ctx.rank):
            if m.src == ctx.rank:
                continue
            if m.src in dead and not ctx.probe(source=m.src, tag=tag):
                continue  # lost with the sender
            pieces.append((yield from ctx.recv(source=m.src, tag=tag)))
        rect = schedule.tiles.tile(ctx.rank)
        results.append((rect, _blend(rect, pieces)))
    for t, rect in assignments.get(ctx.rank, ()):
        pieces = [local_pieces[rect]] if rect in local_pieces else []
        for m in schedule.incoming(t):
            if m.src == ctx.rank or m.src in dead:
                continue  # own piece handled above; dead radiance is lost
            pieces.append((yield from ctx.recv(source=m.src, tag=failover_tag_base + t)))
        results.append((rect, _blend(rect, pieces)))
        fault.note_recovered(t, t, ctx.now)
    yield from ctx.waitall(reqs)
    return results


def direct_send_compose_failover(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule
) -> Generator:
    """Direct-send compositing that survives compositor crashes.

    Returns the regions this rank owns, as :func:`failover_tail` does.
    With no crash plan installed it delegates to
    :func:`direct_send_compose` and wraps the result, so the fast path
    is untouched.
    """
    fault = getattr(ctx, "fault", None)
    if fault is None or not fault.has_crashes:
        tile = yield from direct_send_compose(ctx, partial, schedule)
        return [] if tile is None else [(schedule.tiles.tile(ctx.rank), tile)]
    reqs = _batched_fanout(ctx, partial, schedule, is_dead=fault.is_dead)
    return (yield from failover_tail(
        ctx, partial, schedule, reqs, COMPOSITE_TAG, FAILOVER_TAG_BASE
    ))


def assemble_tiles(results: list[Any], width: int, height: int) -> np.ndarray:
    """Paste per-rank lists of ``(rect, image)`` regions onto one canvas.

    Under failover ``results`` is ``WorldResult.values`` (None entries
    for killed ranks are skipped) and this runs on the host, outside
    the engine, so a dead rank 0 cannot take the gather down with it;
    the in-engine root gathers paste what they collected the same way.
    """
    canvas = blank_image(width, height)
    for per_rank in results:
        if not per_rank:
            continue
        for (x0, y0, w, h), img in per_rank:
            if img is not None:
                canvas[y0 : y0 + h, x0 : x0 + w] = img
    return canvas


def assemble_final_image(
    ctx: Any,
    tile_image: np.ndarray | None,
    schedule: CompositeSchedule,
    root: int = 0,
) -> Generator:
    """Collect finished tiles at ``root``; returns the full canvas there.

    In production display pipelines tiles stream straight to the
    display; the gather here exists so tests and examples can check
    whole images.
    """
    tiles = schedule.tiles
    payload = (tiles.tile(ctx.rank), tile_image) if ctx.rank < schedule.num_compositors else None
    gathered = yield from ctx.gather(payload, root=root)
    if ctx.rank != root:
        return None
    return assemble_tiles([[item] for item in gathered if item], tiles.width, tiles.height)
