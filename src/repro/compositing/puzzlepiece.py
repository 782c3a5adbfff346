"""Approximate Puzzlepiece compositing (after Huang, Usher & Pascucci).

Direct-send pays for every scheduled piece whether or not it matters:
a block whose footprint grazes a tile still ships a near-transparent
sliver, and a block that rendered to nothing ships an *empty* piece
just to balance the compositor's expected count.  Puzzlepiece drops
those pieces at the sender under an explicit per-pixel ``error_budget``
and lets the count float.

**Error model.**  Tiles composite premultiplied RGBA with the *over*
operator.  Removing piece ``j`` (per-pixel alpha and premultiplied
color both <= ``a_j = max alpha of the piece``) from a front-to-back
over chain changes any channel of the result by at most ``2 a_j``:
its own contribution (<= ``a_j``) plus the increased transmittance
reaching everything behind it (a factor ``1/(1-a_j)`` on a tail whose
total is <= 1, i.e. <= ``a_j`` absolute).  Dropped pieces therefore
cost at most ``2 * sum(a_j)`` per pixel.  Splitting the tile's budget
evenly over its ``E_t`` scheduled pieces makes the decision
sender-local: each sender drops its piece iff ``a_j <= budget /
(2 E_t)``, and the tile's error stays <= ``budget`` no matter which
subset of senders drops.

``budget = 0`` drops nothing at all: the wire pattern is then exactly
direct-send's, and the result is bitwise identical to it.  (Even
eliding provably-zero pieces would perturb wire contention, reorder
equal-depth arrivals, and shift depth-tie association by an ulp —
elision of empty balancing messages therefore starts with the first
positive budget, where the bound absorbs association noise.)

**Count problem.**  The static schedule tells each owner how many
pieces to expect; data-dependent drops would hang its receive loop.
Sending empty stubs would keep the message count — the thing we are
trying to reduce.  Instead the phase runs *send → drain*:

1. every rank posts its surviving pieces and waits for its own sends
   to be **delivered** (send futures resolve at delivery time);
2. one :meth:`~repro.vmpi.context.RankContext.gi_barrier` — the BG/P
   global-interrupt hardware barrier, zero torus messages — after
   which *everyone's* surviving pieces have landed;
3. owners ``probe`` per scheduled source and receive exactly the
   pieces that exist.

The barrier costs one fixed interrupt latency plus aligning on the
slowest sender — compositors wait for the slowest piece under
direct-send too — and not a single torus message, so the drop savings
are real savings.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.compositing.directsend import (
    assemble_final_image,
    count_sent,
    enabled_tracer,
    receive_and_blend,
    scheduled_piece,
)
from repro.compositing.schedule import CompositeSchedule
from repro.render.image import PartialImage

PUZZLE_TAG = 7601


def puzzle_thresholds(schedule: CompositeSchedule, error_budget: float) -> dict[int, float]:
    """Per-tile max-alpha threshold below which a sender may drop.

    ``budget / (2 E_t)`` with ``E_t`` the tile's scheduled piece count
    — see the module docstring for why the tile error then stays
    within ``budget`` for any subset of droppers.
    """
    return {
        t: error_budget / (2.0 * max(1, len(schedule.incoming(t))))
        for t in range(schedule.num_compositors)
    }


def piece_max_alpha(piece: PartialImage) -> float:
    """The sender-side contribution estimate: the piece's peak alpha."""
    if piece.rgba.size == 0:
        return 0.0
    return float(piece.rgba[..., 3].max())


def _budgeted_fanout(
    ctx: Any, partial: PartialImage | None, schedule: CompositeSchedule, error_budget: float
) -> tuple[list, dict]:
    """Puzzlepiece's fan-out rule: one batch of the pieces worth sending;
    returns the outstanding sends and this rank's drop ledger."""
    tr = enabled_tracer(ctx)
    thresholds = puzzle_thresholds(schedule, error_budget)
    batch: list[tuple[int, Any]] = []
    dropped: list[tuple[int, float]] = []
    bytes_saved = 0
    for msg in schedule.outgoing(ctx.rank):
        dest = schedule.compositor_rank(msg.tile)
        if dest == ctx.rank:
            continue  # the owner crops its own piece when it blends
        piece = scheduled_piece(partial, schedule.tiles.tile(msg.tile))
        a_max = piece_max_alpha(piece)
        if error_budget > 0 and a_max <= thresholds[msg.tile]:
            dropped.append((msg.tile, 2.0 * a_max))
            bytes_saved += msg.nbytes
            if tr is not None:
                tr.count("compose.pieces_dropped")
                tr.count("compose.bytes_saved", int(msg.nbytes))
            continue
        count_sent(tr, piece)
        batch.append((dest, piece))
    reqs = ctx.isend_many(batch, PUZZLE_TAG) if batch else []
    return reqs, {
        "pieces_dropped": len(dropped),
        "bytes_saved": int(bytes_saved),
        "dropped": dropped,
    }


def puzzlepiece_compose(
    ctx: Any,
    partial: PartialImage | None,
    schedule: CompositeSchedule,
    error_budget: float = 0.0,
) -> Generator:
    """One bounded-error compositing phase.

    Returns ``(frame, stats)`` — the gathered frame on rank 0 (None
    elsewhere) and this rank's drop ledger::

        {"pieces_dropped": int, "bytes_saved": int,
         "dropped": [(tile, 2 * max_alpha), ...]}

    Aggregating ``dropped`` per tile across ranks and taking the max
    over tiles bounds the frame's per-pixel error (see the backend's
    ``finalize``).  Requires the monolithic DES engine — the drain
    protocol's :meth:`gi_barrier` is not wired under the sharded
    parallel backend.
    """
    reqs, stats = _budgeted_fanout(ctx, partial, schedule, error_budget)

    # Drain protocol: my sends delivered, then everyone's (the
    # global-interrupt barrier), then probe-guarded receives.
    yield from ctx.waitall(reqs)
    yield from ctx.gi_barrier()

    # Owners probe per scheduled source to learn how many pieces exist,
    # then receive them wildcard so they append in *arrival* order —
    # the order direct-send's compositors see.  Keeping that order is
    # what makes budget = 0 bitwise direct-send.
    present = 0
    if ctx.rank < schedule.num_compositors:
        present = sum(
            m.src != ctx.rank and ctx.probe(source=m.src, tag=PUZZLE_TAG)
            for m in schedule.incoming(ctx.rank)
        )
    tile = yield from receive_and_blend(ctx, partial, schedule, PUZZLE_TAG, present)
    frame = yield from assemble_final_image(ctx, tile, schedule, root=0)
    return frame, stats
