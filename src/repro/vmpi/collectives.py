"""Collective algorithms over simulated point-to-point messages.

These are the textbook algorithms the MPI literature cited by the paper
analyzes (binomial trees, recursive doubling, dissemination), so
collective costs *emerge* from the network model.

All ranks must call each collective in the same program order (SPMD);
a per-context sequence number keeps consecutive collectives' messages
from matching each other.
"""

from __future__ import annotations

import functools
from typing import Any, Generator

import numpy as np

from repro.utils.errors import CommunicationError
from repro.vmpi.ops import resolve_op
from repro.vmpi.payload import Detached, payload_nbytes, snapshot

#: Tags at or above this value are reserved for collective internals.
COLLECTIVE_TAG_BASE = 1 << 20


def _coll_tag(ctx: Any) -> int:
    """Fresh reserved tag for one collective instance (same on all ranks)."""
    tag = COLLECTIVE_TAG_BASE + ctx._coll_seq
    ctx._coll_seq += 1
    return tag


def traced(ctx: Any, name: str, gen: Generator) -> Generator:
    """Run a collective generator inside a tracer span (cat ``coll``).

    Each participating rank gets its own span covering its entry to
    exit — ranks enter collectives at different times, so the spans'
    stagger is the collective's skew.  Costs one attribute lookup when
    no (enabled) tracer rides the context.
    """
    tr = getattr(ctx, "tracer", None)
    if tr is None or not tr.enabled:
        return (yield from gen)
    t0 = ctx.now
    result = yield from gen
    tr.span(ctx.rank, name, "coll", t0, ctx.now)
    return result


#: Latency of one global-interrupt broadcast across the full machine.
#: The BG/P global-interrupt network is a dedicated OR/AND tree of
#: single-bit signals spanning all racks; the hardware edge crosses the
#: machine in well under a microsecond and MPI's barrier-on-interrupts
#: path lands at a few microseconds end to end.
GI_LATENCY_S = 1.3e-6


def gi_barrier(ctx: Any) -> Generator:
    """Barrier over the global-interrupt network (the BG/P hardware barrier).

    Unlike :func:`barrier` — a dissemination barrier whose n·ceil(log2 n)
    point-to-point messages ride the torus — the global-interrupt
    network is a separate wired-AND tree: every rank raises its signal,
    the AND fires when the last one arrives, and all ranks observe the
    edge one fixed propagation latency later.  Zero torus messages,
    zero bytes.  This is what makes a full-world synchronization point
    affordable inside a compositing phase (the puzzlepiece drain
    protocol), where a software barrier would cost more messages than
    the optimization saves.

    Only the monolithic engine wires the shared interrupt line; the
    sharded parallel backend would need a cross-shard rendezvous and
    rejects the call cleanly instead of hanging.
    """
    from repro.sim.events import Future

    board = ctx.board
    if not getattr(board, "gi_capable", False):
        raise CommunicationError(
            "gi_barrier requires the monolithic engine's global-interrupt "
            "line; the sharded parallel backend does not wire it "
            "(run without ParallelConfig)"
        )
    st = getattr(board, "_gi_pending", None)
    if st is None:
        st = board._gi_pending = {"arrived": 0, "future": Future(name="gi_barrier")}
    st["arrived"] += 1
    fut = st["future"]
    if st["arrived"] == ctx.size:
        # Last arrival: the wired AND fires.  Clear the rendezvous
        # before resolving so a follow-up gi_barrier starts fresh.
        board._gi_pending = None
        fut.resolve(None)
    yield fut
    # Every rank observes the interrupt edge one propagation delay
    # after the last arrival.
    yield from ctx.compute(GI_LATENCY_S)


def barrier(ctx: Any) -> Generator:
    """Dissemination barrier: ceil(log2 p) rounds, works for any p."""
    p = ctx.size
    tag = _coll_tag(ctx)
    k = 1
    while k < p:
        dest = (ctx.rank + k) % p
        src = (ctx.rank - k) % p
        req = ctx.isend(None, dest, tag)
        yield from ctx.recv(source=src, tag=tag)
        yield from ctx.wait(req)
        k <<= 1


def bcast(ctx: Any, data: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the data on every rank."""
    p = ctx.size
    _check_root(root, p)
    tag = _coll_tag(ctx)
    rel = (ctx.rank - root) % p
    mask = 1
    while mask < p:
        if rel & mask:
            src = (ctx.rank - mask) % p
            data = yield from ctx.recv(source=src, tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < p:
            dest = (ctx.rank + mask) % p
            yield from ctx.send(data, dest, tag)
        mask >>= 1
    return data


def reduce(ctx: Any, value: Any, op: Any = "sum", root: int = 0) -> Generator:
    """Binomial-tree reduction; the result lands on ``root`` only.

    Combines in a fixed child order so non-commutative (but
    associative) operators are safe.
    """
    p = ctx.size
    _check_root(root, p)
    fn = resolve_op(op)
    tag = _coll_tag(ctx)
    rel = (ctx.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if rel & mask:
            dest = ((rel & ~mask) + root) % p
            yield from ctx.send(acc, dest, tag)
            return None
        peer_rel = rel | mask
        if peer_rel < p:
            src = (peer_rel + root) % p
            other = yield from ctx.recv(source=src, tag=tag)
            acc = fn(acc, other)
        mask <<= 1
    return acc if ctx.rank == root else None


def allreduce(ctx: Any, value: Any, op: Any = "sum") -> Generator:
    """Recursive doubling when p is a power of two; else reduce+bcast."""
    p = ctx.size
    fn = resolve_op(op)
    if p & (p - 1) == 0:
        tag = _coll_tag(ctx)
        acc = value
        mask = 1
        while mask < p:
            peer = ctx.rank ^ mask
            req = ctx.isend(acc, peer, tag)
            other = yield from ctx.recv(source=peer, tag=tag)
            yield from ctx.wait(req)
            # Fixed operand order (lower rank first) keeps every rank's
            # combine tree identical, so results match bitwise.
            acc = fn(acc, other) if peer > ctx.rank else fn(other, acc)
            mask <<= 1
        return acc
    partial = yield from reduce(ctx, value, op=fn, root=0)
    return (yield from bcast(ctx, partial, root=0))


def gather(ctx: Any, value: Any, root: int = 0) -> Generator:
    """Binomial-tree gather; root returns the rank-ordered list.

    A subtree travels up as a :class:`~repro.vmpi.payload.Detached`
    ``{rank: value}`` dict: each rank snapshots its own value once, when
    it sends, and states the size ``payload_nbytes`` gives that dict, so
    a parent forwards its children's values by reference instead of
    copying and re-sizing them at every level.
    """
    p = ctx.size
    _check_root(root, p)
    tag = _coll_tag(ctx)
    rel = (ctx.rank - root) % p
    collected: dict[int, Any] = {ctx.rank: value}
    nbytes = envelope = payload_nbytes({})
    mask = 1
    while mask < p:
        if rel & mask:
            dest = ((rel & ~mask) + root) % p
            own = collected[ctx.rank] = snapshot(value)
            nbytes += payload_nbytes(ctx.rank) + payload_nbytes(own)
            yield from ctx.send(Detached(collected, nbytes), dest, tag)
            return None
        peer_rel = rel | mask
        if peer_rel < p:
            src = (peer_rel + root) % p
            part = yield from ctx.recv(source=src, tag=tag)
            collected.update(part.value)
            nbytes += part.nbytes - envelope
        mask <<= 1
    if ctx.rank == root:
        return [collected[r] for r in range(p)]
    return None


def alltoallv(ctx: Any, by_dest: dict[int, Any]) -> Generator:
    """Sparse all-to-all: send ``by_dest[d]`` to each d; returns {src: item}.

    Receive counts are agreed first by allreducing an indicator vector
    (``counts[d]`` = how many ranks send to d) — ``p log p`` small
    messages instead of the ``p^2`` a dense alltoall of flags costs —
    then the data flows as one bulk-send batch per sender.  This
    is the shape direct-send compositing has, offered as a library
    collective for other workloads.
    """
    p = ctx.size
    for d in by_dest:
        if not (0 <= d < p):
            raise CommunicationError(f"alltoallv destination {d} out of range")
    indicator = np.zeros(p, dtype=np.int32)
    for d in by_dest:
        indicator[d] = 1
    counts = yield from allreduce(ctx, indicator, op="sum")
    tag = _coll_tag(ctx)
    batch = [(d, item) for d, item in sorted(by_dest.items()) if d != ctx.rank]
    reqs = ctx.isend_many(batch, tag) if batch else []
    received: dict[int, Any] = {}
    if ctx.rank in by_dest:
        received[ctx.rank] = by_dest[ctx.rank]
    expected = int(counts[ctx.rank]) - (1 if ctx.rank in by_dest else 0)
    for _ in range(expected):
        payload, status = yield from ctx.recv_status(tag=tag)
        received[status.source] = payload
    yield from ctx.waitall(reqs)
    return received


def _check_root(root: int, p: int) -> None:
    if not (0 <= root < p):
        raise CommunicationError(f"root {root} out of range [0, {p})")


def verb(algorithm: Any) -> Any:
    """A context method running ``algorithm`` over the context inside
    :func:`traced`; call it with ``yield from``."""

    @functools.wraps(algorithm)
    def method(self: Any, *args: Any, **kwargs: Any) -> Generator:
        return (yield from traced(self, algorithm.__name__, algorithm(self, *args, **kwargs)))

    return method
