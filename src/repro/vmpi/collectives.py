"""Collective algorithms over simulated point-to-point messages.

These are the textbook algorithms the MPI literature cited by the paper
analyzes (binomial trees, recursive doubling, pairwise exchange), so
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


def scatter(ctx: Any, values: Any, root: int = 0) -> Generator:
    """Binomial-tree scatter of a rank-indexed list from ``root``.

    Each non-root rank receives its whole subtree's items from its
    parent, then forwards the child subtrees down, so no rank handles
    data outside its own subtree.
    """
    p = ctx.size
    _check_root(root, p)
    tag = _coll_tag(ctx)
    rel = (ctx.rank - root) % p
    if ctx.rank == root:
        if values is None or len(values) != p:
            raise CommunicationError(f"scatter root needs a list of exactly {p} items")
        holding = {r: values[r] for r in range(p)}
        recv_mask = 1
        while recv_mask < p:
            recv_mask <<= 1
    else:
        recv_mask = 1
        while not (rel & recv_mask):
            recv_mask <<= 1
        parent = ((rel & ~recv_mask) + root) % p
        holding = yield from ctx.recv(source=parent, tag=tag)
    mask = recv_mask >> 1
    while mask > 0:
        child_rel = rel + mask
        if child_rel < p:
            subtree = {
                r: v
                for r, v in holding.items()
                if child_rel <= (r - root) % p < child_rel + mask
            }
            dest = (child_rel + root) % p
            yield from ctx.send(subtree, dest, tag)
            for r in subtree:
                del holding[r]
        mask >>= 1
    return holding[ctx.rank]


def allgather(ctx: Any, value: Any) -> Generator:
    """Recursive doubling when p is a power of two; else gather+bcast."""
    p = ctx.size
    if p & (p - 1) == 0:
        tag = _coll_tag(ctx)
        collected: dict[int, Any] = {ctx.rank: value}
        mask = 1
        while mask < p:
            peer = ctx.rank ^ mask
            req = ctx.isend(collected, peer, tag)
            part = yield from ctx.recv(source=peer, tag=tag)
            yield from ctx.wait(req)
            collected.update(part)
            mask <<= 1
        return [collected[r] for r in range(p)]
    gathered = yield from gather(ctx, value, root=0)
    return (yield from bcast(ctx, gathered, root=0))


def alltoall(ctx: Any, values: Any) -> Generator:
    """Pairwise exchange: rank i's j-th item lands at rank j's i-th slot."""
    p = ctx.size
    if values is None or len(values) != p:
        raise CommunicationError(f"alltoall needs a list of exactly {p} items")
    tag = _coll_tag(ctx)
    out: list[Any] = [None] * p
    out[ctx.rank] = values[ctx.rank]
    for k in range(1, p):
        if p & (p - 1) == 0:
            peer = ctx.rank ^ k
        else:
            peer = (ctx.rank + k) % p
        req = ctx.isend(values[peer], peer, tag)
        if p & (p - 1) == 0:
            out[peer] = yield from ctx.recv(source=peer, tag=tag)
        else:
            src = (ctx.rank - k) % p
            out[src] = yield from ctx.recv(source=src, tag=tag)
        yield from ctx.wait(req)
    return out


def alltoallv(ctx: Any, by_dest: dict[int, Any]) -> Generator:
    """Sparse all-to-all: send ``by_dest[d]`` to each d; returns {src: item}.

    Receive counts are agreed first by allreducing an indicator vector
    (``counts[d]`` = how many ranks send to d) — ``p log p`` small
    messages instead of the ``p^2`` a dense alltoall of flags costs —
    then the data flows as one bulk-vectorized batch per sender.  This
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


def reduce_scatter(ctx: Any, values: Any, op: Any = "sum") -> Generator:
    """Reduce-scatter: rank r ends with op-reduction of everyone's r-th item.

    The operation image compositing *is*, per the paper's Sec. II-C
    ("image compositing can be modeled as a data reduction problem" —
    binary swap is Traff's reduce-scatter in disguise).  Recursive
    halving for power-of-two p; reduce+bcast-style fallback otherwise.

    Recursive halving combines partials covering *interleaved* rank
    sets, so ``op`` must be commutative (sum/max/min are; the over
    operator is not — compositing uses the kd-ordered algorithms in
    :mod:`repro.compositing` instead).
    """
    p = ctx.size
    fn = resolve_op(op)
    if values is None or len(values) != p:
        raise CommunicationError(f"reduce_scatter needs a list of exactly {p} items")
    if p & (p - 1) == 0:
        tag = _coll_tag(ctx)
        # owned: contiguous span of slots this rank still reduces, as
        # {slot: (value, lowest-contributing-rank span marker)}.
        acc = {i: values[i] for i in range(p)}
        span_lo, span_hi = 0, p  # slots this rank is responsible for
        mask = p >> 1
        while mask:
            peer = ctx.rank ^ mask
            mid = (span_lo + span_hi) // 2
            if ctx.rank & mask:
                send_slots = range(span_lo, mid)
                keep_lo, keep_hi = mid, span_hi
            else:
                send_slots = range(mid, span_hi)
                keep_lo, keep_hi = span_lo, mid
            outgoing = {i: acc.pop(i) for i in send_slots}
            incoming = yield from ctx.sendrecv(outgoing, dest=peer, source=peer, tag=tag)
            for i, v in incoming.items():
                # Lower rank's partial always goes on the left: both
                # partials cover disjoint, ordered rank ranges.
                acc[i] = fn(v, acc[i]) if peer < ctx.rank else fn(acc[i], v)
            span_lo, span_hi = keep_lo, keep_hi
            mask >>= 1
        return acc[ctx.rank]
    # General p: binomial reduce of the whole list, then scatter.
    reduced = yield from reduce(ctx, values, op=_listwise(fn), root=0)
    return (yield from scatter(ctx, reduced, root=0))


def _listwise(fn: Any) -> Any:
    def combine(a: Any, b: Any) -> Any:
        return [fn(x, y) for x, y in zip(a, b)]

    return combine


def scan(ctx: Any, value: Any, op: Any = "sum") -> Generator:
    """Inclusive prefix reduction: rank r gets op(v_0, ..., v_r).

    Simple linear chain — prefix sums order the compositing literature's
    scan-based schedules; provided for completeness.
    """
    fn = resolve_op(op)
    tag = _coll_tag(ctx)
    acc = value
    if ctx.rank > 0:
        prefix = yield from ctx.recv(source=ctx.rank - 1, tag=tag)
        acc = fn(prefix, value)
    if ctx.rank + 1 < ctx.size:
        yield from ctx.send(acc, ctx.rank + 1, tag)
    return acc


def _check_root(root: int, p: int) -> None:
    if not (0 <= root < p):
        raise CommunicationError(f"root {root} out of range [0, {p})")


def _verb(algorithm: Any) -> Any:
    """A context method running ``algorithm`` over the context, traced."""

    @functools.wraps(algorithm)
    def verb(self: Any, *args: Any, **kwargs: Any) -> Generator:
        return (yield from traced(self, algorithm.__name__, algorithm(self, *args, **kwargs)))

    return verb


class Communicator:
    """The collective verbs and ``split``, shared by the world's
    :class:`~repro.vmpi.context.RankContext` and every split group.

    Each verb runs this module's algorithm over ``self`` inside
    :func:`traced`; a group carries no tracer, so its collectives stay
    untraced.  Call them with ``yield from``.
    """

    barrier = _verb(barrier)
    bcast = _verb(bcast)
    reduce = _verb(reduce)
    allreduce = _verb(allreduce)
    gather = _verb(gather)
    scatter = _verb(scatter)
    allgather = _verb(allgather)
    alltoall = _verb(alltoall)
    alltoallv = _verb(alltoallv)
    reduce_scatter = _verb(reduce_scatter)
    scan = _verb(scan)

    def split(self, color: Any, key: int | None = None) -> Generator:
        """Collective MPI_Comm_split: returns this rank's group context."""
        from repro.vmpi.split import split

        return (yield from split(self, color, key))
