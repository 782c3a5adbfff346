"""Message matching: mailboxes, pending receives, requests.

The :class:`MessageBoard` owns one mailbox per rank.  Deliveries and
receives match MPI-style on ``(source, tag)`` with wildcard support,
in posted/arrival order.

Matching is tag-indexed: each rank's mailbox and pending-receive set
are ``{tag: deque}`` maps whose entries carry a board-wide monotonic
stamp (arrival order for envelopes, posting order for receives).  The
hot paths — exact-tag receive against a waiting envelope, delivery
against a waiting exact-tag receive — are O(1) regardless of how many
messages with *other* tags are queued, which is what keeps a
2048-rank direct-send frame (every compositor fielding thousands of
same-tag pieces) from going quadratic.  Wildcard-tag operations
resolve ties across deques by stamp, preserving the original
scan-in-order semantics exactly.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Iterable, NamedTuple

from repro.network.desnet import DESNetwork
from repro.sim.events import Future
from repro.utils.errors import CommunicationError, RankFailed
from repro.vmpi.payload import VirtualPayload, payload_nbytes, snapshot

ANY_SOURCE = -1
ANY_TAG = -1


class Status(NamedTuple):
    """Receive status: who sent the matched message, with which tag."""

    source: int
    tag: int
    nbytes: int


#: ``_status(Status, (source, tag, nbytes))``: a Status without the
#: NamedTuple constructor's Python frame.
_status = tuple.__new__


class Request(Future):
    """Handle for a non-blocking operation; ``yield req`` to wait.

    The request *is* its completion future (``req.future`` is ``req``).
    For receives the value is ``(payload, Status)``; for sends, None.
    """

    __slots__ = ()
    kind = ""  # "isend" / "irecv", on the two subclasses

    @property
    def future(self) -> "Request":
        return self

    @property
    def complete(self) -> bool:
        return self.done


class _Send(Request):
    """One message, from ``isend`` to ``recv``, as one object.

    It is the send request handed to the program, the envelope that
    waits in the destination mailbox, and the callable the network
    schedules as the delivery event (the engine calls it with no
    argument, or with the injector's ``DROPPED`` sentinel for a dropped
    packet) — sends are the hottest allocation site in a compositing
    phase.  ``seq`` is the per-(source, dest) sequence number, assigned
    only when message faults are active (drop retry / dup suppression);
    a duplicate wire packet is a second record sharing body and
    ``seq``.  ``attempt`` counts retransmissions.
    """

    __slots__ = ("board", "source", "dest", "tag", "payload", "nbytes", "seq", "attempt")
    kind = "isend"
    name = "send"  # shadows the inherited slot: nothing stored per message

    def __init__(self, board: "MessageBoard", source: int, dest: int, tag: int,
                 payload: Any, nbytes: int, seq: int | None = None):
        self.done = False
        self.value = None
        self._callbacks = None
        self.board = board
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.seq = seq
        self.attempt = 0

    def __call__(self, value: Any = None) -> None:
        board = self.board
        fault = board.fault
        if fault is not None and fault.active:
            board._deliver_faulty(self, value)
            return
        pend = board._pending[self.dest]
        tag = self.tag
        dq = pend.get(tag) if pend else None
        # With no wildcard-tag receive posted, the earliest match can
        # only be this deque's head: hand over and complete the receive,
        # then the send, in place (every other case: ``_deliver``).
        if dq and ANY_TAG not in pend and dq[0][1].source in (ANY_SOURCE, self.source):
            recv = dq.popleft()[1]
            if not dq:
                del pend[tag]
            recv.done = True
            recv.value = got = (self.payload, _status(Status, (self.source, tag, self.nbytes)))
            self.payload = None
            callbacks = recv._callbacks
            if callbacks:
                recv._callbacks = None
                for cb in callbacks:
                    cb(got)
            self.done = True
            callbacks = self._callbacks
            if callbacks:
                self._callbacks = None
                for cb in callbacks:
                    cb(None)
            return
        board._deliver(self)
        self.resolve(None)

    def hand_to(self, recv: "_Recv") -> None:
        """Complete ``recv`` with this message and let go of the body:
        the sender's request list must not pin delivered payloads."""
        recv.resolve((self.payload, _status(Status, (self.source, self.tag, self.nbytes))))
        self.payload = None


class _Recv(Request):
    """A receive request; until matched it is also the entry waiting in
    its rank's pending-receive deque."""

    __slots__ = ("source", "tag")
    kind = "irecv"
    name = "recv"

    def __init__(self, source: int, tag: int):
        self.done = False
        self.value = None
        self._callbacks = None
        self.source = source
        self.tag = tag


def leak_error(leaked: list[tuple[int, int, int]]) -> CommunicationError:
    """The end-of-run diagnostic for ``(source, dest, tag)`` envelopes
    nobody received; names the first 20 so a hung collective can be
    localized from the message."""
    shown = ", ".join(f"(src={s}, dst={d}, tag={t})" for s, d, t in leaked[:20])
    if len(leaked) > 20:
        shown += f", ... and {len(leaked) - 20} more"
    return CommunicationError(
        f"{len(leaked)} messages were delivered but never received: {shown}"
    )


class MessageBoard:
    """Per-rank mailboxes plus the wire (a :class:`DESNetwork`)."""

    #: The monolithic board spans the whole world, so it can host the
    #: global-interrupt barrier rendezvous (every rank checks in on the
    #: same object).  Shard boards cover one shard only and override
    #: this to False — see :func:`repro.vmpi.collectives.gi_barrier`.
    gi_capable = True

    def __init__(self, network: DESNetwork, nprocs: int):
        self.network = network
        self.nprocs = int(nprocs)
        # tag -> deque[(arrival_stamp, _Send)], per rank.
        self._mailbox: list[dict[int, deque]] = [{} for _ in range(nprocs)]
        # tag (or ANY_TAG) -> deque[(post_stamp, _Recv)], per rank.
        self._pending: list[dict[int, deque]] = [{} for _ in range(nprocs)]
        self._stamp = 0  # shared arrival/posting order counter
        self._unreceived = 0  # live count of parked envelopes
        # Optional FaultInjector plus the reliability-layer state it
        # needs: per-(src, dst) send sequence numbers, the next
        # deliverable sequence per pair, and out-of-order holdback.
        self.fault = None
        self._pair_seq: dict[tuple[int, int], int] = {}
        self._next_deliver: dict[tuple[int, int], int] = {}
        self._holdback: dict[tuple[int, int], dict[int, _Send]] = {}
        self.lost_messages = 0  # discarded at a dead endpoint

    # -- sends ----------------------------------------------------------

    def _check_send(self, source: int, dests, tag: int) -> None:
        """Validate one rank's sends to ``dests``; a crashed rank cannot send."""
        self._check_rank(source, "source")
        for dest in dests:
            self._check_rank(dest, "dest")
        if tag < 0:
            raise CommunicationError(f"send tag must be >= 0, got {tag}")
        fault = self.fault
        if fault is not None and fault.active and fault.is_dead(source):
            raise RankFailed(source, fault.crash_time_of(source))

    def post_send(self, source: int, dest: int, tag: int, payload: Any) -> Request:
        """Eager buffered send: completes when the wire transfer finishes.

        When message faults are on, the record carries a per-pair
        sequence number (the receiver releases messages in sequence
        order, so drop retries and duplicates never reorder a pair's
        stream), and a duplicate wire packet of it may be launched.
        """
        self._check_send(source, (dest,), tag)
        body = snapshot(payload)
        nbytes = payload_nbytes(body)
        fault = self.fault
        msg_faults = fault is not None and fault.msg_faults
        seq = None
        if msg_faults:
            key = (source, dest)
            seq = self._pair_seq.get(key, 0)
            self._pair_seq[key] = seq + 1
        rec = _Send(self, source, dest, tag, body, nbytes, seq)
        transfer_then = self.network.transfer_then
        transfer_then(source, dest, nbytes, rec)
        if msg_faults and fault.dup_decision():
            # Duplicate packet: same body and seq on its own wire slot;
            # the receiver's sequence filter discards it.
            transfer_then(
                source, dest, nbytes, _Send(self, source, dest, tag, body, nbytes, seq)
            )
        return rec

    def post_send_many(self, source: int, dest_payloads: Iterable, tag: int) -> list[Request]:
        """Eager sends of many ``(dest, payload)`` with one tag, in order.

        Uses :meth:`DESNetwork.transfer_many_then`, so the whole batch is
        priced in one pass; delivery order and times are identical to
        an equivalent sequence of :meth:`post_send` calls.
        ``dest_payloads`` is read once (it may be a ``zip`` or a
        generator), and every destination is validated before anything
        reaches the network.
        """
        fault = self.fault
        if fault is not None and fault.msg_faults:
            # Sequence numbers and drop/dup draws must follow list
            # order; take the scalar path per message.  (Crash/link
            # faults alone keep the batch wire path: the network already
            # falls back to scalar under link windows, and dead
            # endpoints are handled at delivery.)
            batch = list(dest_payloads)
            self._check_send(source, (d for d, _p in batch), tag)
            return [self.post_send(source, d, tag, p) for d, p in batch]
        self._check_send(source, (), tag)
        nprocs = self.nprocs
        requests = []
        recs = []
        for dest, body in dest_payloads:
            if not (0 <= dest < nprocs):
                self._check_rank(dest, "dest")
            if body.__class__ is VirtualPayload:
                nbytes = body.nbytes  # snapshot() is identity for it, payload_nbytes() this read
            else:
                body = snapshot(body)
                nbytes = payload_nbytes(body)
            requests.append((dest, nbytes))
            recs.append(_Send(self, source, dest, tag, body, nbytes))
        self.network.transfer_many_then(source, requests, recs)
        return recs

    # -- receives ---------------------------------------------------------

    def post_recv(self, rank: int, source: int, tag: int) -> Request:
        """Post a receive; matches an already-arrived or future message."""
        nprocs = self.nprocs
        if not (0 <= rank < nprocs and (source == ANY_SOURCE or 0 <= source < nprocs)):
            self._check_rank(rank, "rank")
            self._check_rank(source, "source")
        req = _Recv(source, tag)
        rec = self._match_mailbox(rank, source, tag) if self._mailbox[rank] else None
        if rec is not None:
            rec.hand_to(req)
        else:
            self._stamp = stamp = self._stamp + 1
            pend = self._pending[rank]
            dq = pend.get(tag)
            if dq is None:
                dq = pend[tag] = deque()
            dq.append((stamp, req))
        return req

    def _match_mailbox(self, rank: int, source: int, tag: int):
        """Pop and return the earliest-arrived matching message, if any."""
        box = self._mailbox[rank]
        if tag != ANY_TAG:
            dq = box.get(tag)
            if not dq:
                return None
            if source == ANY_SOURCE:
                rec = dq.popleft()[1]
            else:
                hit = None
                for i, (_stamp, e) in enumerate(dq):
                    if e.source == source:
                        hit, rec = i, e
                        break
                if hit is None:
                    return None
                del dq[hit]
            if not dq:
                del box[tag]
            self._unreceived -= 1
            return rec
        # Wildcard tag: earliest arrival stamp across every tag's deque.
        best_stamp = best_tag = best_i = best_rec = None
        for t, dq in box.items():
            for i, (stamp, e) in enumerate(dq):
                if source == ANY_SOURCE or e.source == source:
                    if best_stamp is None or stamp < best_stamp:
                        best_stamp, best_tag, best_i, best_rec = stamp, t, i, e
                    break
        if best_stamp is None:
            return None
        dq = box[best_tag]
        del dq[best_i]
        if not dq:
            del box[best_tag]
        self._unreceived -= 1
        return best_rec

    def _deliver(self, rec: _Send) -> None:
        """Hand ``rec`` to the earliest-posted matching receive, or park
        it (a fault-free monolithic delivery tries :meth:`_Send.__call__`'s
        head-of-deque case first)."""
        tag = rec.tag
        pend = self._pending[rec.dest]
        if pend:
            # Candidates live in the exact-tag deque and the
            # wildcard-tag deque; the lower posting stamp wins.
            best = None  # (stamp, tag_key, index, receive)
            for key in (tag, ANY_TAG):
                for i, (stamp, pr) in enumerate(pend.get(key, ())):
                    if pr.source == ANY_SOURCE or pr.source == rec.source:
                        if best is None or stamp < best[0]:
                            best = (stamp, key, i, pr)
                        break
            if best is not None:
                _stamp, key, i, pr = best
                dq = pend[key]
                del dq[i]
                if not dq:
                    del pend[key]
                rec.hand_to(pr)
                return
        self._stamp = stamp = self._stamp + 1
        box = self._mailbox[rec.dest]
        dq = box.get(tag)
        if dq is None:
            dq = box[tag] = deque()
        dq.append((stamp, rec))
        self._unreceived += 1

    # -- fault handling ---------------------------------------------------

    def _deliver_faulty(self, rec: _Send, value: Any) -> None:
        """Wire completion under an active fault injector.

        Three outcomes: a dropped packet is retransmitted after
        exponential backoff (delivery is reliable, just late); a packet
        whose source or destination has died is discarded and counted
        lost (the crash tears down the NIC, so in-flight traffic dies
        with the node — which also makes post-quiescence ``probe``
        results stable); otherwise the message lands, in sequence
        order when message faults are on.  Landed or lost, a
        still-pending send request completes.
        """
        fault = self.fault
        if value is fault.DROPPED:
            attempt = rec.attempt
            rec.attempt = attempt + 1
            fault.note_retry()
            delay = fault.retry.delay(attempt)
            self.network.engine.schedule(delay, partial(self._retransmit, rec))
            return
        if not self._lost_at_dead_endpoint(rec):
            if rec.seq is not None:
                self._deliver_ordered(rec)
            else:
                self._deliver(rec)
        if not rec.done:
            rec.resolve(None)

    def _lost_at_dead_endpoint(self, rec: _Send) -> bool:
        """True when either endpoint has died: the message is discarded
        and counted lost."""
        fault = self.fault
        if fault is None or not fault.active or not (
            fault.is_dead(rec.dest) or fault.is_dead(rec.source)
        ):
            return False
        self.lost_messages += 1
        fault.note_lost()
        return True

    def _retransmit(self, rec: _Send) -> None:
        if not self._lost_at_dead_endpoint(rec):
            self.network.transfer_then(rec.source, rec.dest, rec.nbytes, rec)
        elif not rec.done:
            rec.resolve(None)

    def _deliver_ordered(self, rec: _Send) -> None:
        """Release the pair's stream in send order; discard duplicates.

        A retried drop can overtake a later send, and a duplicate can
        arrive twice; the per-(source, dest) sequence gate holds early
        arrivals back and drops already-delivered sequence numbers, so
        the application observes exactly the posted order.
        """
        key = (rec.source, rec.dest)
        nxt = self._next_deliver.get(key, 0)
        seq = rec.seq
        if seq < nxt:
            return  # duplicate of an already-delivered message
        if seq > nxt:
            self._holdback.setdefault(key, {})[seq] = rec
            return
        self._deliver(rec)
        nxt += 1
        hb = self._holdback.get(key)
        if hb:
            while nxt in hb:
                self._deliver(hb.pop(nxt))
                nxt += 1
        self._next_deliver[key] = nxt

    def probe(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-destructive: has a matching message already arrived?

        Used by failover code to distinguish "the dead sender's piece
        landed before the crash" from "lost with the sender" without
        blocking on a message that will never come.
        """
        self._check_rank(rank, "rank")
        box = self._mailbox[rank]
        deques = box.values() if tag == ANY_TAG else (box.get(tag, ()),)
        return any(
            source == ANY_SOURCE or e.source == source for dq in deques for _stamp, e in dq
        )

    def purge_ranks(self, ranks) -> int:
        """Drop a dead rank's parked envelopes and pending receives.

        Returns the number of discarded envelopes so the fault
        accounting can count them lost; purged envelopes no longer
        appear in the leak check (their receiver cannot receive).
        """
        purged = 0
        for rank in ranks:
            self._check_rank(rank, "rank")
            box = self._mailbox[rank]
            n = sum(len(dq) for dq in box.values())
            purged += n
            self._unreceived -= n
            box.clear()
            self._pending[rank].clear()
        self.lost_messages += purged
        return purged

    # -- introspection ----------------------------------------------------

    def unreceived_count(self) -> int:
        """Envelopes delivered but never received (leaks in tests) — O(1)."""
        return self._unreceived

    def unreceived_messages(self) -> list[tuple[int, int, int]]:
        """(source, dest, tag) for every leaked envelope, in arrival order."""
        leaked = []
        for dest, box in enumerate(self._mailbox):
            for tag, dq in box.items():
                for stamp, env in dq:
                    leaked.append((stamp, env.source, dest, tag))
        leaked.sort()
        return [(src, dest, tag) for _stamp, src, dest, tag in leaked]

    def pending_recv_count(self) -> int:
        return sum(len(dq) for pend in self._pending for dq in pend.values())

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.nprocs):
            raise CommunicationError(f"{what} rank {r} out of range [0, {self.nprocs})")
