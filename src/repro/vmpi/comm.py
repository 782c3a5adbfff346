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
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.network.desnet import DESNetwork
from repro.sim.events import Future
from repro.utils.errors import CommunicationError, RankFailed
from repro.vmpi.payload import payload_nbytes, snapshot

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class Status:
    """Receive status: who sent the matched message, with which tag."""

    source: int
    tag: int
    nbytes: int


class Request:
    """Handle for a non-blocking operation; ``yield req.future`` to wait.

    For receives, the future's value is ``(payload, Status)``.  For
    sends it is ``None``.
    """

    __slots__ = ("future", "kind")

    def __init__(self, future: Future, kind: str):
        self.future = future
        self.kind = kind

    @property
    def complete(self) -> bool:
        return self.future.done

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.future.done else "pending"
        return f"<Request {self.kind} {state}>"


class _Envelope:
    __slots__ = ("source", "tag", "payload", "nbytes", "seq")

    def __init__(
        self, source: int, tag: int, payload: Any, nbytes: int, seq: int | None = None
    ):
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        # Per-(source, dest) sequence number; assigned only when
        # message faults are active (drop retry / dup suppression).
        self.seq = seq


class _PendingRecv:
    __slots__ = ("source", "tag", "future")

    def __init__(self, source: int, tag: int, future: Future):
        self.source = source
        self.tag = tag
        self.future = future


class _Delivery:
    """Wire-completion callback: lands one envelope in one mailbox.

    The network schedules it as the delivery event itself
    (:meth:`DESNetwork.transfer_then`), so the engine calls it with no
    argument — or with the injector's ``DROPPED`` sentinel for a
    dropped packet.  A slotted callable instead of a closure — sends
    are the hottest allocation site in a compositing phase.
    """

    __slots__ = ("board", "dest", "env", "done", "attempt")

    def __init__(self, board: "MessageBoard", dest: int, env: _Envelope, done: Future):
        self.board = board
        self.dest = dest
        self.env = env
        self.done = done
        self.attempt = 0  # retransmission count when faults are active

    def __call__(self, value: Any = None) -> None:
        board = self.board
        fault = board.fault
        if fault is not None and fault.active:
            board._deliver_faulty(self, value)
            return
        board._deliver(self.dest, self.env)
        self.done.resolve(None)


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
        # tag -> deque[(arrival_stamp, _Envelope)], per rank.
        self._mailbox: list[dict[int, deque]] = [{} for _ in range(nprocs)]
        # tag (or ANY_TAG) -> deque[(post_stamp, _PendingRecv)], per rank.
        self._pending: list[dict[int, deque]] = [{} for _ in range(nprocs)]
        self._stamp = 0  # shared arrival/posting order counter
        self._unreceived = 0  # live count of parked envelopes
        # Optional FaultInjector plus the reliability-layer state it
        # needs: per-(src, dst) send sequence numbers, the next
        # deliverable sequence per pair, and out-of-order holdback.
        self.fault = None
        self._pair_seq: dict[tuple[int, int], int] = {}
        self._next_deliver: dict[tuple[int, int], int] = {}
        self._holdback: dict[tuple[int, int], dict[int, _Envelope]] = {}
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

        When message faults are on, the envelope carries a per-pair
        sequence number (the receiver releases envelopes in sequence
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
        env = _Envelope(source, tag, body, nbytes, seq)
        done = Future(name="send")
        transfer_then = self.network.transfer_then
        transfer_then(source, dest, nbytes, _Delivery(self, dest, env, done))
        if msg_faults and fault.dup_decision():
            # Duplicate packet: same envelope (same seq) on its own
            # wire slot; the receiver's sequence filter discards it.
            transfer_then(
                source, dest, nbytes,
                _Delivery(self, dest, env, Future(name="send-dup")),
            )
        return Request(done, kind="isend")

    def post_send_many(
        self, source: int, dest_payloads: list[tuple[int, Any]], tag: int
    ) -> list[Request]:
        """Eager sends of many messages with one tag, in list order.

        Uses :meth:`DESNetwork.transfer_many_then`, so the whole batch's wire
        timeline is computed vectorized; delivery order and times are
        identical to an equivalent sequence of :meth:`post_send` calls.
        """
        self._check_send(source, (d for d, _p in dest_payloads), tag)
        fault = self.fault
        if fault is not None and fault.msg_faults:
            # Sequence numbers and drop/dup draws must follow list
            # order; take the scalar path per message.  (Crash/link
            # faults alone keep the batch wire path: the network already
            # falls back to scalar under link windows, and dead
            # endpoints are handled at delivery.)
            return [self.post_send(source, d, tag, p) for d, p in dest_payloads]
        requests = []
        deliveries = []
        reqs = []
        for dest, payload in dest_payloads:
            body = snapshot(payload)
            nbytes = payload_nbytes(body)
            done = Future(name="send")
            requests.append((dest, nbytes))
            deliveries.append(
                _Delivery(self, dest, _Envelope(source, tag, body, nbytes), done)
            )
            reqs.append(Request(done, kind="isend"))
        self.network.transfer_many_then(source, requests, deliveries)
        return reqs

    # -- receives ---------------------------------------------------------

    def post_recv(self, rank: int, source: int, tag: int) -> Request:
        """Post a receive; matches an already-arrived or future envelope."""
        self._check_rank(rank, "rank")
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        fut = Future(name="recv")
        env = self._match_mailbox(rank, source, tag)
        if env is not None:
            fut.resolve((env.payload, Status(env.source, env.tag, env.nbytes)))
        else:
            self._stamp = stamp = self._stamp + 1
            pend = self._pending[rank]
            dq = pend.get(tag)
            if dq is None:
                dq = pend[tag] = deque()
            dq.append((stamp, _PendingRecv(source, tag, fut)))
        return Request(fut, kind="irecv")

    def _match_mailbox(self, rank: int, source: int, tag: int):
        """Pop and return the earliest-arrived matching envelope, if any."""
        box = self._mailbox[rank]
        if not box:
            return None
        if tag != ANY_TAG:
            dq = box.get(tag)
            if not dq:
                return None
            if source == ANY_SOURCE:
                env = dq.popleft()[1]
            else:
                hit = None
                for i, (_stamp, e) in enumerate(dq):
                    if e.source == source:
                        hit, env = i, e
                        break
                if hit is None:
                    return None
                del dq[hit]
            if not dq:
                del box[tag]
            self._unreceived -= 1
            return env
        # Wildcard tag: earliest arrival stamp across every tag's deque.
        best_stamp = best_tag = best_i = best_env = None
        for t, dq in box.items():
            for i, (stamp, e) in enumerate(dq):
                if source == ANY_SOURCE or e.source == source:
                    if best_stamp is None or stamp < best_stamp:
                        best_stamp, best_tag, best_i, best_env = stamp, t, i, e
                    break
        if best_stamp is None:
            return None
        dq = box[best_tag]
        del dq[best_i]
        if not dq:
            del box[best_tag]
        self._unreceived -= 1
        return best_env

    def _deliver(self, dest: int, env: _Envelope) -> None:
        pend = self._pending[dest]
        if pend:
            # Earliest-posted matching receive: candidates live in the
            # exact-tag deque and the wildcard-tag deque.
            best = None  # (stamp, deque, index, tag_key)
            for key in (env.tag, ANY_TAG):
                dq = pend.get(key)
                if not dq:
                    continue
                for i, (stamp, pr) in enumerate(dq):
                    if pr.source == ANY_SOURCE or pr.source == env.source:
                        if best is None or stamp < best[0]:
                            best = (stamp, dq, i, key, pr)
                        break
            if best is not None:
                _stamp, dq, i, key, pr = best
                del dq[i]
                if not dq:
                    del pend[key]
                pr.future.resolve((env.payload, Status(env.source, env.tag, env.nbytes)))
                return
        self._stamp = stamp = self._stamp + 1
        box = self._mailbox[dest]
        dq = box.get(env.tag)
        if dq is None:
            dq = box[env.tag] = deque()
        dq.append((stamp, env))
        self._unreceived += 1

    # -- fault handling ---------------------------------------------------

    def _deliver_faulty(self, delivery: _Delivery, value: Any) -> None:
        """Wire completion under an active fault injector.

        Three outcomes: a dropped packet is retransmitted after
        exponential backoff (delivery is reliable, just late); a packet
        whose source or destination has died is discarded and counted
        lost (the crash tears down the NIC, so in-flight traffic dies
        with the node — which also makes post-quiescence ``probe``
        results stable); otherwise the envelope lands, in sequence
        order when message faults are on.
        """
        fault = self.fault
        env = delivery.env
        dest = delivery.dest
        if value is fault.DROPPED:
            attempt = delivery.attempt
            delivery.attempt = attempt + 1
            fault.note_retry()
            delay = fault.retry.delay(attempt)
            self.network.engine.schedule(delay, partial(self._retransmit, delivery))
            return
        if self._lost_at_dead_endpoint(dest, env.source, delivery.done):
            return
        if env.seq is not None:
            self._deliver_ordered(dest, env)
        else:
            self._deliver(dest, env)
        if not delivery.done.done:
            delivery.done.resolve(None)

    def _lost_at_dead_endpoint(self, dest: int, source: int, done: Future | None = None) -> bool:
        """True when either endpoint has died: the message is discarded
        and counted lost, and a still-pending send request completes."""
        fault = self.fault
        if fault is None or not fault.active or not (
            fault.is_dead(dest) or fault.is_dead(source)
        ):
            return False
        self.lost_messages += 1
        fault.note_lost()
        if done is not None and not done.done:
            done.resolve(None)
        return True

    def _retransmit(self, delivery: _Delivery) -> None:
        env = delivery.env
        if self._lost_at_dead_endpoint(delivery.dest, env.source, delivery.done):
            return
        self.network.transfer_then(env.source, delivery.dest, env.nbytes, delivery)

    def _deliver_ordered(self, dest: int, env: _Envelope) -> None:
        """Release the pair's stream in send order; discard duplicates.

        A retried drop can overtake a later send, and a duplicate can
        arrive twice; the per-(source, dest) sequence gate holds early
        arrivals back and drops already-delivered sequence numbers, so
        the application observes exactly the posted order.
        """
        key = (env.source, dest)
        nxt = self._next_deliver.get(key, 0)
        seq = env.seq
        if seq < nxt:
            return  # duplicate of an already-delivered message
        if seq > nxt:
            self._holdback.setdefault(key, {})[seq] = env
            return
        self._deliver(dest, env)
        nxt += 1
        hb = self._holdback.get(key)
        if hb:
            while nxt in hb:
                self._deliver(dest, hb.pop(nxt))
                nxt += 1
        self._next_deliver[key] = nxt

    def probe(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-destructive: has a matching envelope already arrived?

        Used by failover code to distinguish "the dead sender's piece
        landed before the crash" from "lost with the sender" without
        blocking on a message that will never come.
        """
        self._check_rank(rank, "rank")
        box = self._mailbox[rank]
        if tag != ANY_TAG:
            dq = box.get(tag)
            if not dq:
                return False
            if source == ANY_SOURCE:
                return True
            return any(e.source == source for _stamp, e in dq)
        for dq in box.values():
            for _stamp, e in dq:
                if source == ANY_SOURCE or e.source == source:
                    return True
        return False

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
