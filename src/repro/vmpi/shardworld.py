"""The sharded MPI world: conservative-parallel execution of rank programs.

``MPIWorld.run(..., parallel=ParallelConfig(workers=N))`` lands here.
The simulated torus is split into contiguous node blocks
(:class:`~repro.sim.partition.ShardLayout`); each shard gets its own
:class:`~repro.sim.engine.Engine`, :class:`~repro.network.shardnet.
ShardNetwork`, :class:`ShardMessageBoard`, and the rank coroutines of
the ranks living on its nodes.  Shards advance in lockstep safe
windows (:mod:`repro.sim.parallel`); cross-shard messages travel as
encoded records (:mod:`repro.sim.mailbox`).

Determinism contract (pinned by ``tests/sim/test_parallel.py``): the
result is a function of ``(program, machine, shards, window)`` only.
The worker count changes which OS process runs a shard, never what the
shard computes:

* shard count and window size are fixed by the configuration;
* within a shard, event order is the engine's usual
  ``(time, priority, seq)`` order;
* cross-shard records merge in canonical ``(ready, src_rank,
  src_seq)`` order — ``src_seq`` is a per-source-rank counter
  namespaced by the origin shard, so the key is a total order no
  matter which worker carried the record;
* a worker holding several shards stages intra-worker records in the
  same buffer remote records land in, so insertion batching is
  identical for every worker count.

Note the parallel backend is *not* bitwise-equal to the monolithic
engine: send requests complete at injection (eager semantics, locally
computable) rather than at delivery, and cross-shard ejection chains
replay at the destination.  The monolithic engine remains the oracle
for the semantics; agreement is validated by the model-vs-DES ratio
bands at 2048–32768 ranks (``benchmarks/test_model_vs_des.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.fault.inject import FaultInjector
from repro.fault.metrics import fault_report_from_counters
from repro.fault.plan import FaultPlan
from repro.network.shardnet import ShardNetwork
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import Engine
from repro.sim.mailbox import (
    decode_payload,
    encode_payload,
    pack_records,
    unpack_records,
)
from repro.sim.parallel import ParallelConfig, run_supersteps
from repro.sim.partition import ShardLayout
from repro.utils.errors import (
    CommunicationError,
    ConfigError,
    DeadlockError,
    RankFailed,
)
from repro.sim.events import Future
from repro.vmpi.comm import MessageBoard, Request, _Envelope, leak_error
from repro.vmpi.context import RankContext
from repro.vmpi.payload import payload_nbytes, snapshot

_INF = float("inf")


class ShardMessageBoard(MessageBoard):
    """A :class:`MessageBoard` whose wire is one shard of the torus.

    Sends complete at injection (see :mod:`repro.network.shardnet`);
    intra-shard deliveries are scheduled directly, cross-shard sends
    stage an encoded outbox record.  Delivery-time dead-endpoint
    checks mirror the monolithic board's fault path.
    """

    #: One shard cannot host a world-wide rendezvous; gi_barrier would
    #: hang counting only shard-local arrivals, so it rejects cleanly.
    gi_capable = False

    def __init__(self, network: ShardNetwork, nprocs: int):
        super().__init__(network, nprocs)
        self._src_seq: dict[int, int] = {}  # per-source-rank merge-key counter
        network.deliver_remote = self._land_remote

    def post_send(self, source: int, dest: int, tag: int, payload: Any) -> Request:
        self._check_rank(dest, "dest")
        self._check_rank(source, "source")
        if tag < 0:
            raise CommunicationError(f"send tag must be >= 0, got {tag}")
        fault = self.fault
        if fault is not None and fault.active and fault.is_dead(source):
            raise RankFailed(source, fault.crash_time_of(source))
        net: ShardNetwork = self.network
        engine = net.engine
        done = Future(name="send")
        body = snapshot(payload)
        nbytes = payload_nbytes(body)
        local, done_t, t, wire = net.send(source, dest, nbytes)
        if local:
            engine.schedule_at(
                t, partial(self._land, dest, _Envelope(source, tag, body, nbytes))
            )
        else:
            kind, blob = encode_payload(body)
            seq = self._src_seq.get(source, 0)
            self._src_seq[source] = seq + 1
            net.outbox.append(
                (int(net.node_shard[int(net.mapping.node_of(dest))]),
                 dest, source, seq, tag, t, wire, nbytes, kind, blob)
            )
        engine.schedule_at(done_t, done.resolve)
        return Request(done, kind="isend")

    def post_send_many(
        self, source: int, dest_payloads: list[tuple[int, Any]], tag: int
    ) -> list[Request]:
        # Scalar per message: the shard path returns times, not futures,
        # so the batch is already allocation-light; request order gives
        # the same injection chain the vectorized monolithic path prices.
        return [self.post_send(source, d, tag, p) for d, p in dest_payloads]

    # -- delivery ------------------------------------------------------

    def _land(self, dest: int, env: _Envelope) -> None:
        fault = self.fault
        if fault is not None and fault.active and (
            fault.is_dead(dest) or fault.is_dead(env.source)
        ):
            self.lost_messages += 1
            fault.note_lost()
            return
        self._deliver(dest, env)

    def _land_remote(self, dest: int, source: int, tag: int, nbytes: int, payload) -> None:
        self._land(dest, _Envelope(source, tag, payload, nbytes))


class _WorldSpec:
    """Everything a forked worker needs to build its shards.

    Built once in the parent before forking; children inherit it via
    copy-on-write, so big schedules and arrays are never pickled.
    """

    __slots__ = (
        "nprocs", "mapping", "topology", "link", "recv_overhead_s",
        "layout", "worker_of_shard", "ranks_by_shard", "ranks_by_node",
        "program", "args", "kwargs", "fault_plan", "tracer_mode",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


class _ShardRuntime:
    """One engine shard: engine + transport + board + local ranks."""

    def __init__(self, spec: _WorldSpec, shard_id: int):
        self.shard_id = shard_id
        tracer = None
        if spec.tracer_mode is not None:
            tracer = Tracer(enabled=spec.tracer_mode)
        self.tracer = tracer
        self.engine = engine = Engine(tracer=tracer)
        self.network = net = ShardNetwork(
            engine, spec.topology, spec.mapping, spec.link,
            spec.recv_overhead_s, tracer=tracer,
            node_shard=spec.layout.node_shard, shard_id=shard_id,
        )
        self.board = board = ShardMessageBoard(net, spec.nprocs)
        injector = None
        if spec.fault_plan is not None:
            injector = FaultInjector(spec.fault_plan, tracer=tracer)
            board.fault = injector
            if injector.net_active:
                net.fault = injector
        self.injector = injector
        local = spec.ranks_by_shard[shard_id]
        self.ctxs = [
            RankContext(r, spec.nprocs, board, engine, tracer=tracer) for r in local
        ]
        self.procs = {
            ctx.rank: engine.spawn(
                spec.program(ctx, *spec.args, **spec.kwargs), name=f"rank{ctx.rank}"
            )
            for ctx in self.ctxs
        }
        if injector is not None:
            for ctx in self.ctxs:
                ctx.fault = injector
            # The dead set must be global: a record from a crashed rank
            # on a *remote* shard is discarded at delivery here, exactly
            # as the monolithic board would.  Crash events still only
            # kill processes that live on this shard (procs lookup).
            injector.arm(
                engine, mapping=spec.mapping, procs=self.procs, board=board,
                ranks_on_node=spec.ranks_by_node,
            )

    def next_time(self) -> float:
        return self.engine.next_event_time

    def run_window(self, until: float) -> None:
        self.engine.run(until=until)

    def drain_outbox(self) -> list:
        out = self.network.outbox
        if out:
            self.network.outbox = []
        return out

    def insert_records(self, records: list) -> None:
        """Canonical merge of a window's incoming cross-shard records."""
        records.sort(key=lambda r: (r[5], r[2], r[3]))  # (ready, src_rank, src_seq)
        commit = self.network.commit_remote
        for (_ds, dst_rank, src_rank, _seq, tag, ready, wire, nbytes,
             kind, blob) in records:
            commit(dst_rank, src_rank, tag, ready, wire, nbytes,
                   decode_payload(kind, blob))

    def finalize(self) -> dict:
        tracer_state = None
        if self.tracer is not None:
            tracer_state = {
                "spans": self.tracer.spans,
                "counters": dict(self.tracer.counters),
                "link_bytes": dict(self.tracer.link_bytes),
            }
        unreceived = self.board.unreceived_count()
        return {
            "shard": self.shard_id,
            "values": {ctx.rank: self.procs[ctx.rank].done.value for ctx in self.ctxs},
            "compute": {ctx.rank: ctx.compute_seconds for ctx in self.ctxs},
            "messages": self.network.messages_sent,
            "bytes": self.network.bytes_sent,
            "elapsed": self.engine.last_event_time,
            "blocked": [p.name for p in self.procs.values() if not p.finished],
            "unreceived": unreceived,
            "leaks": self.board.unreceived_messages() if unreceived else [],
            "fault": self.injector.counters() if self.injector is not None else None,
            "tracer": tracer_state,
        }


class _ShardWorker:
    """The per-process driver: one or more shards plus their mailboxes."""

    def __init__(self, spec: _WorldSpec, worker_id: int, shard_ids: Sequence[int]):
        self.worker_id = worker_id
        self.worker_of_shard = spec.worker_of_shard
        self.runtimes = [_ShardRuntime(spec, sid) for sid in shard_ids]
        #: Records bound for shards this worker owns, staged until the
        #: next window boundary — the same buffer routed inter-worker
        #: records land in, so insertion batching (and therefore engine
        #: sequence numbering) is identical for every worker count.
        self.staged: dict[int, list] = {sid: [] for sid in shard_ids}

    def report(self):
        t_min = _INF
        outbound: dict[int, list] = {}
        for rt in self.runtimes:
            for rec in rt.drain_outbox():
                dst_worker = self.worker_of_shard[rec[0]]
                if dst_worker == self.worker_id:
                    self.staged[rec[0]].append(rec)
                else:
                    outbound.setdefault(dst_worker, []).append(rec)
            t = rt.next_time()
            if t < t_min:
                t_min = t
        # In-flight records — staged locally or outbound — hold the
        # clock back too, or the controller could declare completion
        # with deliveries still pending.
        for recs in self.staged.values():
            for rec in recs:
                if rec[5] < t_min:
                    t_min = rec[5]
        for recs in outbound.values():
            for rec in recs:
                if rec[5] < t_min:
                    t_min = rec[5]
        return t_min, {w: pack_records(recs) for w, recs in outbound.items()}

    def advance(self, until: float, blobs: Sequence[bytes]) -> None:
        for blob in blobs:
            for rec in unpack_records(blob):
                self.staged[rec[0]].append(rec)
        for rt in self.runtimes:
            recs = self.staged[rt.shard_id]
            if recs:
                self.staged[rt.shard_id] = []
                rt.insert_records(recs)
            rt.run_window(until)

    def finalize(self) -> list[dict]:
        return [rt.finalize() for rt in self.runtimes]


def run_parallel(
    world,
    program: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    *,
    ranks: Sequence[int] | None,
    check_leaks: bool,
    fault: Any,
    config: ParallelConfig,
):
    """Sharded equivalent of :meth:`MPIWorld.run`; returns a WorldResult."""
    from repro.vmpi.runner import WorldResult

    plan = None
    if fault is not None:
        plan = fault.plan if isinstance(fault, FaultInjector) else fault
        if not isinstance(plan, FaultPlan):
            raise ConfigError(
                f"fault must be a FaultPlan or FaultInjector, got {type(fault).__name__}"
            )
        if plan.drop_prob > 0 or plan.dup_prob > 0:
            raise ConfigError(
                "message drop/duplication faults draw from a counting RNG in "
                "global event order and are not supported by the parallel DES "
                "backend; use workers=1 without a ParallelConfig, or a plan "
                "with drop_prob=dup_prob=0"
            )

    link = world.link
    lookahead = link.sw_overhead_s + link.hop_latency_s
    window = config.window_s if config.window_s is not None else lookahead
    if window > lookahead:
        raise ConfigError(
            f"window_s={window!r} exceeds the link lookahead {lookahead!r} "
            "(sw_overhead_s + hop_latency_s); a larger window would let a "
            "shard act on messages that have not arrived yet"
        )
    layout = ShardLayout.contiguous(world.topology.num_nodes, config.shards)
    groups = layout.workers_for(config.workers)
    num_workers = len(groups)
    worker_of_shard = [0] * layout.num_shards
    for w, group in enumerate(groups):
        for s in group:
            worker_of_shard[s] = w

    nprocs = world.nprocs
    which = list(range(nprocs)) if ranks is None else list(ranks)
    rank_shard = layout.node_shard[
        np.asarray(world.mapping.node_of(np.arange(nprocs, dtype=np.int64)))
    ]
    which_arr = np.asarray(which, dtype=np.int64)
    shard_of_which = rank_shard[which_arr]
    ranks_by_shard = {
        sid: which_arr[shard_of_which == sid].tolist()
        for sid in range(layout.num_shards)
    }
    ranks_by_node: dict[int, list[int]] = {}
    for r in which:
        ranks_by_node.setdefault(int(world.mapping.node_of(r)), []).append(r)
    for rs in ranks_by_node.values():
        rs.sort()

    tracer_mode = None if world.tracer is None else bool(world.tracer.enabled)
    spec = _WorldSpec(
        nprocs=nprocs,
        mapping=world.mapping,
        topology=world.topology,
        link=link,
        recv_overhead_s=world.recv_overhead_s,
        layout=layout,
        worker_of_shard=worker_of_shard,
        ranks_by_shard=ranks_by_shard,
        ranks_by_node=ranks_by_node,
        program=program,
        args=args,
        kwargs=kwargs,
        fault_plan=plan,
        tracer_mode=tracer_mode,
    )

    payloads = run_supersteps(
        lambda wid: _ShardWorker(spec, wid, groups[wid]), num_workers, window
    )
    shards = sorted(
        (s for worker_payload in payloads for s in worker_payload),
        key=lambda s: s["shard"],
    )
    # The monolithic path exposes the run's network/board for
    # introspection; the sharded run has one per shard, so clear them.
    world.last_network = None
    world.last_board = None

    blocked = [name for s in shards for name in s["blocked"]]
    if blocked:
        raise DeadlockError(blocked)

    elapsed = max((s["elapsed"] for s in shards), default=0.0)
    messages = sum(s["messages"] for s in shards)
    bytes_sent = sum(s["bytes"] for s in shards)

    tr = world.tracer
    if tr is not None:
        frame = tr.frame
        for s in shards:
            ts = s["tracer"]
            for sp in ts["spans"]:
                tr.spans.append(
                    Span(sp.rank, sp.name, sp.cat, sp.t0, sp.t1, frame, sp.args)
                )
            for k, v in ts["counters"].items():
                tr.counters[k] = tr.counters.get(k, 0) + v
            for k, v in ts["link_bytes"].items():
                tr.link_bytes[k] = tr.link_bytes.get(k, 0) + v

    report = None
    if plan is not None:
        report = fault_report_from_counters(
            [s["fault"] for s in shards], elapsed, len(which), messages
        )

    if check_leaks and any(s["unreceived"] for s in shards):
        raise leak_error([leak for s in shards for leak in s["leaks"]])

    values: dict[int, Any] = {}
    compute: dict[int, float] = {}
    for s in shards:
        values.update(s["values"])
        compute.update(s["compute"])
    return WorldResult(
        values=[values.get(r) for r in which],
        elapsed_s=elapsed,
        messages=messages,
        bytes_sent=bytes_sent,
        compute_seconds=[compute.get(r, 0.0) for r in which],
        fault=report,
    )
