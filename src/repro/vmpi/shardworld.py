"""The sharded MPI world: conservative-parallel execution of rank programs.

``MPIWorld.run(..., parallel=ParallelConfig(workers=N))`` lands here.
The simulated torus is split into contiguous node blocks
(:class:`~repro.sim.partition.ShardLayout`); each shard is one
:class:`~repro.vmpi.runner.RankRuntime` — the same class the monolithic
world builds once over all ranks — over the ranks living on its nodes,
with a :class:`~repro.network.shardnet.ShardNetwork` and a
:class:`ShardMessageBoard`.  Shards advance in lockstep safe windows
(:mod:`repro.sim.parallel`); cross-shard messages travel as encoded
records (:mod:`repro.sim.mailbox`); the shards' books are closed by the
same :func:`~repro.vmpi.runner.collect_result` as a monolithic run's.

Determinism contract (pinned by ``tests/sim/test_parallel.py``): the
result is a function of ``(program, machine)`` only.  The worker count
changes which OS process runs a shard, never what the shard computes:

* shard count (``DEFAULT_SHARDS``) and window (the link lookahead) are
  constants of the machine;
* within a shard, event order is the engine's usual
  ``(time, priority, seq)`` order;
* cross-shard records merge in canonical ``(ready, src_rank,
  src_seq)`` order — ``src_seq`` is a per-source-rank counter
  namespaced by the origin shard, so the key is a total order no
  matter which worker carried the record;
* a worker holding several shards stages intra-worker records in the
  same buffer remote records land in, so insertion batching is
  identical for every worker count.

What this world changes — and all this module states — is send
completion (requests resolve at injection, eager semantics, locally
computable, rather than at delivery: :class:`ShardMessageBoard`),
cross-shard replay (the destination shard re-runs the ejection port
via ``ShardNetwork.commit_remote``) and the merge key above.  So the
parallel backend is *not* bitwise-equal to the monolithic engine, which
remains the oracle for the semantics; agreement is validated by the
model-vs-DES ratio bands at 2048–32768 ranks
(``benchmarks/test_model_vs_des.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.fault.plan import FaultPlan
from repro.network.shardnet import ShardNetwork
from repro.obs.tracer import Tracer
from repro.sim.mailbox import (
    decode_payload,
    encode_payload,
    pack_records,
    unpack_records,
)
from repro.sim.parallel import ParallelConfig, run_supersteps
from repro.sim.partition import ShardLayout
from repro.utils.errors import ConfigError
from repro.vmpi.comm import MessageBoard, Request, _Send
from repro.vmpi.payload import payload_nbytes, snapshot
from repro.vmpi.runner import RankRuntime, collect_result

_INF = float("inf")


class ShardMessageBoard(MessageBoard):
    """A :class:`MessageBoard` whose wire is one shard of the torus.

    Sends complete at injection (see :mod:`repro.network.shardnet`);
    intra-shard deliveries are scheduled directly, cross-shard sends
    stage an encoded outbox record.  Send validation and the
    delivery-time dead-endpoint discard are the parent's.
    """

    #: One shard cannot host a world-wide rendezvous; gi_barrier would
    #: hang counting only shard-local arrivals, so it rejects cleanly.
    gi_capable = False

    def __init__(self, network: ShardNetwork, nprocs: int):
        super().__init__(network, nprocs)
        self._src_seq: dict[int, int] = {}  # per-source-rank merge-key counter
        network.deliver_remote = self._land_remote

    def post_send(self, source: int, dest: int, tag: int, payload: Any) -> Request:
        self._check_send(source, (dest,), tag)
        net: ShardNetwork = self.network
        engine = net.engine
        body = snapshot(payload)
        nbytes = payload_nbytes(body)
        local, done_t, t, wire = net.send(source, dest, nbytes)
        # The record lands here as the envelope; a cross-shard one is
        # the request only (the destination shard builds its own).
        rec = _Send(self, source, dest, tag, body if local else None, nbytes)
        if local:
            engine.schedule_at(t, partial(self._land, rec))
        else:
            kind, blob = encode_payload(body)
            seq = self._src_seq.get(source, 0)
            self._src_seq[source] = seq + 1
            net.outbox.append(
                (int(net.node_shard[net.mapping.node_of(dest)]),
                 dest, source, seq, tag, t, wire, nbytes, kind, blob)
            )
        engine.schedule_at(done_t, rec.resolve)
        return rec

    def post_send_many(self, source: int, dest_payloads: Iterable, tag: int) -> list[Request]:
        # Scalar per message: the shard path returns times, not futures,
        # so the batch is already allocation-light; request order gives
        # the same injection chain the monolithic batch loop prices.
        return [self.post_send(source, d, tag, p) for d, p in dest_payloads]

    # -- delivery ------------------------------------------------------

    def _land(self, rec: _Send) -> None:
        if not self._lost_at_dead_endpoint(rec):
            self._deliver(rec)

    def _land_remote(self, dest: int, source: int, tag: int, nbytes: int, payload) -> None:
        self._land(_Send(self, source, dest, tag, payload, nbytes))


@dataclass
class _WorldSpec:
    """Everything a forked worker needs to build its shards.

    Built once in the parent before forking; children inherit it via
    copy-on-write, so big schedules and arrays are never pickled.
    """

    world: Any  # the MPIWorld: machine shape, link costs, tracer mode
    program: Callable[..., Any]
    args: tuple
    kwargs: dict
    plan: FaultPlan | None
    layout: ShardLayout
    worker_of_shard: list[int]
    ranks_by_shard: dict[int, list[int]]
    ranks_by_node: dict[int, list[int]]

    def runtime(self, shard_id: int) -> RankRuntime:
        """The engine shard ``shard_id``: its ranks on a ShardNetwork and
        ShardMessageBoard, recording on a tracer of its own (merged into
        the world's by :func:`~repro.vmpi.runner.collect_result`)."""
        world = self.world
        tracer = None if world.tracer is None else Tracer(enabled=world.tracer.enabled)
        return RankRuntime(
            world, self.ranks_by_shard[shard_id], self.program, self.args,
            self.kwargs, self.plan, tracer, ShardNetwork, ShardMessageBoard,
            ranks_on_node=self.ranks_by_node,
            node_shard=self.layout.node_shard, shard_id=shard_id,
        )


def _insert_records(network: ShardNetwork, records: list) -> None:
    """Canonical merge of a window's incoming cross-shard records."""
    records.sort(key=lambda r: (r[5], r[2], r[3]))  # (ready, src_rank, src_seq)
    commit = network.commit_remote
    for (_ds, dst_rank, src_rank, _seq, tag, ready, wire, nbytes,
         kind, blob) in records:
        commit(dst_rank, src_rank, tag, ready, wire, nbytes,
               decode_payload(kind, blob))


class _ShardWorker:
    """The per-process driver: one or more shards plus their mailboxes."""

    def __init__(self, spec: _WorldSpec, worker_id: int, shard_ids: Sequence[int]):
        self.worker_id = worker_id
        self.worker_of_shard = spec.worker_of_shard
        self.runtimes = {sid: spec.runtime(sid) for sid in shard_ids}
        #: Records bound for shards this worker owns, staged until the
        #: next window boundary — the same buffer routed inter-worker
        #: records land in, so insertion batching (and therefore engine
        #: sequence numbering) is identical for every worker count.
        self.staged: dict[int, list] = {sid: [] for sid in shard_ids}

    def report(self):
        t_min = _INF
        outbound: dict[int, list] = {}
        for rt in self.runtimes.values():
            out = rt.network.outbox
            if out:
                rt.network.outbox = []
            for rec in out:
                dst_worker = self.worker_of_shard[rec[0]]
                if dst_worker == self.worker_id:
                    self.staged[rec[0]].append(rec)
                else:
                    outbound.setdefault(dst_worker, []).append(rec)
            t = rt.engine.next_event_time
            if t < t_min:
                t_min = t
        # In-flight records — staged locally or outbound — hold the
        # clock back too, or the controller could declare completion
        # with deliveries still pending.
        for recs in (*self.staged.values(), *outbound.values()):
            for rec in recs:
                if rec[5] < t_min:
                    t_min = rec[5]
        return t_min, {w: pack_records(recs) for w, recs in outbound.items()}

    def advance(self, until: float, blobs: Sequence[bytes]) -> None:
        for blob in blobs:
            for rec in unpack_records(blob):
                self.staged[rec[0]].append(rec)
        for sid, rt in self.runtimes.items():
            recs = self.staged[sid]
            if recs:
                self.staged[sid] = []
                _insert_records(rt.network, recs)
            rt.engine.run(until=until)

    def finalize(self) -> list[dict]:
        return [rt.finalize() for rt in self.runtimes.values()]


def run_parallel(
    world,
    program: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    *,
    ranks: Sequence[int] | None,
    check_leaks: bool,
    fault: FaultPlan | None,
    config: ParallelConfig,
):
    """Sharded equivalent of :meth:`MPIWorld.run`; returns a WorldResult."""
    if fault is not None:
        if not isinstance(fault, FaultPlan):
            raise ConfigError(f"fault must be a FaultPlan, got {type(fault).__name__}")
        if fault.drop_prob > 0 or fault.dup_prob > 0:
            raise ConfigError(
                "message drop/duplication faults draw from a counting RNG in "
                "global event order and are not supported by the parallel DES "
                "backend; use workers=1 without a ParallelConfig, or a plan "
                "with drop_prob=dup_prob=0"
            )

    layout = ShardLayout.contiguous(world.topology.num_nodes)
    groups = layout.workers_for(config.workers)
    worker_of_shard = [0] * layout.num_shards
    for w, group in enumerate(groups):
        for s in group:
            worker_of_shard[s] = w

    which = list(range(world.nprocs)) if ranks is None else list(ranks)
    which_arr = np.asarray(which, dtype=np.int64)
    node_of_which = world.mapping.node_of(which_arr)
    shard_of_which = layout.node_shard[node_of_which]
    ranks_by_shard = {
        sid: which_arr[shard_of_which == sid].tolist()
        for sid in range(layout.num_shards)
    }
    ranks_by_node: dict[int, list[int]] = {}
    for r, node in zip(which, node_of_which.tolist()):
        ranks_by_node.setdefault(node, []).append(r)
    for rs in ranks_by_node.values():
        rs.sort()

    spec = _WorldSpec(
        world, program, args, kwargs, fault,
        layout, worker_of_shard, ranks_by_shard, ranks_by_node,
    )
    # The safe window is the lookahead itself: a cross-shard message
    # crosses at least one wire, so its ``ready`` lags the send by at
    # least the send-side software overhead plus one hop.
    link = world.link
    payloads = run_supersteps(
        lambda wid: _ShardWorker(spec, wid, groups[wid]), len(groups),
        link.sw_overhead_s + link.hop_latency_s,
    )
    # Workers hold contiguous ascending shard groups, so worker order is
    # shard order.
    books = [b for worker_books in payloads for b in worker_books]
    return collect_result(books, which, world.tracer, check_leaks)
