"""The message contract: what a run of the simulated MPI must reproduce.

Every case below runs one rank program on one world under one fault
plan and reduces everything the message path can influence to a
digest:

(a) the tracer's per-message spans, in recording order, as
    ``(src, dst, nbytes, hops, t0, t1)``;
(b) every rank's return value — which carries the rank's received
    ``(source, tag, nbytes, ctx.now)`` sequence wherever the program
    receives explicitly;
(c) ``WorldResult.elapsed_s / messages / bytes_sent`` and the fault
    report — or, for a run that cannot finish (survivors blocked on a
    crashed rank), the error's type and text.

``PINS`` holds the digests as recorded from the source as it stood
when this file was committed.  The monolithic and the sharded world
are different timing models (sends complete at delivery vs injection,
DESIGN §12), so each has its own constants; the sharded digest must
also be the same for every worker count.  A host-time change to
``vmpi.comm``, ``sim.engine`` or ``network.desnet`` keeps every digest
without editing this file; a change that cannot is a model change and
has to be declared as one.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.compositing.schedule import schedule_from_geometry
from repro.fault import FaultPlan, LinkWindow, NodeCrash
from repro.fault.plan import RetryPolicy
from repro.obs import Tracer
from repro.obs.tracer import CAT_COMM
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import CommunicationError, DeadlockError
from repro.vmpi import ANY_SOURCE, ANY_TAG, MPIWorld, ParallelConfig, VirtualPayload

TAG = 7


def _recv_logged(ctx, log, source=ANY_SOURCE, tag=ANY_TAG):
    payload, st = yield from ctx.recv_status(source, tag)
    log.append((st.source, st.tag, st.nbytes, ctx.now))
    return payload


# -- the rank programs ---------------------------------------------------


def _directsend(ranks, grid, image):
    """The paper's m = n direct-send phase with virtual payloads.  Under
    a crash plan the receivers follow the failover protocol's shape:
    wait out the detector, then take each source's piece by name,
    probing for the ones a dead sender may or may not have landed."""
    shape = (grid, grid, grid)
    schedule = schedule_from_geometry(
        BlockDecomposition(shape, ranks),
        Camera.looking_at_volume(shape, width=image, height=image),
        ranks,
    )

    def program(ctx):
        log = []
        batch = [
            (schedule.compositor_rank(m.tile), VirtualPayload(m.nbytes))
            for m in schedule.outgoing(ctx.rank)
            if schedule.compositor_rank(m.tile) != ctx.rank
        ]
        reqs = ctx.isend_many(batch, TAG) if batch else []
        incoming = [m for m in schedule.incoming(ctx.rank) if m.src != ctx.rank]
        fault = ctx.fault
        if fault is not None and fault.has_crashes:
            yield fault.quiescent()
            dead = set(fault.dead_ranks())
            for m in incoming:
                if m.src in dead and not ctx.probe(source=m.src, tag=TAG):
                    continue
                yield from _recv_logged(ctx, log, source=m.src, tag=TAG)
        else:
            for _ in incoming:
                yield from _recv_logged(ctx, log, tag=TAG)
        yield from ctx.waitall(reqs)
        return log, ctx.now

    return program


def _alltoallv(ctx):
    """Knuth-hash sparse alltoallv: tree allreduce + one bulk send."""
    p = ctx.size
    dests = {(ctx.rank * 2654435761 + 97 + k * 40503) % p for k in range(6)}
    by_dest = {d: VirtualPayload(4096 + 64 * ((ctx.rank + d) % 17)) for d in dests}
    got = yield from ctx.alltoallv(by_dest)
    return sorted((src, item.nbytes) for src, item in got.items()), ctx.now


def _collectives(ctx):
    """barrier, bcast, allreduce, gather with numpy payloads, on a rank
    count that is not a power of two (reduce + bcast fallbacks)."""
    yield from ctx.compute(1e-6 * (ctx.rank % 3))
    yield from ctx.barrier()
    t_barrier = ctx.now
    seed = np.arange(6, dtype=np.float64) * 1.5 if ctx.rank == 2 else None
    data = yield from ctx.bcast(seed, root=2)
    total = yield from ctx.allreduce(np.full(4, ctx.rank + 0.25), op="sum")
    rows = yield from ctx.gather(np.array([ctx.rank, ctx.rank ** 2]), root=1)
    return (
        t_barrier, data.tolist(), total.tolist(),
        None if rows is None else [r.tolist() for r in rows], ctx.now,
    )


def _wildcards(ctx):
    """Seven senders, two waves of three tags each; rank 0 mixes
    exact, wildcard-source, wildcard-tag and full-wildcard receives,
    some posted before the messages arrive and some after."""
    if ctx.rank:
        for wave in range(2):
            yield from ctx.compute(1e-6 * ctx.rank + 2e-4 * wave)
            for tag in (1, 2, 3):
                yield from ctx.send(
                    VirtualPayload(64 * ctx.rank + 8 * tag + wave), 0, tag
                )
        return ctx.now
    log = []

    def note(values):
        for _payload, st in values:
            log.append((st.source, st.tag, st.nbytes, ctx.now))

    # Wave 1, posted before anything arrives: three tags outstanding.
    early = [ctx.irecv(ANY_SOURCE, 2), ctx.irecv(3, ANY_TAG), ctx.irecv(5, 3)]
    for req in early:
        note([(yield req.future)])
    yield from ctx.compute(5e-5)  # the rest of wave 1 is parked by now
    yield from _recv_logged(ctx, log, source=2)
    yield from _recv_logged(ctx, log, tag=3)
    yield from _recv_logged(ctx, log, source=6, tag=1)
    for _ in range(21 - 6):
        yield from _recv_logged(ctx, log)
    # Wave 2: full wildcards posted ahead of two wildcard-source ones.
    late = [ctx.irecv() for _ in range(5)] + [ctx.irecv(ANY_SOURCE, 3) for _ in range(2)]
    for req in late:
        note([(yield req.future)])
    for _ in range(21 - 7):
        yield from _recv_logged(ctx, log)
    return log, ctx.now


def _sendrecv_ring(ctx):
    got = []
    val = np.arange(3 + ctx.rank % 4) + ctx.rank
    for rnd in range(4):
        val = yield from ctx.sendrecv(
            val, dest=(ctx.rank + 1) % ctx.size, source=(ctx.rank - 1) % ctx.size, tag=rnd
        )
        got.append((val.tolist(), ctx.now))
    return got


def _request_mix(ctx):
    """isend / irecv handles waited singly, together and twice."""
    n = ctx.size
    sends = [ctx.isend(np.arange(k + 1) + ctx.rank, (ctx.rank + k) % n, tag=k) for k in (1, 2, 3)]
    recvs = [ctx.irecv(source=(ctx.rank - k) % n, tag=k) for k in (3, 1)]
    late = ctx.irecv(tag=2)
    first = yield from ctx.wait(recvs[0])
    kinds = [r.kind for r in sends + recvs]
    yield from ctx.compute(2e-6)
    flags = [r.complete for r in sends + recvs + [late]]
    rest = yield from ctx.waitall([sends[0], recvs[1], sends[1], late, sends[2]])
    again = yield from ctx.wait(sends[0])
    return (
        first.tolist(), kinds, flags,
        [None if v is None else v.tolist() for v in rest], again, ctx.now,
    )


#: name -> (ranks, program, crash time).  The crash takes the last node
#: (rank 0 always survives) while traffic is in flight.
CASES = {
    "directsend_64": (64, _directsend(64, 32, 64), 2e-4),
    "directsend_256": (256, _directsend(256, 32, 96), 3e-4),
    "alltoallv_128": (128, _alltoallv, 4e-4),
    "collectives_12": (12, _collectives, 2.5e-4),
    "wildcards_8": (8, _wildcards, 2.5e-4),
    "sendrecv_ring_16": (16, _sendrecv_ring, 1e-4),
    "request_mix_8": (8, _request_mix, 5e-5),
}

WORLDS = {"mono": None, "w1": ParallelConfig(workers=1), "w2": ParallelConfig(workers=2)}


def _plan(name, ranks, crash_t):
    if name == "none":
        return None
    if name == "empty":
        return FaultPlan.none()
    if name == "crash":
        last_node = MPIWorld.for_cores(ranks).topology.num_nodes - 1
        return FaultPlan(node_crashes=(NodeCrash(crash_t, last_node),), detect_s=5e-4, seed=3)
    if name == "link":
        return FaultPlan(
            link_windows=(
                LinkWindow(5e-6, 1e-3, 0.25),
                LinkWindow(0.0, 4e-5, 0.5, src_node=0),
            ),
            seed=3,
        )
    assert name == "dropdup"
    return FaultPlan(
        drop_prob=0.12, dup_prob=0.12, seed=5,
        retry=RetryPolicy(base_s=2e-5, backoff=2.0, max_delay_s=1e-3),
    )


def _plain(obj):
    """NumPy scalars as Python ones, so a digest pins values, not types."""
    if isinstance(obj, (list, tuple)):
        return tuple(_plain(v) for v in obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


@functools.lru_cache(maxsize=None)
def observe(case, world, plan_name):
    """Run one cell; return ``(spans, outcome)`` as plain data."""
    ranks, program, crash_t = CASES[case]
    tracer = Tracer(enabled=True)
    mpi = MPIWorld.for_cores(ranks, tracer=tracer)
    try:
        res = mpi.run(program, fault=_plan(plan_name, ranks, crash_t), parallel=WORLDS[world])
        report = None if res.fault is None else sorted(res.fault.summary().items())
        outcome = ("ok", res.elapsed_s, res.messages, res.bytes_sent, res.values, report)
    except (DeadlockError, CommunicationError) as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    spans = [
        (s.rank, s.args["dst"], s.args["nbytes"], s.args["hops"], s.t0, s.t1)
        for s in tracer.spans
        if s.cat == CAT_COMM
    ]
    return _plain((spans, outcome))


def digest(observation) -> str:
    return hashlib.sha256(repr(observation).encode()).hexdigest()[:16]


# (case, "mono" | "sharded", plan) -> digest, recorded from the parent.
PINS = {
    ('alltoallv_128', 'mono', 'none'): '4b12dde11dff5dfa',
    ('alltoallv_128', 'mono', 'empty'): 'f4df9fe919d66017',
    ('alltoallv_128', 'mono', 'crash'): '7fdeb436a0b102f3',
    ('alltoallv_128', 'mono', 'link'): 'c13250c9fcea2c68',
    ('alltoallv_128', 'mono', 'dropdup'): 'affbde786685e90a',
    ('alltoallv_128', 'sharded', 'none'): '520727a4f384dd9a',
    ('alltoallv_128', 'sharded', 'empty'): '16ffb070b399a326',
    ('alltoallv_128', 'sharded', 'crash'): '61c490310c51cdac',
    ('alltoallv_128', 'sharded', 'link'): '8f55c6d9685cf5da',
    ('collectives_12', 'mono', 'none'): 'aeb2972bd4d397c5',
    ('collectives_12', 'mono', 'empty'): '7dff2570c1cd3678',
    ('collectives_12', 'mono', 'crash'): '7110dad3bb4e9b26',
    ('collectives_12', 'mono', 'link'): 'c3cf60621c71aa58',
    ('collectives_12', 'mono', 'dropdup'): '0f4f54afcf268eac',
    ('collectives_12', 'sharded', 'none'): '39ab5315e2b10175',
    ('collectives_12', 'sharded', 'empty'): 'fc98f0f8761095ab',
    ('collectives_12', 'sharded', 'crash'): '6dced20d8cda274a',
    ('collectives_12', 'sharded', 'link'): 'a4d9dd9885bf1379',
    ('directsend_256', 'mono', 'none'): '692a58ecc9b3b16a',
    ('directsend_256', 'mono', 'empty'): 'a79db9060e225793',
    ('directsend_256', 'mono', 'crash'): 'df58f93f4606af6a',
    ('directsend_256', 'mono', 'link'): '602cf05fbc34f17b',
    ('directsend_256', 'mono', 'dropdup'): '2af13c2d76f888f0',
    ('directsend_256', 'sharded', 'none'): '3b31b189a09ebd2c',
    ('directsend_256', 'sharded', 'empty'): 'f04343159c1650ee',
    ('directsend_256', 'sharded', 'crash'): '8054586eb56616bb',
    ('directsend_256', 'sharded', 'link'): 'ea0eb554d20b21b3',
    ('directsend_64', 'mono', 'none'): '74edf73b86829bf5',
    ('directsend_64', 'mono', 'empty'): '5ca7fe7527e6b242',
    ('directsend_64', 'mono', 'crash'): '5e43f9e87041f6e3',
    ('directsend_64', 'mono', 'link'): '201caae03e785ad0',
    ('directsend_64', 'mono', 'dropdup'): '66f7c471c0450c43',
    ('directsend_64', 'sharded', 'none'): 'db06e0db5c05a430',
    ('directsend_64', 'sharded', 'empty'): 'c2b7ab48b7310870',
    ('directsend_64', 'sharded', 'crash'): '4076b63757ab2510',
    ('directsend_64', 'sharded', 'link'): '660721faa32fde63',
    ('request_mix_8', 'mono', 'none'): '5b74302839a9901d',
    ('request_mix_8', 'mono', 'empty'): '392fd10f4c41817b',
    ('request_mix_8', 'mono', 'crash'): '75f315976b59a52c',
    ('request_mix_8', 'mono', 'link'): '17c6ea02a8c4d8ab',
    ('request_mix_8', 'mono', 'dropdup'): '5edf907b1eb91c57',
    ('request_mix_8', 'sharded', 'none'): '71e071461a4bdbda',
    ('request_mix_8', 'sharded', 'empty'): '12823c87f7a4d11b',
    ('request_mix_8', 'sharded', 'crash'): 'f9f30909a5fb876c',
    ('request_mix_8', 'sharded', 'link'): 'b115141441a1eb30',
    ('sendrecv_ring_16', 'mono', 'none'): 'f318882485bd44d4',
    ('sendrecv_ring_16', 'mono', 'empty'): '189a746796c9a970',
    ('sendrecv_ring_16', 'mono', 'crash'): '606bb91c490ad493',
    ('sendrecv_ring_16', 'mono', 'link'): '954d0f22d082a3f0',
    ('sendrecv_ring_16', 'mono', 'dropdup'): 'b07bb0d8b85789e3',
    ('sendrecv_ring_16', 'sharded', 'none'): 'ad3f1f863b27387c',
    ('sendrecv_ring_16', 'sharded', 'empty'): 'e90baef653b2e7a2',
    ('sendrecv_ring_16', 'sharded', 'crash'): '6013a3dd90d688b1',
    ('sendrecv_ring_16', 'sharded', 'link'): '15f37a4d26d0137c',
    ('wildcards_8', 'mono', 'none'): '45ba43950a367ba9',
    ('wildcards_8', 'mono', 'empty'): 'de73d449c60fc048',
    ('wildcards_8', 'mono', 'crash'): '44687a6a50ee75df',
    ('wildcards_8', 'mono', 'link'): 'a30500e794f0de1c',
    ('wildcards_8', 'mono', 'dropdup'): '02a639fd9d1ea672',
    ('wildcards_8', 'sharded', 'none'): '9a39e785eca143d0',
    ('wildcards_8', 'sharded', 'empty'): 'ce32bf11e0753f0e',
    ('wildcards_8', 'sharded', 'crash'): '66e8f1330250ed68',
    ('wildcards_8', 'sharded', 'link'): '119cbe13f2a5d1a7',
}


def test_every_case_moves_messages():
    for case in CASES:
        spans, outcome = observe(case, "mono", "none")
        assert outcome[0] == "ok" and spans and outcome[2] == len(spans), case


@pytest.mark.parametrize("plan", ["none", "empty", "crash", "link", "dropdup"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_monolith_digest(case, plan):
    assert digest(observe(case, "mono", plan)) == PINS[case, "mono", plan]


@pytest.mark.parametrize("plan", ["none", "empty", "crash", "link"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_digest_for_every_worker_count(case, plan):
    one = digest(observe(case, "w1", plan))
    assert one == digest(observe(case, "w2", plan)), "worker count changed the run"
    assert one == PINS[case, "sharded", plan]


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_empty_plan_changes_nothing_but_the_report(case, world):
    spans, base = observe(case, world, "none")
    spans_e, armed = observe(case, world, "empty")
    assert spans == spans_e
    assert base[:5] == armed[:5]
    assert base[5] is None and armed[5] is not None
