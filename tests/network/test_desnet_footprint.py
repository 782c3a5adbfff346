"""Queue footprint of in-flight messages: what a send costs in memory.

A virtual-payload direct-send frame issues every message at t = 0, so
just before the first delivery every message of the frame is in
flight at once.  A probe event between the two reads, under
:mod:`tracemalloc`, the bytes the run has allocated and still holds
per in-flight message: the send record, its size pair, the network's
per-batch arrays and the engine's queue share.

Readings at 512 ranks (64^3 grid, 256^2 image, m = n; 9,910 messages
in flight in 511 send batches), Python 3.11 / x86-64:

* one heap ``Event`` per message, a boxed time and a boxed sequence
  number (the engine before send batches became streams): 631 B;
* one heap entry per send batch, 16 B of stream per message: 514 B.

The bound sits between the two, so a queue that goes back to an entry
per message fails it.
"""

import gc
import tracemalloc

from repro.compositing.directsend import COMPOSITE_TAG
from repro.compositing.schedule import schedule_from_geometry
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.vmpi import MPIWorld, VirtualPayload

RANKS = 512
GRID = (64, 64, 64)
IMAGE = 256
#: Between the per-message-event reading (631 B) and the stream's (514 B).
MAX_BYTES_PER_MESSAGE = 570
#: Before any delivery (deliveries pay microseconds of overhead), after
#: every t = 0 send.
PROBE_T = 1e-12


def _program(schedule, probe):
    def program(ctx):
        if ctx.rank == 0:
            ctx.engine.schedule_at(PROBE_T, lambda: probe(ctx.engine))
        batch = [
            (dest, VirtualPayload(msg.nbytes))
            for msg in schedule.outgoing(ctx.rank)
            if (dest := schedule.compositor_rank(msg.tile)) != ctx.rank
        ]
        reqs = ctx.isend_many(batch, COMPOSITE_TAG) if batch else []
        if ctx.rank < schedule.num_compositors:
            for m in schedule.incoming(ctx.rank):
                if m.src != ctx.rank:
                    yield from ctx.recv(tag=COMPOSITE_TAG)
        yield from ctx.waitall(reqs)

    return program


def test_bytes_per_in_flight_message_bounded():
    camera = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    schedule = schedule_from_geometry(BlockDecomposition(GRID, RANKS), camera, RANKS)
    remote = sum(
        1 for m in schedule.messages if schedule.compositor_rank(m.tile) != m.src
    )
    reading = {}

    def probe(engine):
        reading["bytes"] = tracemalloc.get_traced_memory()[0] - reading["base"]
        reading["in_flight"] = engine.pending_events

    world = MPIWorld.for_cores(RANKS)
    program = _program(schedule, probe)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        reading["base"] = tracemalloc.get_traced_memory()[0]
        res = world.run(program)
    finally:
        tracemalloc.stop()
        gc.enable()

    assert res.messages == remote == reading["in_flight"]  # all in flight at once
    per_message = reading["bytes"] / reading["in_flight"]
    assert per_message < MAX_BYTES_PER_MESSAGE, (
        f"{per_message:.0f} B retained per in-flight message "
        f"(bound {MAX_BYTES_PER_MESSAGE} B)"
    )
