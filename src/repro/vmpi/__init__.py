"""A simulated MPI built on the DES kernel and the BG/P network model.

Rank programs are coroutines that receive a :class:`RankContext` and
``yield from`` its communication methods::

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(np.arange(4), dest=1, tag=7)
        elif ctx.rank == 1:
            data = yield from ctx.recv(source=0, tag=7)
        yield from ctx.barrier()
        total = yield from ctx.allreduce(ctx.rank, op="sum")
        return total

    world = MPIWorld.for_cores(8)
    results = world.run(program)

Payloads are real Python/NumPy objects (moved by value, like MPI
buffers) or :class:`VirtualPayload` size-only stand-ins for
performance-mode runs.  Collectives are implemented with the standard
algorithms (binomial trees, recursive doubling, dissemination) on
top of simulated point-to-point messages, so their cost emerges from
the network model rather than being asserted.
"""

from repro.sim.parallel import ParallelConfig
from repro.vmpi.payload import VirtualPayload, payload_nbytes, snapshot
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG, MessageBoard, Request, Status
from repro.vmpi.context import RankContext
from repro.vmpi.runner import MPIWorld, WorldResult

__all__ = [
    "ParallelConfig",
    "VirtualPayload",
    "payload_nbytes",
    "snapshot",
    "ANY_SOURCE",
    "ANY_TAG",
    "MessageBoard",
    "Request",
    "Status",
    "RankContext",
    "MPIWorld",
    "WorldResult",
]
