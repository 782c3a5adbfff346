"""MPIWorld: build a partition-shaped simulated machine and run programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.costs import LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.sim.engine import Engine
from repro.vmpi.comm import MessageBoard, leak_error
from repro.vmpi.context import RankContext


@dataclass
class WorldResult:
    """Outcome of one SPMD run: per-rank return values plus timing.

    ``fault`` is the injector's :class:`~repro.fault.metrics.
    FaultReport` when a non-empty fault plan was installed, else None;
    a killed rank's entry in ``values`` is None.
    """

    values: list[Any]
    elapsed_s: float
    messages: int
    bytes_sent: int
    compute_seconds: list[float] = field(default_factory=list)
    fault: Any = None

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Any:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


class MPIWorld:
    """A simulated MPI job on a BG/P partition.

    Each :meth:`run` starts a fresh discrete-event engine and network,
    spawns one coroutine per rank, and runs to completion.  The
    program is a generator function ``program(ctx, *args, **kwargs)``.
    """

    def __init__(
        self,
        partition: Partition,
        mapping_order: str = "XYZT",
        link: LinkCostModel | None = None,
        recv_overhead_s: float = 1e-6,
        tracer=None,
    ):
        self.partition = partition
        self.mapping = RankMapping(partition, mapping_order)
        self.topology = TorusTopology(partition.shape, torus=partition.is_torus)  # type: ignore[arg-type]
        self.link = link or LinkCostModel()
        self.recv_overhead_s = recv_overhead_s
        self.tracer = tracer  # optional repro.obs.Tracer, shared by every run
        self.last_network: DESNetwork | None = None
        self.last_board: MessageBoard | None = None

    @classmethod
    def for_cores(
        cls, cores: int, processes_per_node: int | None = None, **kwargs: Any
    ) -> "MPIWorld":
        """World with one rank per core on the standard partition shape.

        Defaults to VN mode (4 processes/node); core counts not
        divisible by 4 fall back to dual or SMP mode so small test
        worlds (3, 7 ranks...) still work.
        """
        if processes_per_node is None:
            processes_per_node = next(ppn for ppn in (4, 2, 1) if cores % ppn == 0)
        return cls(Partition.for_cores(cores, processes_per_node), **kwargs)

    @property
    def nprocs(self) -> int:
        return self.partition.nprocs

    def run(
        self,
        program: Callable[..., Any],
        *args: Any,
        ranks: Sequence[int] | None = None,
        check_leaks: bool = True,
        fault: Any = None,
        parallel: Any = None,
        **kwargs: Any,
    ) -> WorldResult:
        """Run ``program`` SPMD on every rank (or the given subset).

        ``fault`` may be a :class:`~repro.fault.FaultPlan` or an
        already-built :class:`~repro.fault.FaultInjector`; it is wired
        into the engine, network, and message board for this run.  An
        *empty* plan is still installed (so its cost is measurable) but
        every hook short-circuits: results are bitwise identical to
        ``fault=None``.

        ``parallel`` (a :class:`~repro.sim.parallel.ParallelConfig`)
        selects the sharded conservative-parallel backend instead of
        the monolithic engine; any worker count produces identical
        results for a fixed shard count (see
        :mod:`repro.vmpi.shardworld`).
        """
        if parallel is not None:
            from repro.vmpi.shardworld import run_parallel

            return run_parallel(
                self, program, args, kwargs,
                ranks=ranks, check_leaks=check_leaks, fault=fault,
                config=parallel,
            )
        engine = Engine(tracer=self.tracer)
        network = DESNetwork(
            engine, self.topology, self.mapping, self.link, self.recv_overhead_s,
            tracer=self.tracer,
        )
        board = MessageBoard(network, self.nprocs)
        self.last_network = network
        self.last_board = board
        injector = None
        if fault is not None:
            from repro.fault.inject import FaultInjector

            injector = (
                fault
                if isinstance(fault, FaultInjector)
                else FaultInjector(fault, tracer=self.tracer)
            )
            board.fault = injector
            if injector.net_active:
                network.fault = injector
        which = list(range(self.nprocs)) if ranks is None else list(ranks)
        ctxs = [
            RankContext(r, self.nprocs, board, engine, tracer=self.tracer)
            for r in which
        ]
        procs = [
            engine.spawn(program(ctx, *args, **kwargs), name=f"rank{ctx.rank}")
            for ctx in ctxs
        ]
        if injector is not None:
            for ctx in ctxs:
                ctx.fault = injector
            injector.arm(
                engine,
                mapping=self.mapping,
                procs={ctx.rank: p for ctx, p in zip(ctxs, procs)},
                board=board,
            )
        elapsed = engine.run()
        report = None
        if injector is not None:
            report = injector.finish(
                elapsed, nranks=len(procs), total_messages=network.messages_sent
            )
        if check_leaks and board.unreceived_count():
            raise leak_error(board.unreceived_messages())
        return WorldResult(
            values=[p.done.value for p in procs],
            elapsed_s=elapsed,
            messages=network.messages_sent,
            bytes_sent=network.bytes_sent,
            compute_seconds=[c.compute_seconds for c in ctxs],
            fault=report,
        )
