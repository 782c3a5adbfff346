"""MPIWorld: build a partition-shaped simulated machine and run programs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.costs import LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.fault.inject import FaultInjector
from repro.fault.metrics import fault_report_from_counters
from repro.sim.engine import Engine
from repro.utils.errors import ConfigError, DeadlockError
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


class RankRuntime:
    """One engine and everything bound to it for a set of ranks: the
    transport, the message board, the fault injector, the rank contexts
    and their spawned coroutines.

    The monolithic world is one runtime over every rank with
    ``(DESNetwork, MessageBoard)``; the sharded world
    (:mod:`repro.vmpi.shardworld`) is one per shard with the shard
    classes, ``net_kwargs`` carrying what their constructor adds.
    """

    def __init__(
        self, world: "MPIWorld", ranks: Sequence[int], program: Callable[..., Any],
        args: tuple, kwargs: dict, plan, tracer, network_cls, board_cls,
        ranks_on_node: dict[int, list[int]] | None = None, **net_kwargs: Any,
    ):
        self.tracer = tracer
        self.engine = engine = Engine(tracer=tracer)
        self.network = net = network_cls(
            engine, world.topology, world.mapping, world.link,
            world.recv_overhead_s, tracer=tracer, **net_kwargs,
        )
        self.board = board = board_cls(net, world.nprocs)
        self.ctxs = [
            RankContext(r, world.nprocs, board, engine, tracer=tracer) for r in ranks
        ]
        self.procs = {
            ctx.rank: engine.spawn(program(ctx, *args, **kwargs), name=f"rank{ctx.rank}")
            for ctx in self.ctxs
        }
        # Nothing has run yet (spawn only queues), so the injector can be
        # wired in one place, after the processes it may kill exist.
        self.injector = injector = None if plan is None else FaultInjector(plan, tracer=tracer)
        if injector is not None:
            board.fault = injector
            if injector.net_active:
                net.fault = injector
            for ctx in self.ctxs:
                ctx.fault = injector
            # ``ranks_on_node`` must cover the whole run, not just these
            # ranks: a message from a rank that crashed on a *remote*
            # shard is discarded at delivery here, exactly as the
            # monolithic board would.  Crash events still only kill
            # processes that live in this runtime (procs lookup).
            injector.arm(
                engine, mapping=world.mapping, procs=self.procs, board=board,
                ranks_on_node=ranks_on_node,
            )

    def finalize(self) -> dict:
        """The run's books as plain (picklable) data, for :func:`collect_result`."""
        board = self.board
        return {
            "values": {r: p.done.value for r, p in self.procs.items()},
            "compute": {ctx.rank: ctx.compute_seconds for ctx in self.ctxs},
            "messages": self.network.messages_sent,
            "bytes": self.network.bytes_sent,
            "elapsed": self.engine.last_event_time,
            "blocked": [r for r, p in self.procs.items() if not p.finished],
            "leaks": board.unreceived_messages() if board.unreceived_count() else [],
            "fault": self.injector.counters() if self.injector is not None else None,
            "tracer": self.tracer,
        }


def collect_result(
    books: list[dict], ranks: Sequence[int], tracer, check_leaks: bool
) -> WorldResult:
    """Close a run from its runtimes' :meth:`RankRuntime.finalize` books
    (one for the monolithic world, one per shard in shard order).

    Spans and counters a runtime recorded on a tracer of its own are
    folded into the world's ``tracer`` first, so a run that then fails
    (deadlock, leaked messages) still leaves its trace behind.
    """
    for b in books:
        own = b["tracer"]
        if own is None or own is tracer:
            continue
        # Spans are immutable: one already in the world's frame is shared.
        frame = tracer.frame
        tracer.spans.extend(
            sp if sp.frame == frame else replace(sp, frame=frame) for sp in own.spans
        )
        for k, v in own.counters.items():
            tracer.counters[k] = tracer.counters.get(k, 0) + v
        for k, v in own.link_bytes.items():
            tracer.link_bytes[k] = tracer.link_bytes.get(k, 0) + v

    blocked = sorted(r for b in books for r in b["blocked"])
    if blocked:
        raise DeadlockError([f"rank{r}" for r in blocked])
    leaks = [leak for b in books for leak in b["leaks"]]
    if check_leaks and leaks:
        raise leak_error(leaks)

    elapsed = max((b["elapsed"] for b in books), default=0.0)
    messages = sum(b["messages"] for b in books)
    report = None
    if books[0]["fault"] is not None:
        report = fault_report_from_counters(
            [b["fault"] for b in books], elapsed, len(ranks), messages
        )
    values: dict[int, Any] = {}
    compute: dict[int, float] = {}
    for b in books:
        values.update(b["values"])
        compute.update(b["compute"])
    return WorldResult(
        values=[values.get(r) for r in ranks],
        elapsed_s=elapsed,
        messages=messages,
        bytes_sent=sum(b["bytes"] for b in books),
        compute_seconds=[compute.get(r, 0.0) for r in ranks],
        fault=report,
    )


class MPIWorld:
    """A simulated MPI job on a BG/P partition.

    Each :meth:`run` starts a fresh discrete-event engine and network,
    spawns one coroutine per rank, and runs to completion.  The
    program is a generator function ``program(ctx, *args, **kwargs)``.
    """

    def __init__(
        self,
        partition: Partition,
        link: LinkCostModel | None = None,
        recv_overhead_s: float = 1e-6,
        tracer=None,
    ):
        self.partition = partition
        self.mapping = RankMapping(partition, "XYZT")
        self.topology = TorusTopology(partition.shape, torus=partition.is_torus)  # type: ignore[arg-type]
        self.link = link or LinkCostModel()
        self.recv_overhead_s = recv_overhead_s
        self.tracer = tracer  # optional repro.obs.Tracer, shared by every run

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
        """Run ``program`` SPMD on every rank (or the given subset:
        ``ranks`` must name existing ranks, each once).

        ``fault`` is a :class:`~repro.fault.FaultPlan`; the run builds
        its own injector(s) from it and wires them into the engine,
        network, and message board.  An *empty* plan is still installed
        (so its cost is measurable) but every hook short-circuits:
        results are bitwise identical to ``fault=None``.

        ``parallel`` (a :class:`~repro.sim.parallel.ParallelConfig`)
        selects the sharded conservative-parallel backend instead of
        the monolithic engine; any worker count produces identical
        results (see :mod:`repro.vmpi.shardworld` for what that world
        changes).
        """
        if ranks is not None:
            seen: set[int] = set()
            for r in ranks:
                if not 0 <= r < self.nprocs:
                    raise ConfigError(f"ranks: rank {r} out of range [0, {self.nprocs})")
                if r in seen:
                    raise ConfigError(f"ranks: rank {r} listed more than once")
                seen.add(r)
        if parallel is not None:
            from repro.vmpi.shardworld import run_parallel

            return run_parallel(
                self, program, args, kwargs,
                ranks=ranks, check_leaks=check_leaks, fault=fault,
                config=parallel,
            )
        which = list(range(self.nprocs)) if ranks is None else list(ranks)
        runtime = RankRuntime(
            self, which, program, args, kwargs, fault, self.tracer,
            DESNetwork, MessageBoard,
        )
        runtime.engine.run()
        return collect_result([runtime.finalize()], which, self.tracer, check_leaks)
