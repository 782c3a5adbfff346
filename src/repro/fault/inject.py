"""The fault injector: compiles a :class:`FaultPlan` into live behaviour.

``MPIWorld.run(fault=plan)`` builds one :class:`FaultInjector` per rank
runtime (one for a monolithic run, one per shard otherwise; counters
and RNG streams are run-local) and threads it through the stack:

* the **engine** gets crash events (``Process.kill`` on every rank of
  the victim node) and the *quiescence* future that resolves once the
  last planned crash has fired plus the detection latency — survivors
  wait on it before acting on the dead set, which makes the dead set a
  stable snapshot instead of a race;
* the **network** consults :meth:`link_factor` for per-link bandwidth
  multipliers and :meth:`drop_decision` for message drops (dropped
  transfers resolve with the :data:`MSG_DROPPED` sentinel instead of
  delivering);
* the **message board** consults :meth:`is_dead` at delivery time,
  retransmits drops under the plan's :class:`RetryPolicy`, and injects
  duplicates via :meth:`dup_decision`.

Feature flags (``has_crashes``/``net_active``/``msg_faults``/
``has_io``) let every hook short-circuit to the exact pre-fault code
path when its feature is unused — the empty plan is bitwise inert.

Fault decisions draw from counting RNG substreams in event order, so a
given plan produces the same drops/dups on every run.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.fault.plan import FaultPlan
from repro.obs.tracer import CAT_FAULT
from repro.sim.events import Future
from repro.utils.errors import FaultError
from repro.utils.rng import substream

#: Sentinel a network transfer future resolves with when the fault
#: layer dropped the message on the wire.  Carried on the injector
#: (``injector.DROPPED``) as well, so the network/comm layers never
#: need a module-level import of the fault package.
MSG_DROPPED = object()


class FaultInjector:
    """Run-local fault state machine for one simulated MPI world."""

    DROPPED = MSG_DROPPED

    def __init__(self, plan: FaultPlan, tracer=None):
        if not isinstance(plan, FaultPlan):
            raise FaultError(f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.tracer = tracer
        self.retry = plan.retry
        self.has_crashes = bool(plan.node_crashes)
        self.has_links = bool(plan.link_windows)
        self.msg_faults = plan.drop_prob > 0 or plan.dup_prob > 0
        self.has_io = bool(plan.io_stragglers)
        #: The network needs the slow transfer path only for link
        #: windows and wire drops; crashes are a board-level concern.
        self.net_active = self.has_links or self.msg_faults
        self.active = not plan.empty
        self._drop_rng = substream(plan.seed, "fault", "drop") if plan.drop_prob > 0 else None
        self._dup_rng = substream(plan.seed, "fault", "dup") if plan.dup_prob > 0 else None
        self._io_delay = {s.rank: s.delay_s for s in plan.io_stragglers}
        self._dead_ranks: set[int] = set()
        self._dead_nodes: set[int] = set()
        self._crash_time: dict[int, float] = {}
        self._recoveries: list[float] = []  # repair durations (crash -> recovered)
        self.crashes = 0
        self.drops = 0
        self.dups = 0
        self.retries = 0
        self.lost = 0
        #: Callbacks ``fn(ranks: tuple[int, ...], time: float)`` fired
        #: when a node crash kills ranks (policy layers subscribe).
        self.on_crash: list[Callable[[tuple[int, ...], float], None]] = []
        self._engine = None
        self._board = None
        self._procs: dict[int, Any] = {}
        self._ranks_on_node: dict[int, list[int]] = {}
        self._quiescent: Future | None = None

    # ------------------------------------------------------------------
    # Arming

    def arm(self, engine, mapping=None, procs=None, board=None, ranks_on_node=None) -> None:
        """Bind to a run and schedule the plan's crash events.

        ``procs`` maps rank -> :class:`~repro.sim.engine.Process`.
        ``ranks_on_node`` (node -> sorted ranks) defaults to the ranks
        in ``procs``; a shard that runs only some of the world's ranks
        passes the global map, so its dead set still covers them all.
        Must be called after ranks are spawned and before ``run()``.
        """
        self._engine = engine
        self._board = board
        self._procs = dict(procs or {})
        self._quiescent = Future(name="fault.quiescent")
        if not self.has_crashes:
            # Nothing will ever die: quiescence is immediate, so
            # failover-aware code falls through without waiting.
            self._quiescent.resolve(None)
            return
        if ranks_on_node is None:
            ranks_on_node = {}
            for r in sorted(self._procs):
                node = mapping.node_of(r) if mapping is not None else int(r)
                ranks_on_node.setdefault(node, []).append(r)
        self._ranks_on_node = ranks_on_node
        last = 0.0
        for crash in sorted(self.plan.node_crashes, key=lambda c: (c.time_s, c.node)):
            engine.schedule_at(crash.time_s, partial(self._crash_node, crash.node))
            last = max(last, crash.time_s)
        # Scheduled after the crash events, so at equal timestamps the
        # quiescence callback runs last: the dead set is final when
        # waiters resume.
        engine.schedule_at(last + self.plan.detect_s, self._quiesce)

    def _quiesce(self) -> None:
        if self._quiescent is not None and not self._quiescent.done:
            self._quiescent.resolve(None)

    def quiescent(self) -> Future:
        """Future resolved once every planned crash has been detected.

        Processes ``yield`` it before reading :meth:`dead_ranks`; with
        no crashes planned it is already resolved.
        """
        if self._quiescent is None:
            raise FaultError("injector not armed; call arm() first")
        return self._quiescent

    # ------------------------------------------------------------------
    # Crashes

    def _crash_node(self, node: int) -> None:
        if node in self._dead_nodes:
            return
        self._dead_nodes.add(node)
        now = self._engine.now
        newly: list[int] = []
        for r in self._ranks_on_node.get(node, ()):
            if r in self._dead_ranks:
                continue
            self._dead_ranks.add(r)
            self._crash_time[r] = now
            newly.append(r)
            proc = self._procs.get(r)
            if proc is not None:
                proc.kill()
        self.crashes += 1
        if self._board is not None and newly:
            self.lost += self._board.purge_ranks(newly)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.span(-1, f"crash node{node}", CAT_FAULT, now, now,
                    node=node, ranks=list(newly))
            tr.count("fault.crashes")
        for cb in self.on_crash:
            cb(tuple(newly), now)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead_ranks

    def dead_ranks(self) -> list[int]:
        return sorted(self._dead_ranks)

    def crash_time_of(self, rank: int) -> float | None:
        return self._crash_time.get(rank)

    # ------------------------------------------------------------------
    # Link + message faults (hot-path decisions)

    def link_factor(self, src_node: int, dst_node: int, now: float) -> float:
        """Combined bandwidth multiplier on (src, dst) at time ``now``."""
        f = 1.0
        for w in self.plan.link_windows:
            if (
                w.t0 <= now < w.t1
                and w.src_node in (-1, src_node)
                and w.dst_node in (-1, dst_node)
            ):
                f *= w.bandwidth_factor
        return f

    def drop_decision(self) -> bool:
        """Counting-RNG draw: drop this message on the wire?"""
        if self._drop_rng is None:
            return False
        if self._drop_rng.random() < self.plan.drop_prob:
            self.drops += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.count("fault.drops")
            return True
        return False

    def dup_decision(self) -> bool:
        """Counting-RNG draw: inject a duplicate of this message?"""
        if self._dup_rng is None:
            return False
        if self._dup_rng.random() < self.plan.dup_prob:
            self.dups += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.count("fault.dups")
            return True
        return False

    def note_retry(self) -> None:
        self.retries += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.count("fault.retries")

    def note_lost(self, n: int = 1) -> None:
        self.lost += n

    # ------------------------------------------------------------------
    # Recovery accounting

    def note_recovered(self, tile: int, owner_rank: int, now: float) -> None:
        """A survivor finished re-compositing ``tile`` of dead ``owner_rank``."""
        t_crash = self._crash_time.get(owner_rank)
        if t_crash is None:
            return
        self._recoveries.append(max(0.0, now - t_crash))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.span(-1, f"failover tile{tile}", CAT_FAULT,
                             t_crash, now, tile=tile, owner=owner_rank)
            self.tracer.count("fault.recoveries")

    # ------------------------------------------------------------------
    # Report

    def counters(self) -> dict:
        """The plain (picklable) tallies a :class:`~repro.fault.metrics.FaultReport` is built from."""
        return {
            "crashes": self.crashes,
            "crash_time": dict(self._crash_time),
            "lost": self.lost,
            "retries": self.retries,
            "drops": self.drops,
            "dups": self.dups,
            "recoveries": list(self._recoveries),
            "straggler_s": float(sum(self._io_delay.values())),
        }
