"""Concurrent-read contention: overlapped collective reads share storage.

When a pipelined campaign prefetches timestep t+1 while frame t still
computes, two collective reads can be outstanding at once.  Pricing each
in isolation would silently double the storage system's bandwidth; this
module provides the station the campaign scheduler routes every read
through so that *total served demand never exceeds what the file
servers and I/O nodes deliver*.

A read's ``demand`` is its priced stage time in seconds — the
:class:`repro.model.io.IOTimeModel` output, i.e. seconds-at-full-
aggregate-bandwidth for that read's own access signature.  Two service
disciplines, both work-conserving:

* ``fifo`` (default) — reads are served one at a time in issue order at
  full bandwidth.  This is what the two-phase machinery actually does:
  each collective read's aggregators own even file domains and stream
  their round windows back to back, so a second collective read's
  windows queue behind the first at the servers rather than interleave.
  Crucially it also means a read the pipeline is *blocked on* is never
  slowed by its own prefetch.
* ``fair`` — generalized processor sharing: the k outstanding reads
  each progress at 1/k of the aggregate rate.  The pessimistic arm for
  the depth study — deep prefetch steals bandwidth from the read the
  next frame is waiting on, which is exactly why depth > 2 buys nothing
  (DESIGN.md §15).

Both conserve work: sum of service time equals sum of demand, so a
campaign's total I/O busy time is invariant under discipline — only
*which frame waits* changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.engine import Engine
from repro.sim.events import Future
from repro.utils.errors import ConfigError

DISCIPLINES = ("fifo", "fair")


@dataclass
class ReadService:
    """One read's passage through the station (simulated seconds)."""

    index: int
    demand_s: float
    t_issue: float  # when the read was submitted
    t_start: float = 0.0  # when bytes first flowed for it
    t_done: float = 0.0

    @property
    def wait_s(self) -> float:
        """Time spent queued or slowed behind other reads."""
        return (self.t_done - self.t_issue) - self.demand_s


class SharedStorageStation:
    """Equal-capacity storage server on a DES clock.

    Submit returns a :class:`Future` that resolves when the read's
    demand has been fully served under the configured discipline; the
    per-read :class:`ReadService` ledger (in submission order) is kept
    in :attr:`services` for span export and reconciliation.
    """

    def __init__(self, engine: Engine, discipline: str = "fifo"):
        if discipline not in DISCIPLINES:
            raise ConfigError(
                f"unknown contention discipline {discipline!r}; "
                f"choose from {DISCIPLINES}"
            )
        self.engine = engine
        self.discipline = discipline
        self.services: list[ReadService] = []
        # fifo state: when the server frees up.
        self._free_at = 0.0
        # fair (processor sharing) state.
        self._active: list[_FairJob] = []
        self._last_t = 0.0
        self._next_ev = None

    def submit(self, demand_s: float) -> Future:
        """Offer one read of ``demand_s`` seconds; returns its done future."""
        if not demand_s >= 0:
            raise ConfigError(f"read demand must be >= 0, got {demand_s!r}")
        eng = self.engine
        svc = ReadService(index=len(self.services), demand_s=float(demand_s),
                          t_issue=eng.now)
        self.services.append(svc)
        done = Future(name=f"read{svc.index}.done")
        if self.discipline == "fifo":
            start = max(eng.now, self._free_at)
            end = start + svc.demand_s
            self._free_at = end
            svc.t_start = start
            svc.t_done = end
            eng.schedule_at(end, lambda: done.resolve(svc))
        else:
            self._advance()
            svc.t_start = eng.now  # PS: service begins (diluted) at once
            self._active.append(_FairJob(svc, svc.demand_s, done))
            self._reschedule()
        return done

    # -- fair (processor-sharing) machinery ---------------------------

    def _advance(self) -> None:
        """Progress every active job to the current time at rate 1/k."""
        now = self.engine.now
        dt = now - self._last_t
        self._last_t = now
        if dt > 0 and self._active:
            rate = 1.0 / len(self._active)
            for job in self._active:
                job.remaining -= dt * rate

    def _reschedule(self) -> None:
        """(Re)aim the next-completion event at the soonest finisher."""
        if self._next_ev is not None:
            self._next_ev.cancel()
            self._next_ev = None
        if not self._active:
            return
        soonest = min(job.remaining for job in self._active)
        dt = max(0.0, soonest * len(self._active))
        self._next_ev = self.engine.schedule(dt, self._complete)

    def _complete(self) -> None:
        self._next_ev = None
        self._advance()
        eps = 1e-12
        finished = [j for j in self._active if j.remaining <= eps]
        self._active = [j for j in self._active if j.remaining > eps]
        for job in finished:
            job.service.t_done = self.engine.now
            job.done.resolve(job.service)
        self._reschedule()


@dataclass
class _FairJob:
    service: ReadService
    remaining: float
    done: Future = field(repr=False)
