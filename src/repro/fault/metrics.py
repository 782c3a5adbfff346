"""Resilience accounting: what the faults cost and how well we recovered.

Two report shapes, one per layer:

* :class:`FaultReport` — a single simulated MPI run (one frame):
  crashes, message-level faults, and the three service metrics the
  chaos CLI sweeps — MTTR, availability, goodput.
* :class:`FarmFaultStats` — a rendering-service run: node quarantine,
  killed/requeued jobs, and the node-second ledger behind availability
  and goodput.

Both are plain data with a ``summary()`` dict so they serialize
straight into the chaos JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FaultReport:
    """Per-run fault accounting for one simulated MPI world.

    * ``mttr_s`` — mean time from a compositor's crash to the moment a
      survivor finished re-compositing one of its adopted strips (0
      when nothing needed recovering).
    * ``availability`` — 1 − (dead-rank seconds / rank seconds): the
      fraction of compute capacity that stayed up over the run.
    * ``goodput`` — fraction of posted messages that were delivered to
      a live receiver (drops that were successfully retried still
      count as delivered; messages lost with a dead endpoint do not).
    """

    crashes: int = 0
    dead_ranks: tuple[int, ...] = ()
    messages_dropped: int = 0
    messages_duplicated: int = 0
    retries: int = 0
    messages_lost: int = 0
    straggler_delay_s: float = 0.0
    recoveries: int = 0
    mttr_s: float = 0.0
    availability: float = 1.0
    goodput: float = 1.0

    def summary(self) -> dict:
        return {
            "crashes": self.crashes,
            "dead_ranks": list(self.dead_ranks),
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "retries": self.retries,
            "messages_lost": self.messages_lost,
            "straggler_delay_s": self.straggler_delay_s,
            "recoveries": self.recoveries,
            "mttr_s": self.mttr_s,
            "availability": self.availability,
            "goodput": self.goodput,
        }


def fault_report_from_counters(
    shards: list[dict], t_end: float, nranks: int, total_messages: int
) -> FaultReport:
    """Close the books at simulated time ``t_end`` from plain counters.

    ``shards`` holds one :meth:`FaultInjector.counters` dict per engine
    shard — exactly one for the monolithic world.  Structural fields
    (crashes, crash times and hence the dead set, straggler delays) are
    identical on every shard — each shard schedules every planned crash
    and shares the global dead set — so they come from shard 0; volume
    counters (lost messages, retries, recoveries) are per-shard and sum.
    """
    first = shards[0]
    crash_time = first["crash_time"]
    dead = sorted(crash_time)
    lost = sum(s["lost"] for s in shards)
    recoveries = [r for s in shards for r in s["recoveries"]]
    availability = 1.0
    if nranks > 0 and t_end > 0:
        lost_s = sum(max(0.0, t_end - crash_time[r]) for r in dead)
        availability = max(0.0, 1.0 - lost_s / (nranks * t_end))
    goodput = 1.0
    if total_messages > 0:
        goodput = max(0.0, 1.0 - lost / total_messages)
    return FaultReport(
        crashes=first["crashes"],
        dead_ranks=tuple(dead),
        messages_dropped=sum(s["drops"] for s in shards),
        messages_duplicated=sum(s["dups"] for s in shards),
        retries=sum(s["retries"] for s in shards),
        messages_lost=lost,
        straggler_delay_s=first["straggler_s"],
        recoveries=len(recoveries),
        mttr_s=sum(recoveries) / len(recoveries) if recoveries else 0.0,
        availability=availability,
        goodput=goodput,
    )


@dataclass
class FarmFaultStats:
    """Fault accounting for one rendering-service (farm) run.

    The node-second ledger: ``quarantined_node_s`` is capacity fenced
    off for repair, ``wasted_node_s`` is partial work thrown away when
    a job was killed mid-serve.  ``availability`` = 1 − quarantined /
    (total nodes × makespan); ``goodput`` = useful / (useful + wasted)
    allocated node-seconds; ``mttr_s`` averages, over killed jobs, the
    time from first kill to eventual completion.
    """

    crashes: int = 0
    jobs_killed: int = 0
    retries: int = 0
    quarantined_node_s: float = 0.0
    wasted_node_s: float = 0.0
    mttr_samples: list[float] = field(default_factory=list)
    availability: float = 1.0
    goodput: float = 1.0

    @property
    def mttr_s(self) -> float:
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)

    def summary(self) -> dict:
        return {
            "crashes": self.crashes,
            "jobs_killed": self.jobs_killed,
            "retries": self.retries,
            "quarantined_node_s": self.quarantined_node_s,
            "wasted_node_s": self.wasted_node_s,
            "mttr_s": self.mttr_s,
            "availability": self.availability,
            "goodput": self.goodput,
        }
