"""Conservative windowed synchronization across engine shards.

The parallel DES backend advances all shards in lockstep *safe
windows*.  The lookahead ``W`` is the minimum time a cross-shard
message needs before it can affect its destination — send-side
software overhead plus one torus hop, since shards are contiguous
node blocks and a cross-shard message crosses at least one wire.
Because ``W`` is uniform and known, no null messages are needed: each
superstep is a barrier (Chandy–Misra–Bryant without the protocol
traffic):

1. every worker reports ``t_min`` — the earliest thing any of its
   shards could still do (next engine event, or a staged record's
   ready time) — plus the window's outbound records for other workers;
2. the controller computes the horizon ``H = min(t_min) + W`` and
   routes the records;
3. every worker merges incoming records into its shards in canonical
   ``(ready, src_rank, src_seq)`` order and runs each shard's engine
   strictly below ``H``.

Safety: an event at ``t < H`` can only generate a cross-shard record
with ``ready >= t + W >= min(t_min) + W = H``, so nothing scheduled
in a window can affect another shard inside the same window.
Progress: the shard holding the global minimum always executes at
least one event per window.

Determinism: window boundaries, record routing, and the canonical
merge order are all functions of the program and the machine alone
(``W`` is computed from the link, the shard count is a constant) —
never of the worker count — which is what makes ``workers=N``
bitwise-identical to ``workers=1`` (pinned by
``tests/sim/test_parallel.py``).

Workers are forked OS processes (records cross in packed byte strings,
see :mod:`repro.sim.mailbox`); ``workers=1`` runs the same superstep
loop in-process, including the encode/decode round-trip.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.utils.errors import ConfigError, SimulationError

_INF = float("inf")


@dataclass(frozen=True)
class ParallelConfig:
    """Selects the parallel DES backend on ``MPIWorld.run`` entry points.

    ``workers`` — OS worker processes (1 = in-process superstep loop).
    Nothing else is configurable: the shard count
    (:data:`repro.sim.partition.DEFAULT_SHARDS`) and the safe window
    (the link lookahead) are fixed, so results never depend on it.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


class WorkerFailed(SimulationError):
    """A forked DES worker raised; carries the remote traceback."""


def _strictly_below(horizon: float) -> float:
    """Largest representable time < ``horizon`` (window upper bound)."""
    return math.nextafter(horizon, -_INF)


def _drive_local(worker: Any, window_s: float) -> list[Any]:
    """The superstep loop for a single in-process worker."""
    while True:
        t_min, outbound = worker.report()
        if outbound:
            raise SimulationError(
                "single-worker run produced records addressed to another worker"
            )
        if t_min == _INF:
            return [worker.finalize()]
        worker.advance(_strictly_below(t_min + window_s), ())


def _worker_main(conn, make_worker: Callable[[int], Any], worker_id: int) -> None:
    """Forked child: build this worker's shards and follow the protocol."""
    try:
        worker = make_worker(worker_id)
        while True:
            t_min, outbound = worker.report()
            conn.send(("r", t_min, outbound))
            msg = conn.recv()
            if msg[0] == "a":
                worker.advance(msg[1], msg[2])
            elif msg[0] == "f":
                conn.send(("v", worker.finalize()))
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown controller message {msg[0]!r}")
    except BaseException:
        try:
            conn.send(("e", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


def run_supersteps(
    make_worker: Callable[[int], Any], num_workers: int, window_s: float
) -> list[Any]:
    """Drive workers through the superstep protocol; return finalize payloads.

    ``make_worker(worker_id)`` builds a worker object exposing:

    * ``report() -> (t_min, {dst_worker: packed_records})``
    * ``advance(until, packed_blobs) -> None``
    * ``finalize() -> picklable payload``

    With ``num_workers > 1`` the workers are forked child processes
    (the factory and everything it closes over is inherited, not
    pickled) connected by pipes; the parent is the window controller.
    """
    if not window_s > 0:
        raise ConfigError(
            f"conservative window must be positive, got {window_s!r} "
            "(zero lookahead would serialize every event)"
        )
    if num_workers == 1:
        return [_drive_local(make_worker(0), window_s)[0]]

    ctx = mp.get_context("fork")
    conns = []
    procs = []
    try:
        for wid in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, make_worker, wid),
                daemon=True,
                name=f"des-shard-worker-{wid}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        def recv(wid: int):
            try:
                msg = conns[wid].recv()
            except EOFError:
                raise WorkerFailed(
                    f"DES worker {wid} exited without reporting"
                ) from None
            if msg[0] == "e":
                raise WorkerFailed(f"DES worker {wid} failed:\n{msg[1]}")
            return msg

        while True:
            reports = [recv(wid) for wid in range(num_workers)]
            t_min = min(r[1] for r in reports)
            if t_min == _INF:
                break
            # Route: each worker's inbox gets blobs in source-worker
            # order (records are re-sorted canonically per shard on
            # arrival, so only determinism matters here, not order).
            inbox: list[list[bytes]] = [[] for _ in range(num_workers)]
            for _tag, _t, outbound in reports:
                for dst_wid in sorted(outbound):
                    inbox[dst_wid].append(outbound[dst_wid])
            until = _strictly_below(t_min + window_s)
            for wid in range(num_workers):
                conns[wid].send(("a", until, tuple(inbox[wid])))
        for wid in range(num_workers):
            conns[wid].send(("f",))
        payloads = []
        for wid in range(num_workers):
            msg = recv(wid)
            if msg[0] != "v":  # pragma: no cover - protocol guard
                raise WorkerFailed(f"DES worker {wid} sent {msg[0]!r}, expected result")
            payloads.append(msg[1])
        for proc in procs:
            proc.join(timeout=30)
        return payloads
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            conn.close()
