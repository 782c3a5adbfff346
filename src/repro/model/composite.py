"""Direct-send compositing time model.

Prices the *exact* message schedule at paper scale — the same
:class:`repro.compositing.schedule.CompositeSchedule` the DES and every
backend run, read through its ``(src, tile, sizes)`` arrays so no
per-message object is ever built — as::

    setup + max(endpoint serialization) + contention(messages)

where the contention law (see :mod:`repro.model.constants`) reproduces
the many-small-messages collapse of Figs. 3-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compositing.schedule import CompositeSchedule
from repro.model.constants import DEFAULT_CONSTANTS, ModelConstants
from repro.utils.errors import ConfigError
from repro.utils.units import fmt_bytes, fmt_time


@dataclass(frozen=True)
class CompositeStageResult:
    seconds: float
    num_messages: int
    total_bytes: int
    mean_message_bytes: float
    setup_s: float
    endpoint_s: float
    contention_s: float
    num_compositors: int

    @property
    def achieved_bandwidth_Bps(self) -> float:
        """The Fig. 4 metric: bytes moved / compositing time."""
        return self.total_bytes / self.seconds if self.seconds else 0.0

    def __str__(self) -> str:
        return (
            f"composite {fmt_time(self.seconds)}: {self.num_messages} msgs, "
            f"mean {fmt_bytes(self.mean_message_bytes)}, "
            f"contention {fmt_time(self.contention_s)}"
        )


def radix_k_cost(
    radices: Sequence[int],
    image_bytes: int,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> CompositeStageResult:
    """Analytic cost of radix-k compositing over the given round radices.

    The process count is ``prod(radices)``.  In round i every rank
    sends k_i - 1 pieces of (current region)/k_i and the region shrinks
    k_i-fold; each round is a synchronized phase, so the phase costs add
    and the contention law applies per round.  k = 2 everywhere is
    binary swap (the Ma et al. baseline: ``(2,) * log2(p)``) and one
    round of k = p is the dense exchange limit.
    """
    nprocs = int(np.prod(radices)) if len(radices) else 1
    if nprocs < 1:
        raise ConfigError("radices must multiply to a positive process count")
    c = constants.composite
    link = c.link
    total = c.setup_s
    num_messages = 0
    total_bytes = 0
    contention_total = 0.0
    endpoint_total = 0.0
    region = float(image_bytes)
    for k in radices:
        if k < 1:
            raise ConfigError(f"radix {k} invalid")
        if k == 1:
            continue
        piece = max(region / k, 1.0)
        n_msgs = nprocs * (k - 1)
        sizes = np.full(n_msgs, piece)
        endpoint = (k - 1) * (link.sw_overhead_s + link.wire_s(piece))
        cont = c.contention.phase_delay(sizes)
        total += endpoint + cont
        endpoint_total += endpoint
        contention_total += cont
        num_messages += n_msgs
        total_bytes += int(n_msgs * piece)
        region = piece
    return CompositeStageResult(
        seconds=total,
        num_messages=num_messages,
        total_bytes=total_bytes,
        mean_message_bytes=total_bytes / num_messages if num_messages else 0.0,
        setup_s=c.setup_s,
        endpoint_s=endpoint_total,
        contention_s=contention_total,
        num_compositors=nprocs,
    )


class CompositeTimeModel:
    """Prices one direct-send phase from its schedule's message arrays."""

    def __init__(self, constants: ModelConstants = DEFAULT_CONSTANTS):
        self.c = constants.composite

    def price(self, schedule: CompositeSchedule) -> CompositeStageResult:
        link = self.c.link
        per_msg = link.sw_overhead_s + link.wire_s(schedule.sizes)
        # Busiest endpoints: serialized receive at a compositor and
        # serialized send at a renderer.
        recv_time = np.zeros(schedule.num_compositors, dtype=np.float64)
        np.add.at(recv_time, schedule.tile, per_msg)
        send_time = np.zeros(schedule.num_renderers, dtype=np.float64)
        np.add.at(send_time, schedule.src, per_msg)
        endpoint = float(max(recv_time.max(initial=0.0), send_time.max(initial=0.0)))
        contention = self.c.contention.phase_delay(schedule.sizes)
        total = self.c.setup_s + endpoint + contention
        return CompositeStageResult(
            seconds=total,
            num_messages=schedule.total_messages,
            total_bytes=schedule.total_bytes,
            mean_message_bytes=schedule.mean_message_bytes,
            setup_s=self.c.setup_s,
            endpoint_s=endpoint,
            contention_s=contention,
            num_compositors=schedule.num_compositors,
        )
