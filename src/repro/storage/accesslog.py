"""Physical-access logging and the Fig. 9 block-touch maps.

The paper instruments its reads with I/O logs and visualizes which file
blocks were physically touched to read one variable.  ``AccessLog``
records every physical access the two-phase layer performs;
``BlockMap`` renders the touched-block picture and the *data density*
metric of Fig. 10 (useful bytes / physically read bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import StorageError
from repro.utils.units import fmt_bytes

#: Most accesses :meth:`AccessLog.bridge_spans` draws as spans.
MAX_BRIDGE_SPANS = 512


@dataclass(frozen=True)
class Access:
    """One physical I/O operation against a file."""

    offset: int
    length: int
    kind: str = "read"  # "read" | "write" | "meta"
    actor: int = -1  # aggregator rank or -1

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise StorageError(f"invalid access ({self.offset}, {self.length})")

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class AccessLog:
    """Append-only record of physical accesses, with summary stats.

    ``stragglers`` annotates ranks whose reads were held back by a slow
    storage server (fault injection): rank -> accumulated extra
    seconds.  The delays are simulated-time, not physical accesses, so
    they ride beside the access list rather than in it.
    """

    accesses: list[Access] = field(default_factory=list)
    stragglers: dict[int, float] = field(default_factory=dict)

    def record(self, offset: int, length: int, kind: str = "read", actor: int = -1) -> None:
        self.accesses.append(Access(int(offset), int(length), kind, actor))

    def record_straggler(self, rank: int, delay_s: float) -> None:
        """Annotate that ``rank``'s read was delayed ``delay_s`` seconds."""
        if delay_s < 0:
            raise StorageError(f"negative straggler delay {delay_s!r}")
        self.stragglers[int(rank)] = self.stragglers.get(int(rank), 0.0) + float(delay_s)

    def extend(self, other: "AccessLog") -> None:
        self.accesses.extend(other.accesses)
        for rank, delay in other.stragglers.items():
            self.stragglers[rank] = self.stragglers.get(rank, 0.0) + delay

    def clear(self) -> None:
        self.accesses.clear()
        self.stragglers.clear()

    # -- summaries --------------------------------------------------------

    def data_accesses(self) -> list[Access]:
        return [a for a in self.accesses if a.kind == "read"]

    def meta_accesses(self) -> list[Access]:
        return [a for a in self.accesses if a.kind == "meta"]

    @property
    def count(self) -> int:
        return len(self.data_accesses())

    @property
    def total_bytes(self) -> int:
        return sum(a.length for a in self.data_accesses())

    @property
    def mean_access_bytes(self) -> float:
        n = self.count
        return self.total_bytes / n if n else 0.0

    def offsets_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        """Data accesses as (offsets, lengths) arrays for the models."""
        data = self.data_accesses()
        off = np.array([a.offset for a in data], dtype=np.int64)
        ln = np.array([a.length for a in data], dtype=np.int64)
        return off, ln

    def density(self, useful_bytes: int) -> float:
        """Data density: useful bytes / physically read bytes (Fig. 10)."""
        phys = self.total_bytes
        return useful_bytes / phys if phys else 0.0

    def summary(self) -> str:
        base = (
            f"{self.count} accesses, {fmt_bytes(self.total_bytes)} physical, "
            f"mean access {fmt_bytes(self.mean_access_bytes)}, "
            f"{len(self.meta_accesses())} metadata ops"
        )
        if self.stragglers:
            worst = max(self.stragglers.values())
            base += f", {len(self.stragglers)} straggling ranks (worst +{worst:.3g}s)"
        return base

    # -- trace bridging ---------------------------------------------------

    def bridge_spans(self, tracer, t0: float, t1: float) -> int:
        """Project the access sequence into a tracer window as I/O spans.

        Physical accesses carry no simulated clock — the two-phase read
        runs outside the engine and its duration is priced analytically
        — so the bridge lays each actor's accesses end-to-end across
        ``[t0, t1]``, with widths proportional to bytes moved.  The
        *structure* (which aggregator touched what, in which order, how
        big) is faithful; the absolute placement inside the window is a
        visualization.  Returns the number of spans emitted; accesses past
        :data:`MAX_BRIDGE_SPANS` are counted so huge logs do not swamp it.
        """
        from repro.obs.tracer import CAT_IO

        if not getattr(tracer, "enabled", False) or t1 <= t0 or not self.accesses:
            return 0
        kept = self.accesses[:MAX_BRIDGE_SPANS]
        dropped = len(self.accesses) - len(kept)
        by_actor: dict[int, list[Access]] = {}
        for a in kept:
            by_actor.setdefault(a.actor, []).append(a)
        emitted = 0
        for actor, accs in by_actor.items():
            # Metadata ops have zero length; give them a nominal byte
            # so they remain visible as slivers.
            weights = [max(a.length, 1) for a in accs]
            scale = (t1 - t0) / sum(weights)
            cur = t0
            for a, w in zip(accs, weights):
                dur = w * scale
                tracer.span(
                    actor, f"{a.kind} {fmt_bytes(a.length)}", CAT_IO,
                    cur, cur + dur, offset=a.offset, length=a.length,
                )
                cur += dur
                emitted += 1
        if dropped:
            tracer.count("io.accesses_dropped", dropped)
        return emitted


class BlockMap:
    """Which file blocks were touched — the Fig. 9 picture.

    Divides a file of ``file_size`` bytes into ``nblocks`` equal blocks
    and marks every block intersected by a logged read.
    """

    def __init__(self, file_size: int, nblocks: int = 1024):
        if file_size <= 0 or nblocks <= 0:
            raise StorageError("BlockMap needs positive file size and block count")
        self.file_size = int(file_size)
        self.nblocks = int(nblocks)
        self.touched = np.zeros(nblocks, dtype=bool)

    @property
    def block_size(self) -> float:
        return self.file_size / self.nblocks

    def mark(self, log: AccessLog) -> "BlockMap":
        off, ln = log.offsets_lengths()
        return self.mark_ranges(off, ln)

    def mark_ranges(self, offsets: np.ndarray, lengths: np.ndarray) -> "BlockMap":
        """Mark from raw (offsets, lengths) arrays (e.g. a TwoPhasePlan)."""
        for o, l in zip(np.atleast_1d(offsets), np.atleast_1d(lengths)):
            if l == 0:
                continue
            first = int(o // self.block_size)
            last = int(min((o + l - 1) // self.block_size, self.nblocks - 1))
            self.touched[first : last + 1] = True
        return self

    @property
    def fraction_touched(self) -> float:
        return float(self.touched.mean())

    def render(self, width: int = 64, rows: int = 4) -> str:
        """ASCII rendering of the touched-block map.

        Each cell covers several blocks; its character shades by the
        fraction of them that were read ('.' none ... '#' all),
        mirroring Fig. 9's dark/light panels at terminal resolution.
        """
        levels = ".-:=*#"
        cells = width * rows
        per_cell = max(1, -(-self.nblocks // cells))
        out_rows = []
        for r in range(rows):
            row = []
            for c in range(width):
                lo = (r * width + c) * per_cell
                if lo >= self.nblocks:
                    break
                chunk = self.touched[lo : lo + per_cell]
                frac = float(chunk.mean()) if chunk.size else 0.0
                idx = min(int(frac * (len(levels) - 1) + 0.9999), len(levels) - 1) if frac > 0 else 0
                row.append(levels[idx])
            out_rows.append("".join(row))
        return "\n".join(out_rows)
