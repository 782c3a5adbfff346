"""The regional edge tier: per-region frame caches with TTL + invalidation.

The paper's end-to-end argument is that the machine's scarce resource
must never be spent twice on the same work.  At service scale the
threat is a *flash crowd*: N concurrent requests for one ``frame_key``
that all miss the result cache and all boot partitions, multiplying
machine load by the duplication factor.  The edge tier is the fix,
in two parts:

* **Regional LRU caches** (:class:`EdgeCache`, this module) — one
  bounded LRU per region in *front* of the origin
  :class:`~repro.farm.cache.FrameResultCache`.  A warm edge hit is
  served where the user sits and never touches the origin at all.
  Entries carry a fill time, so a TTL can bound staleness, and a
  dataset that publishes a new timestep can
  :meth:`~EdgeCache.invalidate_dataset` every region at once.

* **Single-flight coalescing** (in :class:`~repro.farm.service.
  RenderFarm`) — concurrent identical ``frame_key`` requests attach to
  the one in-flight render and all complete, with the same payload, the
  moment it lands.  The edge tier's cache makes *repeats* cheap; the
  single-flight table makes *concurrent duplicates* free.

Accounting: every counter here reconciles with :class:`FarmResult`
(edge hits == records flagged ``edge_hit`` == zero-length ``edge-hit``
spans in :data:`~repro.obs.tracer.CAT_EDGE`), pinned by the edge
selftest and ``tests/farm/test_edge.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.utils.errors import ConfigError
from repro.utils.lru import LRU


@dataclass(frozen=True)
class EdgeConfig:
    """Declarative edge-tier knobs (the ``edge`` scenario key)."""

    entries_per_region: int = 128
    ttl_s: float | None = None  # None: entries never expire by age

    def __post_init__(self) -> None:
        if self.entries_per_region < 1:
            raise ConfigError(
                f"edge entries_per_region must be >= 1, got {self.entries_per_region}"
            )
        if self.ttl_s is not None and self.ttl_s <= 0:
            raise ConfigError(f"edge ttl_s must be > 0 (or null), got {self.ttl_s}")

    def build(self) -> "EdgeCache":
        return EdgeCache(entries_per_region=self.entries_per_region, ttl_s=self.ttl_s)


class EdgeCache:
    """Per-region LRU of delivered frames, keyed on ``frame_key``.

    Regions materialize on first use; each is an :class:`LRU` of at
    most ``entries_per_region`` ``(t_fill, payload)`` entries, with its
    own hit/miss counters.  All times are simulated seconds on the farm
    engine's clock — TTL expiry is checked lazily at lookup, so an
    expired entry counts one ``expired`` *and* one ``miss`` (the
    request proceeds to the origin).
    """

    def __init__(self, entries_per_region: int = 128, ttl_s: float | None = None):
        if entries_per_region < 1:
            raise ConfigError(
                f"edge entries_per_region must be >= 1, got {entries_per_region}"
            )
        self.entries_per_region = int(entries_per_region)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._regions: dict[str, LRU] = {}
        self.expired = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return sum(len(store) for store in self._regions.values())

    @property
    def hits(self) -> int:
        return sum(store.hits for store in self._regions.values())

    @property
    def misses(self) -> int:
        return sum(store.misses for store in self._regions.values())

    def _store(self, region: str) -> LRU:
        store = self._regions.get(region)
        if store is None:
            store = self._regions[region] = LRU(self.entries_per_region)
        return store

    def _expired(self, entry: tuple[float, Any], now: float) -> bool:
        return self.ttl_s is not None and now - entry[0] > self.ttl_s

    def lookup(self, region: str, key: tuple, now: float) -> Any | None:
        """The frame cached in ``region``, refreshing recency; else None."""
        store = self._store(region)
        entry = store.peek(key)
        if entry is not None and self._expired(entry, now):
            store.pop(key)  # aged out: fall through to a counted miss
            self.expired += 1
        entry = store.get(key)
        return None if entry is None else entry[1]

    def peek(self, region: str, key: tuple, now: float) -> Any | None:
        """Uncounted, recency-neutral probe (TTL still honoured).

        Coarse ladder-level probes use this: a preview served while the
        fine levels render must not perturb the edge tier's hit/miss
        books, which reconcile 1:1 with ``edge_hit`` request records.
        """
        store = self._regions.get(region)
        entry = None if store is None else store.peek(key)
        if entry is None or self._expired(entry, now):
            return None
        return entry[1]

    def fill(self, region: str, key: tuple, payload: Any, now: float) -> None:
        """Install a delivered frame in ``region`` (evicting LRU)."""
        self._store(region).put(key, (now, payload))

    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every region's frames of ``dataset``; returns the count.

        ``frame_key`` leads with the dataset name, so a dataset that
        publishes a new timestep (or republishes data) can flush all
        of its frames service-wide in one call.
        """
        dropped = sum(store.drop(lambda k: k[0] == dataset) for store in self._regions.values())
        self.invalidated += dropped
        return dropped

    def summary(self) -> dict:
        """JSON-able stats, reconciling with ``FarmResult.summary()``."""
        total = self.hits + self.misses
        return {
            "entries_per_region": self.entries_per_region,
            "ttl_s": self.ttl_s,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "expired": self.expired,
            "invalidated": self.invalidated,
            "per_region": {
                region: {
                    "entries": len(store),
                    "hits": store.hits,
                    "misses": store.misses,
                }
                for region, store in sorted(self._regions.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EdgeCache {len(self._regions)} regions, {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )
